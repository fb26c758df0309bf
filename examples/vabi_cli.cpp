// vabi_cli -- command-line variation-aware buffer insertion.
//
// Reads a routing tree in the vabi-tree text format (see tree/tree_io.hpp),
// optimizes it, and prints the buffered design and its RAT statistics.
//
//   vabi_cli NET.tree [options]
//     --mode nom|d2d|wid        variation model to optimize under (default wid)
//     --rule 2p|4p|1p           pruning rule (default 2p)
//     --profile homo|hetero     spatial budget profile (default hetero)
//     --pbar P                  2P parameters pbar_L = pbar_T (default 0.5)
//     --yield-percentile Q      selection/root percentile (default 0.05)
//     --driver-res OHM          source driver resistance (default 150)
//     --wire-widths W1,W2,...   enable wire sizing with these multipliers
//     --emit-assignment PATH    write "node buffer_name [width]" lines
//     --stats-json PATH         dump the solve's full dp_stats as one flat
//                               JSON object (schema in README.md); single-net
//                               mode only
//     --generate SINKS          ignore NET.tree; generate a random net
//     --seed N                  seed for --generate / the batch seed stream
//     --threads N               solve sibling subtrees on N threads
//                               (default 1 = serial; results are identical)
//     --deadline SECONDS        wall-clock budget for the solve
//     --degrade none|retry|partial   fallback on cap/deadline trips
//     --audit                   independently re-derive and cross-check every
//                               winning solution (solution_witness) plus a
//                               64-sample Monte-Carlo spot check
//
//   Batch / crash recovery:
//     --batch N                 solve N generated nets (requires --generate;
//                               per-net seeds derive from --seed)
//     --journal PATH            journal every finished net to PATH (.vjl),
//                               checkpointed atomically; implies batch mode
//     --checkpoint-every N      checkpoint the journal every N nets (default 16)
//     --resume                  restore already-journaled nets from --journal
//                               instead of re-solving them (bit-identical)
//     --verify-restored         paranoia: re-solve restored nets anyway and
//                               require bit-identical results
//
// SIGINT/SIGTERM drain gracefully: running nets finish and are journaled,
// pending nets come back "cancelled", and the run exits with code 20
// ("interrupted, resumable") when a journal is in use.
//
// Exit codes (documented in README.md): 0 success, 1 usage error, 2 cannot
// read/parse the input tree, then one distinct code per solve_code:
// 3 candidate_cap, 4 deadline_exceeded, 5 memory_cap, 6 nonfinite_value,
// 7 invalid_options, 8 invalid_tree, 9 cancelled, 10 internal,
// 11 journal_corrupt, 12 journal_mismatch, 14 shard_mismatch; 13 audit
// mismatch; 20 interrupted with a resumable journal. Every failure prints a
// one-line "vabi_cli: error: ..." diagnostic to stderr.
#include <charconv>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "core/solve_status.hpp"

#include "analysis/solution_witness.hpp"
#include "analysis/variance_breakdown.hpp"
#include "analysis/yield.hpp"
#include "core/journal.hpp"
#include "core/parallel.hpp"
#include "core/statistical_dp.hpp"
#include "core/van_ginneken.hpp"
#include "tree/generators.hpp"
#include "tree/tree_io.hpp"

namespace {

using namespace vabi;

struct cli_options {
  std::string tree_path;
  layout::variation_mode mode = layout::wid_mode();
  core::pruning_kind rule = core::pruning_kind::two_param;
  layout::spatial_profile profile = layout::spatial_profile::heterogeneous;
  double pbar = 0.5;
  double yield_percentile = 0.05;
  double driver_res = 150.0;
  std::vector<double> wire_widths = {1.0};
  std::string emit_assignment;
  std::string stats_json;
  std::size_t generate_sinks = 0;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  double deadline_seconds = 0.0;
  core::degrade_policy degrade = core::degrade_policy::none;
  bool audit = false;
  std::size_t batch = 0;
  std::string journal_path;
  std::size_t checkpoint_every = 16;
  bool resume = false;
  bool verify_restored = false;
};

/// One distinct nonzero exit code per solve_code (see the header comment).
int exit_code_for(core::solve_code code) {
  switch (code) {
    case core::solve_code::ok:
      return 0;
    case core::solve_code::candidate_cap:
      return 3;
    case core::solve_code::deadline_exceeded:
      return 4;
    case core::solve_code::memory_cap:
      return 5;
    case core::solve_code::nonfinite_value:
      return 6;
    case core::solve_code::invalid_options:
      return 7;
    case core::solve_code::invalid_tree:
      return 8;
    case core::solve_code::cancelled:
      return 9;
    case core::solve_code::internal:
      return 10;
    case core::solve_code::journal_corrupt:
      return 11;
    case core::solve_code::journal_mismatch:
      return 12;
    case core::solve_code::shard_mismatch:
      return 14;
  }
  return 10;
}

constexpr int exit_audit_mismatch = 13;
constexpr int exit_interrupted_resumable = 20;
/// Every net solved, but the journal could not be (fully) written: results
/// are correct and printed, crash recovery just is not guaranteed. Non-fatal
/// but distinct, so scripts that rely on --resume notice.
constexpr int exit_journal_warning = 21;

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::cerr << "vabi_cli: " << msg << "\n";
  std::cerr << "usage: vabi_cli NET.tree [--mode nom|d2d|wid] [--rule 2p|4p|1p]\n"
               "                [--profile homo|hetero] [--pbar P]\n"
               "                [--yield-percentile Q] [--driver-res OHM]\n"
               "                [--wire-widths W1,W2,...]\n"
               "                [--emit-assignment PATH] [--stats-json PATH]\n"
               "                [--generate SINKS] [--seed N] [--threads N]\n"
               "                [--deadline SECONDS] [--degrade none|retry|partial]\n"
               "                [--audit] [--batch N] [--journal PATH]\n"
               "                [--checkpoint-every N] [--resume]\n"
               "                [--verify-restored]\n";
  std::exit(1);
}

/// Parses all of `text` as the value of numeric `option`. An empty or
/// partial value, a negative count, or an out-of-range value is a usage
/// error.
template <class T>
T parse_number(const char* option, const std::string& text) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last) {
    const std::string msg =
        std::string("malformed number for ") + option + ": '" + text + "'";
    usage(msg.c_str());
  }
  return value;
}

std::vector<double> parse_widths(const std::string& arg) {
  std::vector<double> widths;
  std::istringstream is(arg);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    widths.push_back(parse_number<double>("--wire-widths", tok));
  }
  if (widths.empty()) usage("empty --wire-widths");
  return widths;
}

cli_options parse(int argc, char** argv) {
  cli_options o;
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      usage(nullptr);
    } else if (a == "--mode") {
      const std::string v = need_value(i);
      if (v == "nom") {
        o.mode = layout::nom_mode();
      } else if (v == "d2d") {
        o.mode = layout::d2d_mode();
      } else if (v == "wid") {
        o.mode = layout::wid_mode();
      } else {
        usage("unknown --mode");
      }
    } else if (a == "--rule") {
      const std::string v = need_value(i);
      if (v == "2p") {
        o.rule = core::pruning_kind::two_param;
      } else if (v == "4p") {
        o.rule = core::pruning_kind::four_param;
      } else if (v == "1p") {
        o.rule = core::pruning_kind::corner;
      } else {
        usage("unknown --rule");
      }
    } else if (a == "--profile") {
      const std::string v = need_value(i);
      if (v == "homo") {
        o.profile = layout::spatial_profile::homogeneous;
      } else if (v == "hetero") {
        o.profile = layout::spatial_profile::heterogeneous;
      } else {
        usage("unknown --profile");
      }
    } else if (a == "--pbar") {
      o.pbar = parse_number<double>("--pbar", need_value(i));
    } else if (a == "--yield-percentile") {
      o.yield_percentile =
          parse_number<double>("--yield-percentile", need_value(i));
    } else if (a == "--driver-res") {
      o.driver_res = parse_number<double>("--driver-res", need_value(i));
    } else if (a == "--wire-widths") {
      o.wire_widths = parse_widths(need_value(i));
    } else if (a == "--emit-assignment") {
      o.emit_assignment = need_value(i);
    } else if (a == "--stats-json") {
      o.stats_json = need_value(i);
    } else if (a == "--generate") {
      o.generate_sinks =
          parse_number<std::size_t>("--generate", need_value(i));
    } else if (a == "--seed") {
      o.seed = parse_number<std::uint64_t>("--seed", need_value(i));
    } else if (a == "--threads") {
      o.threads = parse_number<std::size_t>("--threads", need_value(i));
      if (o.threads == 0) usage("--threads must be at least 1");
    } else if (a == "--deadline") {
      o.deadline_seconds = parse_number<double>("--deadline", need_value(i));
      if (o.deadline_seconds <= 0.0) usage("--deadline must be > 0");
    } else if (a == "--degrade") {
      const std::string v = need_value(i);
      if (v == "none") {
        o.degrade = core::degrade_policy::none;
      } else if (v == "retry") {
        o.degrade = core::degrade_policy::retry_deterministic;
      } else if (v == "partial") {
        o.degrade = core::degrade_policy::best_partial;
      } else {
        usage("unknown --degrade");
      }
    } else if (a == "--audit") {
      o.audit = true;
    } else if (a == "--batch") {
      o.batch = parse_number<std::size_t>("--batch", need_value(i));
      if (o.batch == 0) usage("--batch must be at least 1");
    } else if (a == "--journal") {
      o.journal_path = need_value(i);
    } else if (a == "--checkpoint-every") {
      o.checkpoint_every =
          parse_number<std::size_t>("--checkpoint-every", need_value(i));
      if (o.checkpoint_every == 0) usage("--checkpoint-every must be >= 1");
    } else if (a == "--resume") {
      o.resume = true;
    } else if (a == "--verify-restored") {
      o.verify_restored = true;
    } else if (!a.empty() && a[0] == '-') {
      usage(("unknown option " + a).c_str());
    } else if (o.tree_path.empty()) {
      o.tree_path = a;
    } else {
      usage("multiple tree paths");
    }
  }
  if (o.tree_path.empty() && o.generate_sinks == 0) {
    usage("need NET.tree or --generate");
  }
  if (o.batch > 1 && o.generate_sinks == 0) {
    usage("--batch needs --generate (a file is a single net)");
  }
  if ((o.resume || o.verify_restored) && o.journal_path.empty()) {
    usage("--resume/--verify-restored require --journal");
  }
  if (!o.stats_json.empty() && (o.batch > 1 || !o.journal_path.empty())) {
    usage("--stats-json is single-net mode only");
  }
  return o;
}

/// Flat JSON dump of one solve's dp_stats plus run context (the schema
/// documented in README.md). Every counter is emitted, including the
/// session-only slab-cache triple and the path counters (li_shi_nodes,
/// selection_bounded, selection_exact), so downstream tooling never has to
/// guess which fields a build knows about.
bool write_stats_json(const std::string& path, const core::stat_result& r,
                      const cli_options& cli) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\n"
     << "  \"rule\": \"" << core::to_string(cli.rule) << "\",\n"
     << "  \"mode\": \"" << layout::to_string(cli.mode) << "\",\n"
     << "  \"threads\": " << cli.threads << ",\n"
     << "  \"solve_path\": \"" << core::to_string(r.path) << "\",\n"
     << "  \"num_buffers\": " << r.num_buffers << ",\n"
     << "  \"root_rat_mean_ps\": " << r.root_rat.mean() << ",\n"
     << "  \"candidates_created\": " << r.stats.candidates_created << ",\n"
     << "  \"candidates_pruned\": " << r.stats.candidates_pruned << ",\n"
     << "  \"merge_pairs\": " << r.stats.merge_pairs << ",\n"
     << "  \"peak_list_size\": " << r.stats.peak_list_size << ",\n"
     << "  \"allocations\": " << r.stats.allocations << ",\n"
     << "  \"peak_terms\": " << r.stats.peak_terms << ",\n"
     << "  \"terms_merged\": " << r.stats.terms_merged << ",\n"
     << "  \"dominance_prefilter_hits\": "
     << r.stats.dominance_prefilter_hits << ",\n"
     << "  \"li_shi_nodes\": " << r.stats.li_shi_nodes << ",\n"
     << "  \"selection_bounded\": " << r.stats.selection_bounded << ",\n"
     << "  \"selection_exact\": " << r.stats.selection_exact << ",\n"
     << "  \"tiled_prunes\": " << r.stats.tiled_prunes << ",\n"
     << "  \"tile_prefilter_hits\": " << r.stats.tile_prefilter_hits << ",\n"
     << "  \"pairs_batched\": " << r.stats.pairs_batched << ",\n"
     << "  \"cache_hits\": " << r.stats.cache_hits << ",\n"
     << "  \"cache_misses\": " << r.stats.cache_misses << ",\n"
     << "  \"nodes_reused\": " << r.stats.nodes_reused << ",\n"
     << "  \"wall_seconds\": " << r.stats.wall_seconds << ",\n"
     << "  \"aborted\": " << (r.stats.aborted ? "true" : "false") << ",\n"
     << "  \"abort_code\": \"" << core::to_string(r.stats.abort_code)
     << "\"\n"
     << "}\n";
  return os.good();
}

// -- graceful SIGINT/SIGTERM draining ---------------------------------------

core::cancel_token g_cancel;                   // armed by the signal handler
volatile std::sig_atomic_t g_signal = 0;

void handle_signal(int sig) {
  g_signal = sig;
  // atomic<bool>::store with relaxed order; lock-free, so async-signal-safe.
  g_cancel.request_stop();
}

void install_signal_handlers() {
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
}

core::stat_options make_stat_options(const cli_options& cli) {
  core::stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = cli.driver_res;
  o.rule = cli.rule;
  o.two_param.p_load = cli.pbar;
  o.two_param.p_rat = cli.pbar;
  o.root_percentile = cli.yield_percentile;
  o.selection_percentile = cli.yield_percentile;
  o.wire_width_multipliers = cli.wire_widths;
  if (cli.rule == core::pruning_kind::four_param) {
    o.max_list_size = 200000;  // fail fast instead of exploding
    o.max_wall_seconds = 300.0;
  }
  if (cli.deadline_seconds > 0.0) o.max_wall_seconds = cli.deadline_seconds;
  o.degrade = cli.degrade;
  return o;
}

layout::process_model_config make_model_config(const cli_options& cli) {
  layout::process_model_config pm;
  pm.mode = cli.mode;
  pm.spatial.profile = cli.profile;
  return pm;
}

// -- batch / journal mode ----------------------------------------------------

int run_batch(const cli_options& cli,
              const std::optional<tree::routing_tree>& loaded) {
  const std::size_t num_jobs = cli.batch == 0 ? 1 : cli.batch;
  std::vector<core::batch_job> jobs(num_jobs);
  for (auto& job : jobs) {
    if (loaded.has_value()) {
      job.tree = &*loaded;
    } else {
      tree::random_tree_options g;
      g.num_sinks = cli.generate_sinks;
      g.die_side_um = 8000.0;
      g.criticality_balance = 0.8;
      job.generate = g;  // per-job seed derives from the solver's batch_seed
    }
    job.options = make_stat_options(cli);
    job.model = make_model_config(cli);
  }

  core::batch_solver::config cfg;
  cfg.num_threads = cli.threads;
  cfg.batch_seed = cli.seed;
  core::batch_solver solver{cfg};

  install_signal_handlers();

  std::vector<core::solve_outcome<core::batch_result>> slots;
  std::size_t restored = 0;
  bool journal_warned = false;
  if (!cli.journal_path.empty()) {
    core::batch_journal_options jopts;
    jopts.path = cli.journal_path;
    jopts.checkpoint_every_jobs = cli.checkpoint_every;
    jopts.resume = cli.resume;
    jopts.verify_restored = cli.verify_restored;
    auto outcome = solver.solve_journaled(jobs, jopts, &g_cancel);
    if (!outcome.ok()) {
      std::cerr << "vabi_cli: error: " << outcome.error().message() << "\n";
      return exit_code_for(outcome.error().code);
    }
    if (!outcome->journal_warning.empty()) {
      std::cerr << "vabi_cli: warning: " << outcome->journal_warning << "\n";
      journal_warned = true;
    }
    restored = outcome->restored;
    std::cout << "journal " << cli.journal_path << ": " << outcome->restored
              << " restored, " << outcome->solved << " solved, "
              << outcome->checkpoints << " checkpoints, "
              << outcome->journal_bytes << " bytes";
    if (outcome->dropped_tail_bytes > 0) {
      std::cout << " (dropped a torn tail of " << outcome->dropped_tail_bytes
                << " bytes)";
    }
    std::cout << "\n";
    slots = std::move(outcome->slots);
  } else {
    slots = solver.solve_outcomes(jobs, &g_cancel);
  }

  std::size_t ok = 0;
  std::size_t cancelled = 0;
  std::optional<core::solve_code> first_error;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const auto& slot = slots[i];
    if (slot.ok()) {
      ++ok;
      std::cout << "net " << i << ": ok, " << slot->result.num_buffers
                << " buffers, root RAT mean " << slot->result.root_rat.mean()
                << " ps, sigma "
                << slot->result.root_rat.stddev(slot->model.space())
                << " ps\n";
    } else if (slot.error().code == core::solve_code::cancelled) {
      ++cancelled;
    } else {
      if (!first_error.has_value()) first_error = slot.error().code;
      std::cout << "net " << i << ": " << slot.error().message() << "\n";
    }
  }
  std::cout << ok << "/" << slots.size() << " nets solved";
  if (restored > 0) std::cout << " (" << restored << " restored)";
  if (cancelled > 0) std::cout << ", " << cancelled << " cancelled";
  std::cout << "\n";

  if (cli.audit) {
    std::size_t audited = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].ok()) continue;
      const auto report = analysis::audit_solution(jobs[i], *slots[i]);
      if (!report.checked && !report.skip_reason.empty()) {
        std::cout << "audit net " << i << ": skipped (" << report.skip_reason
                  << ")\n";
        continue;
      }
      ++audited;
      if (!report.ok()) {
        std::cerr << "vabi_cli: error: audit mismatch on net " << i << ": "
                  << (!report.match ? report.mismatch : report.mc_detail)
                  << "\n";
        return exit_audit_mismatch;
      }
    }
    std::cout << "audit: " << audited
              << " solutions independently re-derived, all match\n";
  }

  if (g_signal != 0 && cancelled > 0) {
    if (!cli.journal_path.empty()) {
      std::cerr << "vabi_cli: interrupted by signal " << g_signal << "; "
                << ok << " nets journaled, rerun with --resume to continue\n";
      return exit_interrupted_resumable;
    }
    std::cerr << "vabi_cli: interrupted by signal " << g_signal << "\n";
    return exit_code_for(core::solve_code::cancelled);
  }
  if (first_error.has_value()) return exit_code_for(*first_error);
  if (cancelled > 0) return exit_code_for(core::solve_code::cancelled);
  if (journal_warned) return exit_journal_warning;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_options cli = parse(argc, argv);

  std::optional<tree::routing_tree> loaded;
  try {
    if (cli.generate_sinks > 0 && cli.batch == 0 && cli.journal_path.empty()) {
      tree::random_tree_options g;
      g.num_sinks = cli.generate_sinks;
      g.die_side_um = 8000.0;
      g.seed = cli.seed;
      g.criticality_balance = 0.8;
      loaded.emplace(tree::make_random_tree(g));
    } else if (cli.generate_sinks == 0) {
      loaded.emplace(tree::load_tree(cli.tree_path));
    }
  } catch (const std::exception& e) {
    std::cerr << "vabi_cli: error: " << e.what() << "\n";
    return 2;
  }

  // Batch / journaled mode: the batch solver owns net generation (per-job
  // seeds derive from --seed) and the journal lifecycle.
  if (cli.batch > 0 || !cli.journal_path.empty()) {
    return run_batch(cli, loaded);
  }

  tree::routing_tree& net = *loaded;

  const auto lib = timing::standard_library();
  layout::bbox die = net.bounding_box();
  die.expand({die.lo.x - 1.0, die.lo.y - 1.0});
  die.expand({die.hi.x + 1.0, die.hi.y + 1.0});

  const layout::process_model_config pm = make_model_config(cli);
  layout::process_model model{die, pm};

  const core::stat_options o = make_stat_options(cli);

  install_signal_handlers();
  const auto outcome = [&] {
    if (cli.threads > 1) {
      core::thread_pool pool{cli.threads};
      return core::solve_parallel_insertion(net, model, o, pool, &g_cancel);
    }
    return core::solve_statistical_insertion(net, model, o, &g_cancel);
  }();
  if (!outcome.ok()) {
    std::cerr << "vabi_cli: error: " << outcome.error().message() << "\n";
    return exit_code_for(outcome.error().code);
  }
  const core::stat_result& r = *outcome;

  const auto& space = model.space();
  std::cout << "net: " << net.num_sinks() << " sinks, "
            << net.num_buffer_positions() << " positions, "
            << net.total_wire_um() / 1000.0 << " mm wire\n";
  std::cout << "mode " << layout::to_string(cli.mode) << ", rule "
            << core::to_string(cli.rule) << ", profile "
            << layout::to_string(cli.profile) << "\n";
  if (r.path != core::solve_path::primary) {
    std::cout << "degraded: answer produced by " << core::to_string(r.path)
              << "\n";
  }
  std::cout << "buffers: " << r.num_buffers;
  if (o.wire_width_multipliers.size() > 1) {
    std::cout << ", widened edges: " << r.wires.count_nondefault();
  }
  std::cout << "\n";
  std::cout << "root RAT: mean " << r.root_rat.mean() << " ps, sigma "
            << r.root_rat.stddev(space) << " ps, 95%-yield "
            << analysis::yield_rat(r.root_rat, space) << " ps\n";
  std::cout << "runtime " << r.stats.wall_seconds << " s, "
            << r.stats.candidates_created << " candidates, peak list "
            << r.stats.peak_list_size << "\n";
  const auto vb = analysis::decompose_variance(r.root_rat, space);
  if (vb.total() > 0.0) {
    std::cout << "variance by class: random "
              << 100.0 * vb.fraction(vb.random_device) << "%, spatial "
              << 100.0 * vb.fraction(vb.spatial) << "%, inter-die "
              << 100.0 * vb.fraction(vb.inter_die) << "%\n";
  }

  if (cli.audit) {
    const auto report = analysis::audit_solution(
        net, o, pm, die, model.space().size(), r);
    if (!report.checked) {
      std::cout << "audit: skipped (" << report.skip_reason << ")\n";
    } else if (!report.ok()) {
      std::cerr << "vabi_cli: error: audit mismatch: "
                << (!report.match ? report.mismatch : report.mc_detail)
                << "\n";
      return exit_audit_mismatch;
    } else {
      std::cout << "audit: root RAT form independently re-derived, "
                << r.root_rat.terms().size() << " terms match";
      if (report.mc_checked) {
        std::cout << "; MC spot check (" << 64 << " samples): mean "
                  << report.mc_mean_ps << " vs model " << report.model_mean_ps
                  << " ps, KS " << report.ks_distance;
      }
      std::cout << "\n";
    }
  }

  if (!cli.stats_json.empty()) {
    if (!write_stats_json(cli.stats_json, r, cli)) {
      std::cerr << "cannot write " << cli.stats_json << "\n";
      return 1;
    }
    std::cout << "stats written to " << cli.stats_json << "\n";
  }

  if (!cli.emit_assignment.empty()) {
    std::ofstream os(cli.emit_assignment);
    if (!os) {
      std::cerr << "cannot open " << cli.emit_assignment << "\n";
      return 1;
    }
    for (tree::node_id id = 0; id < net.num_nodes(); ++id) {
      if (r.assignment.has_buffer(id)) {
        os << id << ' ' << lib[r.assignment.buffer(id)].name;
        if (o.wire_width_multipliers.size() > 1) {
          os << ' ' << r.wires.width(id);
        }
        os << '\n';
      }
    }
    std::cout << "assignment written to " << cli.emit_assignment << "\n";
  }
  return 0;
}
