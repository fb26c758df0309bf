// eco_fuzz -- incremental-consistency fuzzer for the ECO solve_session.
//
// Generates seeded random trees, drives each through a stream of random
// edits (sink moves, RAT retargets, wire resizes), and after every edit
// requires the session's warm incremental re-solve to be bit-identical --
// equal root-RAT form hashes -- to a cache-bypassing cold solve of the same
// edited tree. The nightly workflow runs this under VABI_FORCE_KERNEL=scalar
// and VABI_FORCE_PRUNE=tiled, the engine's least-exercised corner.
//
//   eco_fuzz [--trees N] [--edits M] [--sinks S] [--seed X]
//            [--fail-script PATH]
//
// On a mismatch (or any unexpected solve failure) the full edit script that
// led to it is written to --fail-script (default failing_edits.txt) so the
// exact sequence can be replayed, and the exit code is 1.
#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/slab_cache.hpp"
#include "core/statistical_dp.hpp"
#include "stats/rng.hpp"
#include "tree/generators.hpp"

namespace {

using namespace vabi;

struct fuzz_options {
  std::size_t trees = 8;
  std::size_t edits = 25;
  std::size_t sinks = 200;
  std::uint64_t seed = 1;
  std::string fail_script = "failing_edits.txt";
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::cerr << "eco_fuzz: " << msg << "\n";
  std::cerr << "usage: eco_fuzz [--trees N] [--edits M] [--sinks S]\n"
               "                [--seed X] [--fail-script PATH]\n";
  std::exit(1);
}

/// Parses all of `text` as the value of numeric `option`; an empty,
/// partial, negative or out-of-range value is a usage error.
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

fuzz_options parse(int argc, char** argv) {
  fuzz_options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (a == "--trees") {
      o.trees = parse_number<std::size_t>("--trees", value());
    } else if (a == "--edits") {
      o.edits = parse_number<std::size_t>("--edits", value());
    } else if (a == "--sinks") {
      o.sinks = parse_number<std::size_t>("--sinks", value());
    } else if (a == "--seed") {
      o.seed = parse_number<std::uint64_t>("--seed", value());
    } else if (a == "--fail-script") {
      o.fail_script = value();
    } else if (a == "--help" || a == "-h") {
      usage(nullptr);
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.trees == 0 || o.edits == 0 || o.sinks < 2) {
    usage("--trees/--edits must be >= 1, --sinks >= 2");
  }
  return o;
}

layout::process_model make_model(const tree::routing_tree& t) {
  layout::process_model_config c;
  c.mode = layout::wid_mode();
  layout::bbox die = t.bounding_box();
  die.expand({die.lo.x - 200.0, die.lo.y - 200.0});
  die.expand({die.hi.x + 200.0, die.hi.y + 200.0});
  return layout::process_model{die, c};
}

/// One random edit; appends its replayable description to `script`.
void random_edit(tree::routing_tree& t, std::mt19937_64& rng,
                 double die_side_um, std::vector<std::string>& script) {
  const auto sinks = t.sinks();
  std::uniform_int_distribution<std::size_t> pick_sink(0, sinks.size() - 1);
  std::uniform_real_distribution<double> coord(0.0, die_side_um);
  std::ostringstream line;
  switch (rng() % 3) {
    case 0: {
      const tree::node_id s = sinks[pick_sink(rng)];
      const layout::point to{coord(rng), coord(rng)};
      t.apply_edit(tree::tree_edit::move_sink(s, to));
      line << "move_sink " << s << ' ' << to.x << ' ' << to.y;
      break;
    }
    case 1: {
      const tree::node_id s = sinks[pick_sink(rng)];
      std::uniform_real_distribution<double> delta(-250.0, 250.0);
      const double rat = t.node(s).sink_rat_ps + delta(rng);
      t.apply_edit(tree::tree_edit::retarget_rat(s, rat));
      line << "retarget_rat " << s << ' ' << rat;
      break;
    }
    default: {
      std::uniform_int_distribution<tree::node_id> pick_node(
          1, static_cast<tree::node_id>(t.num_nodes() - 1));
      const tree::node_id n = pick_node(rng);
      std::uniform_real_distribution<double> len(1.0, 600.0);
      const double um = len(rng);
      t.apply_edit(tree::tree_edit::resize_wire(n, um));
      line << "resize_wire " << n << ' ' << um;
      break;
    }
  }
  script.push_back(line.str());
}

int dump_failure(const fuzz_options& o, std::size_t tree_index,
                 std::uint64_t tree_seed, const char* why,
                 const std::vector<std::string>& script) {
  std::cerr << "eco_fuzz: FAILURE on tree " << tree_index << " (seed "
            << tree_seed << "): " << why << "\n";
  std::ofstream os(o.fail_script);
  if (os) {
    os << "# eco_fuzz failing edit script\n"
       << "# seed " << o.seed << " tree " << tree_index << " tree_seed "
       << tree_seed << " sinks " << o.sinks << "\n"
       << "# failure: " << why << "\n";
    for (const auto& line : script) os << line << '\n';
    std::cerr << "eco_fuzz: edit script written to " << o.fail_script << "\n";
  } else {
    std::cerr << "eco_fuzz: cannot write " << o.fail_script << "\n";
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const fuzz_options o = parse(argc, argv);
  constexpr double die_side_um = 8000.0;

  for (std::size_t ti = 0; ti < o.trees; ++ti) {
    const std::uint64_t tree_seed = o.seed * 1000 + ti;
    tree::random_tree_options g;
    g.num_sinks = o.sinks;
    g.die_side_um = die_side_um;
    g.seed = tree_seed;
    auto t = tree::make_random_tree(g);

    auto model = make_model(t);
    core::solve_session session{model};
    core::stat_options so;
    so.library = timing::standard_library();
    so.driver_res_ohm = 150.0;
    // Alternate the engines and the Li-Shi path across trees so one run
    // covers the full rule x frontier matrix.
    so.rule = ti % 3 == 2 ? core::pruning_kind::corner
                          : core::pruning_kind::two_param;
    so.li_shi =
        ti % 2 == 0 ? core::li_shi_mode::always : core::li_shi_mode::never;

    std::vector<std::string> script;
    const auto first = session.solve(t, so);
    if (!first.ok()) {
      return dump_failure(o, ti, tree_seed, core::to_string(first.code()),
                          script);
    }

    auto rng = stats::make_rng(tree_seed, 97);
    for (std::size_t e = 0; e < o.edits; ++e) {
      random_edit(t, rng, die_side_um, script);
      const auto warm = session.solve(t, so);
      if (!warm.ok()) {
        return dump_failure(o, ti, tree_seed, core::to_string(warm.code()),
                            script);
      }
      const auto cold = session.solve_cold(t, so);
      if (!cold.ok()) {
        return dump_failure(o, ti, tree_seed, core::to_string(cold.code()),
                            script);
      }
      if (core::form_hash(warm->root_rat) != core::form_hash(cold->root_rat)) {
        return dump_failure(o, ti, tree_seed,
                            "warm root RAT hash != cold root RAT hash",
                            script);
      }
    }
    std::cout << "tree " << ti << " (" << core::to_string(so.rule) << ", "
              << o.edits << " edits): warm == cold after every edit, "
              << session.cached_nodes() << " nodes cached\n";
  }
  std::cout << "eco_fuzz: " << o.trees << " trees x " << o.edits
            << " edits, all incremental re-solves bit-identical\n";
  return 0;
}
