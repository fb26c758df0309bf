// eco_fuzz -- incremental-consistency fuzzer for the ECO solve_session.
//
// Generates seeded random trees, drives each through a stream of random
// edits (sink moves, RAT retargets, wire resizes, a subtree pruned and
// grafted back within one step, and a twin swap: one sink made identical to
// another under a different parent, then the two exchanged with the child
// orders restored, which leaves every subtree content hash as it was), and
// after every edit requires the session's warm incremental re-solve to be
// bit-identical to a cache-bypassing cold solve of the same edited tree:
// equal root-RAT form hashes and the same design (buffer assignment, wire
// widths, buffer count). Trees rotate through the 2P mean rule, the 2P rule
// at p = 0.9 with the wire-width menu {0.7, 1, 1.4} (the only one of the
// three the tiled prune serves) and the corner rule. CI and the nightly
// workflow run it under VABI_FORCE_PRUNE=tiled (nightly also under
// VABI_FORCE_KERNEL=scalar), so every p = 0.9 prune takes the tiled sweep;
// each tree's line reports how many did, and how many twin swaps ran.
//
// Before every solve, a tree that reads `checked()` must keep that promise
// (validate() passes and every node, detached ones included, holds finite
// solve inputs), since the solves skip their whole-tree entry checks on it.
// Each tree's line reports how many solves ran those checks; make_twin
// writes a sink cap through node(), so the solves after it must be among
// them.
//
//   eco_fuzz [--trees N] [--edits M] [--sinks S] [--seed X]
//            [--fail-script PATH]
//
// On a mismatch, a broken checked() promise or any unexpected solve failure,
// the full edit script that led to it is written to --fail-script (default
// failing_edits.txt) so the exact sequence can be replayed, and the exit
// code is 1.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/slab_cache.hpp"
#include "core/solve_status.hpp"
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

/// Prunes `n` and grafts it back under `parent` with wire `um`.
void regraft(tree::routing_tree& t, tree::node_id n, tree::node_id parent,
             double um) {
  t.apply_edit(tree::tree_edit::prune_subtree(n));
  t.apply_edit(tree::tree_edit::graft_subtree(n, parent, um));
}

/// Two sinks of equal content under different parents, made so by the
/// previous edit and swapped by the next one.
struct twin_pair {
  tree::node_id a = tree::invalid_node;
  tree::node_id b = tree::invalid_node;
};

/// The twin swap's first step: picks sinks a and b under different parents
/// pa and pb (pb < a and pa < b, so each can be grafted under the other's
/// parent) and gives b a's location, wire, RAT and cap. The solve after it
/// caches both parents' lists; the next edit swaps the twins. nullopt (and
/// no edit) when no pair fits.
std::optional<twin_pair> make_twin(tree::routing_tree& t, std::mt19937_64& rng,
                                   std::ostringstream& line) {
  const tree::routing_tree& view = t;
  const auto sinks = view.sinks();
  const tree::node_id a = sinks[rng() % sinks.size()];
  const tree::node_id pa = view.node(a).parent;
  std::vector<tree::node_id> partners;
  for (const tree::node_id b : sinks) {
    const tree::node_id pb = view.node(b).parent;
    if (pb != pa && pb < a && pa < b) partners.push_back(b);
  }
  if (partners.empty()) return std::nullopt;
  const tree::node_id b = partners[rng() % partners.size()];
  const layout::point at = view.node(a).location;
  const double um = view.node(a).parent_wire_um;
  const double rat = view.node(a).sink_rat_ps;
  const double cap = view.node(a).sink_cap_pf;
  t.apply_edit(tree::tree_edit::move_sink(b, at, um));
  t.apply_edit(tree::tree_edit::retarget_rat(b, rat));
  t.node(b).sink_cap_pf = cap;  // no edit op sets a cap
  line << "make_twin " << b << " of " << a << ": move_sink " << b << ' '
       << at.x << ' ' << at.y << ' ' << um << ", retarget_rat " << b << ' '
       << rat << ", sink_cap_pf " << cap;
  return twin_pair{a, b};
}

/// The twin swap's second step: a and b exchange parents, and each parent's
/// later children are re-grafted so both child orders read as before. Every
/// subtree content hash comes back unchanged, while a and b, whose device
/// forms differ, have changed places.
void swap_twins(tree::routing_tree& t, const twin_pair& twins,
                std::ostringstream& line) {
  const tree::routing_tree& view = t;
  const tree::node_id a = twins.a;
  const tree::node_id b = twins.b;
  const tree::node_id pa = view.node(a).parent;
  const tree::node_id pb = view.node(b).parent;
  const double um = view.node(a).parent_wire_um;
  // Each parent's children after its twin, with their wires.
  const auto later = [&view](tree::node_id p, tree::node_id twin) {
    std::vector<std::pair<tree::node_id, double>> out;
    const auto& kids = view.node(p).children;
    for (auto it = std::find(kids.begin(), kids.end(), twin) + 1;
         it != kids.end(); ++it) {
      out.emplace_back(*it, view.node(*it).parent_wire_um);
    }
    return out;
  };
  const auto after_a = later(pa, a);
  const auto after_b = later(pb, b);
  t.apply_edit(tree::tree_edit::prune_subtree(a));
  t.apply_edit(tree::tree_edit::prune_subtree(b));
  t.apply_edit(tree::tree_edit::graft_subtree(a, pb, um));
  t.apply_edit(tree::tree_edit::graft_subtree(b, pa, um));
  for (const auto& [n, w] : after_a) regraft(t, n, pa, w);
  for (const auto& [n, w] : after_b) regraft(t, n, pb, w);
  line << "swap_twins " << a << ' ' << b << ": " << a << " under " << pb
       << ", " << b << " under " << pa << ", wire " << um
       << ", later siblings re-grafted in order";
}

/// One random edit -- or, right after make_twin, the swap of its twins;
/// appends its replayable description to `script`.
void random_edit(tree::routing_tree& t, std::mt19937_64& rng,
                 double die_side_um, std::vector<std::string>& script,
                 std::optional<twin_pair>& twins) {
  const tree::routing_tree& view = t;  // reads keep the hashes warm
  const auto sinks = view.sinks();
  std::uniform_int_distribution<std::size_t> pick_sink(0, sinks.size() - 1);
  std::uniform_int_distribution<tree::node_id> pick_node(
      1, static_cast<tree::node_id>(view.num_nodes() - 1));
  std::uniform_real_distribution<double> coord(0.0, die_side_um);
  std::ostringstream line;
  if (twins.has_value()) {
    swap_twins(t, *twins, line);
    twins.reset();
    script.push_back(line.str());
    return;
  }
  switch (rng() % 5) {
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
      const double rat = view.node(s).sink_rat_ps + delta(rng);
      t.apply_edit(tree::tree_edit::retarget_rat(s, rat));
      line << "retarget_rat " << s << ' ' << rat;
      break;
    }
    case 2: {
      const tree::node_id n = pick_node(rng);
      std::uniform_real_distribution<double> len(1.0, 600.0);
      const double um = len(rng);
      t.apply_edit(tree::tree_edit::resize_wire(n, um));
      line << "resize_wire " << n << ' ' << um;
      break;
    }
    case 3:
      twins = make_twin(t, rng, line);
      if (twins.has_value()) break;
      [[fallthrough]];
    default: {
      // Prune a subtree and graft it back: under its old parent (after its
      // siblings, same wire) or, when the old parent keeps another child,
      // under a lower-numbered Steiner node. Every node under n has a larger
      // id than n, so no such node is inside the pruned subtree.
      const tree::node_id n = pick_node(rng);
      const tree::node_id from = view.node(n).parent;
      tree::node_id to = from;
      double um = view.node(n).parent_wire_um;
      if (view.node(from).children.size() > 1 && rng() % 2 == 0) {
        std::vector<tree::node_id> steiner;
        for (tree::node_id m = 1; m < n; ++m) {
          if (view.node(m).kind == tree::node_kind::steiner &&
              !view.node(m).detached) {
            steiner.push_back(m);
          }
        }
        if (!steiner.empty()) {
          to = steiner[rng() % steiner.size()];
          um = -1.0;  // Manhattan to the new parent
        }
      }
      t.apply_edit(tree::tree_edit::prune_subtree(n));
      t.apply_edit(tree::tree_edit::graft_subtree(n, to, um));
      line << "prune_graft " << n << ' ' << to << ' ' << um;
      break;
    }
  }
  script.push_back(line.str());
}

/// Empty when the two results place the same design: the same buffer (and
/// type) at every node, the same width on every edge, the same count;
/// otherwise the first difference.
std::string design_mismatch(const core::stat_result& warm,
                            const core::stat_result& cold) {
  if (warm.num_buffers != cold.num_buffers) {
    return "warm num_buffers " + std::to_string(warm.num_buffers) +
           " != cold " + std::to_string(cold.num_buffers);
  }
  const auto& wa = warm.assignment;
  const auto& ca = cold.assignment;
  if (wa.num_nodes() != ca.num_nodes() ||
      warm.wires.num_nodes() != cold.wires.num_nodes()) {
    return "warm and cold designs cover different node counts";
  }
  for (tree::node_id n = 0; n < wa.num_nodes(); ++n) {
    if (wa.has_buffer(n) != ca.has_buffer(n) ||
        (wa.has_buffer(n) && wa.buffer(n) != ca.buffer(n))) {
      return "warm and cold buffers differ at node " + std::to_string(n);
    }
    if (warm.wires.width(n) != cold.wires.width(n)) {
      return "warm and cold wire widths differ above node " +
             std::to_string(n);
    }
  }
  return {};
}

/// Empty when `t` keeps the promise of checked(): validate() passes (or no
/// attached sink is left) and every node, detached ones included, holds
/// finite solve inputs. Otherwise what broke it.
std::string broken_check_promise(const tree::routing_tree& t) {
  if (!t.checked()) return {};
  try {
    t.validate();
  } catch (const std::exception& e) {
    if (t.num_sinks() != 0) {
      return std::string("checked tree fails validate(): ") + e.what();
    }
  }
  for (const tree::tree_node& n : t.nodes()) {
    if (!n.inputs_finite()) {
      return "checked tree holds a non-finite input at node " +
             std::to_string(n.id);
    }
  }
  return {};
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
    if (ti % 3 == 1) {
      // Wire sizing fans every candidate out into three widths at its edge
      // step, so cached lists went through that fan-out and its prune.
      so.two_param.p_load = 0.9;
      so.two_param.p_rat = 0.9;
      so.wire_width_multipliers = {0.7, 1.0, 1.4};
    }
    so.li_shi =
        ti % 2 == 0 ? core::li_shi_mode::always : core::li_shi_mode::never;
    const std::string rule = ti % 3 == 1 ? "2P p=0.9, 3 widths"
                                         : core::to_string(so.rule);

    std::vector<std::string> script;
    std::size_t solves = 0;
    std::size_t full_checks = 0;
    std::size_t full_checks_after_twin = 0;
    // Counts the next solve of t (and whether it runs the whole-tree entry
    // checks); a broken checked() promise fails the tree.
    const auto before_solve = [&] {
      ++solves;
      if (core::runs_entry_checks(t)) ++full_checks;
      return broken_check_promise(t);
    };
    if (const std::string why = before_solve(); !why.empty()) {
      return dump_failure(o, ti, tree_seed, why.c_str(), script);
    }
    const auto first = session.solve(t, so);
    if (!first.ok()) {
      return dump_failure(o, ti, tree_seed, core::to_string(first.code()),
                          script);
    }

    std::size_t tiled_prunes = first->stats.tiled_prunes;
    auto rng = stats::make_rng(tree_seed, 97);
    std::optional<twin_pair> twins;
    for (std::size_t e = 0; e < o.edits; ++e) {
      random_edit(t, rng, die_side_um, script, twins);
      if (twins.has_value()) {
        // make_twin wrote a cap through node(): both solves below must run
        // the full entry checks.
        if (!core::runs_entry_checks(t)) {
          return dump_failure(o, ti, tree_seed,
                              "make_twin's node() write left the tree checked",
                              script);
        }
        full_checks_after_twin += 2;
      }
      if (const std::string why = before_solve(); !why.empty()) {
        return dump_failure(o, ti, tree_seed, why.c_str(), script);
      }
      const auto warm = session.solve(t, so);
      if (!warm.ok()) {
        return dump_failure(o, ti, tree_seed, core::to_string(warm.code()),
                            script);
      }
      if (const std::string why = before_solve(); !why.empty()) {
        return dump_failure(o, ti, tree_seed, why.c_str(), script);
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
      const std::string design = design_mismatch(*warm, *cold);
      if (!design.empty()) {
        return dump_failure(o, ti, tree_seed, design.c_str(), script);
      }
      tiled_prunes += warm->stats.tiled_prunes + cold->stats.tiled_prunes;
    }
    const auto swaps = std::count_if(
        script.begin(), script.end(),
        [](const std::string& line) { return line.starts_with("swap_twins"); });
    std::cout << "tree " << ti << " (" << rule << ", " << o.edits
              << " edits): warm == cold after every edit, "
              << session.cached_nodes() << " nodes cached, " << tiled_prunes
              << " tiled prunes, " << swaps << " twin swaps, full entry check "
              << "on " << full_checks << " of " << solves << " solves ("
              << full_checks_after_twin << " after a make_twin)\n";
  }
  std::cout << "eco_fuzz: " << o.trees << " trees x " << o.edits
            << " edits, all incremental re-solves bit-identical (root RAT and "
               "design)\n";
  return 0;
}
