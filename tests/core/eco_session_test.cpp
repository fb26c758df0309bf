// ECO session (core/slab_cache.hpp) differential tests: warm incremental
// re-solves must be bit-identical to cache-bypassing cold solves across the
// 2P / 4P / corner engines, li_shi modes, yield-driven selection, the tiled
// prune, wire sizing and term pruning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/slab_cache.hpp"
#include "core/statistical_dp.hpp"
#include "testing/fault_injection.hpp"
#include "tree/generators.hpp"
#include "solved_test_util.hpp"

namespace vabi::core {
namespace {

using testutil::solved;

layout::process_model make_wid_model(const tree::routing_tree& t) {
  layout::process_model_config c;
  c.mode = layout::wid_mode();
  layout::bbox die = t.bounding_box();
  die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
  return layout::process_model{die, c};
}

stat_options base_options(pruning_kind rule, li_shi_mode ls) {
  stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  o.rule = rule;
  o.li_shi = ls;
  o.max_candidates = 4'000'000;  // keeps 4P bounded on its small tree
  return o;
}

tree::routing_tree make_tree(pruning_kind rule, std::uint64_t seed) {
  tree::random_tree_options to;
  // 4P is the O(N^2)-prune baseline; keep its tree small, the others real.
  to.num_sinks = rule == pruning_kind::four_param ? 10 : 150;
  to.die_side_um = 8000.0;
  to.seed = seed;
  return tree::make_random_tree(to);
}

void expect_same_result(const stat_result& a, const stat_result& b) {
  EXPECT_TRUE(a.root_rat == b.root_rat);
  EXPECT_EQ(form_hash(a.root_rat), form_hash(b.root_rat));
  EXPECT_EQ(a.num_buffers, b.num_buffers);
  ASSERT_EQ(a.assignment.num_nodes(), b.assignment.num_nodes());
  for (tree::node_id n = 0; n < a.assignment.num_nodes(); ++n) {
    ASSERT_EQ(a.assignment.has_buffer(n), b.assignment.has_buffer(n)) << n;
    if (a.assignment.has_buffer(n)) {
      EXPECT_EQ(a.assignment.buffer(n), b.assignment.buffer(n)) << n;
    }
  }
  ASSERT_EQ(a.wires.num_nodes(), b.wires.num_nodes());
  for (tree::node_id n = 0; n < a.wires.num_nodes(); ++n) {
    EXPECT_EQ(a.wires.width(n), b.wires.width(n)) << n;
  }
}

// Applies a small ECO: move one sink and retarget another's RAT.
void apply_eco(tree::routing_tree& t) {
  const auto sinks = t.sinks();
  ASSERT_GE(sinks.size(), 2u);
  const tree::node_id a = sinks[sinks.size() / 3];
  const tree::node_id b = sinks[(2 * sinks.size()) / 3];
  const layout::point p = t.node(a).location;
  t.apply_edit(tree::tree_edit::move_sink(a, {p.x + 150.0, p.y - 90.0}));
  t.apply_edit(tree::tree_edit::retarget_rat(b, t.node(b).sink_rat_ps - 37.0));
}

struct eco_case {
  pruning_kind rule;
  li_shi_mode li_shi;
  /// Names an option variant applied by configure(); empty for the rule's
  /// defaults.
  std::string variant;
};

// "/t0" names the serial session driver; it stays in every case name so the
// names of the default-option cases do not change.
std::ostream& operator<<(std::ostream& os, const eco_case& c) {
  os << to_string(c.rule) << "/t0/li_shi=" << static_cast<int>(c.li_shi);
  if (!c.variant.empty()) os << "/" << c.variant;
  return os;
}

stat_options configure(const eco_case& c) {
  stat_options o = base_options(c.rule, c.li_shi);
  if (c.variant == "sel05") {
    o.selection_percentile = 0.05;  // what eco_session runs
  } else if (c.variant == "p90_tiled") {
    o.two_param.p_load = 0.9;
    o.two_param.p_rat = 0.9;
  } else if (c.variant == "widths") {
    o.wire_width_multipliers = {0.7, 1.0, 1.4};
  } else if (c.variant == "term_eps") {
    o.term_prune_rel_eps = 1e-9;
  }
  return o;
}

class EcoDifferential : public ::testing::TestWithParam<eco_case> {};

TEST_P(EcoDifferential, WarmSolveAfterEditIsBitIdenticalToCold) {
  const eco_case c = GetParam();
  // Every p = 0.9 prune tiled: the sweeps gather planes from adopted views
  // that borrow cached slabs.
  std::optional<testutil::prune_guard> tiled;
  if (c.variant == "p90_tiled") tiled.emplace(+1);
  auto t = make_tree(c.rule, 501);
  auto model = make_wid_model(t);
  const auto options = configure(c);

  solve_session session(model);
  const auto first = session.solve(t, options);
  ASSERT_TRUE(first.ok()) << to_string(first.code());
  EXPECT_EQ(first.value().stats.cache_hits, 0u);
  EXPECT_GT(session.cached_nodes(), 0u);

  apply_eco(t);

  const auto warm = session.solve(t, options);
  ASSERT_TRUE(warm.ok()) << to_string(warm.code());
  EXPECT_GT(warm.value().stats.cache_hits, 0u);
  EXPECT_GT(warm.value().stats.nodes_reused, 0u);
  EXPECT_LT(warm.value().stats.cache_misses, t.num_nodes());
  if (c.variant == "p90_tiled") {
    EXPECT_GT(warm.value().stats.tiled_prunes, 0u);
  }

  const auto cold = session.solve_cold(t, options);
  ASSERT_TRUE(cold.ok()) << to_string(cold.code());
  EXPECT_EQ(cold.value().stats.cache_hits, 0u);
  expect_same_result(warm.value(), cold.value());
}

INSTANTIATE_TEST_SUITE_P(
    RulesThreadsLiShi, EcoDifferential,
    ::testing::Values(
        eco_case{pruning_kind::two_param, li_shi_mode::never, ""},
        eco_case{pruning_kind::two_param, li_shi_mode::always, ""},
        eco_case{pruning_kind::two_param, li_shi_mode::automatic, "sel05"},
        eco_case{pruning_kind::two_param, li_shi_mode::automatic,
                 "p90_tiled"},
        eco_case{pruning_kind::two_param, li_shi_mode::automatic, "widths"},
        eco_case{pruning_kind::two_param, li_shi_mode::automatic, "term_eps"},
        eco_case{pruning_kind::corner, li_shi_mode::automatic, ""},
        eco_case{pruning_kind::four_param, li_shi_mode::automatic, ""}));

TEST(EcoSession, FirstSolveMatchesOneShotEngine) {
  const auto t = make_tree(pruning_kind::two_param, 91);
  const auto options = base_options(pruning_kind::two_param,
                                    li_shi_mode::automatic);

  auto m1 = make_wid_model(t);
  solve_session session(m1);
  const auto s = session.solve(t, options);
  ASSERT_TRUE(s.ok());

  auto m2 = make_wid_model(t);
  const auto one_shot = solved(solve_statistical_insertion(t, m2, options));
  expect_same_result(s.value(), one_shot);
  // One-shot entry points never touch a cache.
  EXPECT_EQ(one_shot.stats.cache_hits, 0u);
  EXPECT_EQ(one_shot.stats.cache_misses, 0u);
  EXPECT_EQ(one_shot.stats.nodes_reused, 0u);
}

TEST(EcoSession, UneditedResolveIsAFullHit) {
  const auto t = make_tree(pruning_kind::two_param, 92);
  auto model = make_wid_model(t);
  solve_session session(model);
  const auto options = base_options(pruning_kind::two_param,
                                    li_shi_mode::automatic);

  const auto first = session.solve(t, options);
  ASSERT_TRUE(first.ok());
  const auto again = session.solve(t, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().stats.cache_misses, 0u);
  EXPECT_GT(again.value().stats.cache_hits, 0u);
  // A full hit adopts at the root, covering every node.
  EXPECT_EQ(again.value().stats.nodes_reused, t.num_nodes());
  EXPECT_EQ(again.value().stats.cache_hits, 1u);
  expect_same_result(first.value(), again.value());
}

TEST(EcoSession, OptionChangeFlushesTheCache) {
  const auto t = make_tree(pruning_kind::two_param, 93);
  auto model = make_wid_model(t);
  solve_session session(model);
  auto options = base_options(pruning_kind::two_param, li_shi_mode::automatic);

  ASSERT_TRUE(session.solve(t, options).ok());
  EXPECT_GT(session.cached_nodes(), 0u);

  options.selection_percentile = 0.05;
  const auto r = session.solve(t, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats.cache_hits, 0u);  // fingerprint change = flush

  auto m2 = make_wid_model(t);
  const auto fresh = solved(solve_statistical_insertion(t, m2, options));
  expect_same_result(r.value(), fresh);
}

TEST(EcoSession, CancelledSolveLeavesReusableState) {
  const auto t = make_tree(pruning_kind::two_param, 94);
  auto model = make_wid_model(t);
  solve_session session(model);
  const auto options = base_options(pruning_kind::two_param,
                                    li_shi_mode::automatic);

  cancel_token cancel;
  cancel.request_stop();
  const auto aborted = session.solve(t, options, &cancel);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.code(), solve_code::cancelled);

  const auto clean = session.solve(t, options);
  ASSERT_TRUE(clean.ok());
  const auto cold = session.solve_cold(t, options);
  ASSERT_TRUE(cold.ok());
  expect_same_result(clean.value(), cold.value());
}

TEST(EcoSession, ResetDropsEverything) {
  auto t = make_tree(pruning_kind::two_param, 95);
  auto model = make_wid_model(t);
  solve_session session(model);
  const auto options = base_options(pruning_kind::two_param,
                                    li_shi_mode::automatic);
  ASSERT_TRUE(session.solve(t, options).ok());
  ASSERT_GT(session.cached_nodes(), 0u);
  session.reset();
  EXPECT_EQ(session.cached_nodes(), 0u);
  const auto r = session.solve(t, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().stats.cache_hits, 0u);
}

// A solve that re-characterizes a moved sink but stores nothing on its root
// path -- solve_cold, or a session solve cancelled before its first node --
// must still retire the entries built on the sink's replaced device forms:
// undoing the move restores their hashes, and the next warm solve must not
// adopt them.
TEST(EcoSession, UndoAfterColdOrAbortedSolveMatchesCold) {
  tree::random_tree_options to;
  to.num_sinks = 100;
  to.die_side_um = 12000.0;
  to.seed = 53;
  const auto options = base_options(pruning_kind::two_param,
                                    li_shi_mode::automatic);
  for (const bool aborted : {false, true}) {
    SCOPED_TRACE(aborted ? "aborted solve" : "solve_cold");
    auto t = tree::make_random_tree(to);
    auto model = make_wid_model(t);
    solve_session session(model);
    const auto first = session.solve(t, options);
    ASSERT_TRUE(first.ok());

    std::vector<tree::node_id> buffered;
    for (const tree::node_id s : t.sinks()) {
      if (first.value().assignment.has_buffer(s)) buffered.push_back(s);
    }
    if (buffered.size() > 5) buffered.resize(5);
    ASSERT_FALSE(buffered.empty());

    cancel_token stopped;
    stopped.request_stop();
    for (const tree::node_id s : buffered) {
      SCOPED_TRACE(s);
      const layout::point at = t.node(s).location;
      const double wire = t.node(s).parent_wire_um;
      t.apply_edit(tree::tree_edit::move_sink(s, {at.x + 150.0, at.y - 90.0}));
      if (aborted) {
        const auto r = session.solve(t, options, &stopped);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.code(), solve_code::cancelled);
      } else {
        ASSERT_TRUE(session.solve_cold(t, options).ok());
      }
      t.apply_edit(tree::tree_edit::move_sink(s, at, wire));

      const auto warm = session.solve(t, options);
      const auto cold = session.solve_cold(t, options);
      ASSERT_TRUE(warm.ok());
      ASSERT_TRUE(cold.ok());
      expect_same_result(warm.value(), cold.value());
    }
  }
}

// Sessions across structural edits: pruning a subtree and grafting it back
// re-solves only the edited root path, and every attached node is either
// reused or solved.
TEST(EcoSession, PruneAndGraftBackMatchCold) {
  const auto options = base_options(pruning_kind::two_param,
                                    li_shi_mode::automatic);
  for (const std::uint64_t seed : {61u, 62u, 63u, 64u}) {
    SCOPED_TRACE(seed);
    auto t = make_tree(pruning_kind::two_param, seed);
    auto model = make_wid_model(t);
    solve_session session(model);
    ASSERT_TRUE(session.solve(t, options).ok());

    const auto check = [&] {
      const auto warm = session.solve(t, options);
      ASSERT_TRUE(warm.ok());
      const auto& s = warm.value().stats;
      EXPECT_GT(s.cache_hits, 0u);
      EXPECT_EQ(s.nodes_reused + s.cache_misses,
                t.num_nodes() - t.num_detached());
      const auto cold = session.solve_cold(t, options);
      ASSERT_TRUE(cold.ok());
      expect_same_result(warm.value(), cold.value());
    };

    // A non-root internal node's subtree, re-attached under its own parent.
    const tree::node_id parent = t.node(t.sinks()[seed % 7]).parent;
    ASSERT_NE(parent, t.root());
    const tree::node_id grand = t.node(parent).parent;
    const double wire = t.node(parent).parent_wire_um;
    t.apply_edit(tree::tree_edit::prune_subtree(parent));
    ASSERT_GT(t.num_detached(), 0u);
    check();
    t.apply_edit(tree::tree_edit::graft_subtree(parent, grand, wire));
    EXPECT_EQ(t.num_detached(), 0u);
    check();
  }
}

// A sink re-characterized while it hangs under a foreign parent was built
// into the entries on its former parent's root path, which the
// re-characterizing solve cannot reach: its root path now runs through the
// foreign parent. Grafting it back under the old parent, in the old child
// order, restores those entries' hashes, and the next warm solve must not
// adopt them.
TEST(EcoSession, RecharacterizedUnderForeignParentMatchesColdAfterGraftBack) {
  const auto options = base_options(pruning_kind::two_param,
                                    li_shi_mode::automatic);
  for (std::uint64_t seed = 50; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    tree::random_tree_options to;
    to.num_sinks = 100;
    to.die_side_um = 12000.0;
    to.seed = seed;
    auto t = tree::make_random_tree(to);
    const std::uint64_t original = t.subtree_hash(t.root());
    auto model = make_wid_model(t);
    solve_session session(model);
    const auto first = session.solve(t, options);
    ASSERT_TRUE(first.ok());

    tree::node_id s = tree::invalid_node;
    for (const tree::node_id x : t.sinks()) {
      if (first.value().assignment.has_buffer(x)) {
        s = x;
        break;
      }
    }
    ASSERT_NE(s, tree::invalid_node);
    const tree::node_id g = t.node(s).parent;
    ASSERT_NE(g, t.root());
    const layout::point at = t.node(s).location;
    const double wire = t.node(s).parent_wire_um;
    // g's children after s, with their wires, re-grafted after s below.
    std::vector<std::pair<tree::node_id, double>> later;
    const auto& kids = t.node(g).children;
    for (auto it = std::find(kids.begin(), kids.end(), s) + 1; it != kids.end();
         ++it) {
      later.emplace_back(*it, t.node(*it).parent_wire_um);
    }

    // Under the source, s is re-characterized by a cold solve.
    t.apply_edit(tree::tree_edit::prune_subtree(s));
    t.apply_edit(tree::tree_edit::graft_subtree(s, t.root()));
    t.apply_edit(tree::tree_edit::move_sink(s, {at.x + 150.0, at.y - 90.0}));
    ASSERT_TRUE(session.solve_cold(t, options).ok());

    // Back where it was, in g's old child order.
    t.apply_edit(tree::tree_edit::move_sink(s, at));
    t.apply_edit(tree::tree_edit::prune_subtree(s));
    t.apply_edit(tree::tree_edit::graft_subtree(s, g, wire));
    for (const auto& [c, um] : later) {
      t.apply_edit(tree::tree_edit::prune_subtree(c));
      t.apply_edit(tree::tree_edit::graft_subtree(c, g, um));
    }
    ASSERT_EQ(t.subtree_hash(t.root()), original);

    const auto warm = session.solve(t, options);
    const auto cold = session.solve_cold(t, options);
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(cold.ok());
    expect_same_result(warm.value(), cold.value());
  }
}

// Two sinks of identical content (location, cap, RAT and wire) under
// different parents, swapped by prune/graft with the first parent's child
// order restored: every subtree content hash comes back, but each parent
// now holds the other sink, whose device forms carry other private
// variation sources. The warm solve must not adopt the parents' entries.
TEST(EcoSession, TwinSwapBetweenParentsMatchesCold) {
  tree::routing_tree t({0.0, 0.0});
  const tree::node_id p = t.add_steiner(t.root(), {8000.0, 0.0});
  const tree::node_id q = t.add_steiner(t.root(), {0.0, 8000.0});
  const tree::node_id a = t.add_sink(p, {4000.0, 4000.0}, 0.3, 900.0);
  const tree::node_id b = t.add_sink(q, {4000.0, 4000.0}, 0.3, 900.0);
  const tree::node_id c = t.add_sink(p, {9000.0, 1500.0}, 0.05, 900.0);
  const std::uint64_t original = t.subtree_hash(t.root());
  auto model = make_wid_model(t);
  solve_session session(model);
  const auto options = base_options(pruning_kind::two_param,
                                    li_shi_mode::automatic);
  ASSERT_TRUE(session.solve(t, options).ok());

  t.apply_edit(tree::tree_edit::prune_subtree(a));
  t.apply_edit(tree::tree_edit::prune_subtree(b));
  t.apply_edit(tree::tree_edit::graft_subtree(a, q));
  t.apply_edit(tree::tree_edit::graft_subtree(b, p));
  t.apply_edit(tree::tree_edit::prune_subtree(c));
  t.apply_edit(tree::tree_edit::graft_subtree(c, p));
  ASSERT_EQ(t.subtree_hash(t.root()), original);

  const auto warm = session.solve(t, options);
  const auto cold = session.solve_cold(t, options);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(cold.ok());
  expect_same_result(warm.value(), cold.value());
}

// A seeded stream of RAT retargets and sink moves, each followed by a warm
// solve, whose designs come from the design memo (only the decisions that
// differ from the previous warm design are walked). Every warm design must
// equal the cold one, including after edits whose warm design drops a
// buffer the previous warm design placed; the stream holds such edits.
TEST(EcoSession, IncrementalDesignDropsBuffersLikeCold) {
  auto t = make_tree(pruning_kind::two_param, 77);
  auto model = make_wid_model(t);
  solve_session session(model);
  auto options = base_options(pruning_kind::two_param,
                              li_shi_mode::automatic);
  options.selection_percentile = 0.05;
  stat_result previous = solved(session.solve(t, options));
  const auto sinks = t.sinks();
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> shift(-300.0, 300.0);
  std::size_t drops = 0;
  for (int e = 0; e < 40; ++e) {
    SCOPED_TRACE(e);
    const tree::node_id s = sinks[rng() % sinks.size()];
    if (e % 2 == 0) {
      t.apply_edit(tree::tree_edit::retarget_rat(
          s, t.node(s).sink_rat_ps + shift(rng)));
    } else {
      const layout::point at = t.node(s).location;
      t.apply_edit(tree::tree_edit::move_sink(
          s, {std::max(0.0, at.x + shift(rng)), std::max(0.0, at.y + shift(rng))}));
    }
    stat_result warm = solved(session.solve(t, options));
    expect_same_result(warm, solved(session.solve_cold(t, options)));
    for (tree::node_id n = 0; n < warm.assignment.num_nodes(); ++n) {
      if (previous.assignment.has_buffer(n) && !warm.assignment.has_buffer(n)) {
        ++drops;
        break;
      }
    }
    previous = std::move(warm);
  }
  EXPECT_GT(drops, 0u);
}

// The design memo follows completed warm solves only. Each step retargets
// one sink, then runs one of: nothing, solve_cold, a cancelled warm solve,
// an option change (the next such step changes it back), reset(), or a warm
// solve failed by an injected pool exhaustion -- and the warm solve after
// it must equal a cold one.
TEST(EcoSession, WarmDesignAfterEverySolveKindMatchesCold) {
  struct disarm_on_exit {
    ~disarm_on_exit() { vabi::testing::disarm(); }
  } disarm;
  auto t = make_tree(pruning_kind::two_param, 78);
  auto model = make_wid_model(t);
  solve_session session(model);
  const auto plain = base_options(pruning_kind::two_param,
                                  li_shi_mode::automatic);
  auto other = plain;
  other.selection_percentile = 0.05;
  auto options = plain;
  ASSERT_TRUE(session.solve(t, options).ok());
  const auto sinks = t.sinks();
  cancel_token stopped;
  stopped.request_stop();
  for (std::size_t step = 0; step < 18; ++step) {
    SCOPED_TRACE(step);
    const tree::node_id s = sinks[(step * 37) % sinks.size()];
    t.apply_edit(
        tree::tree_edit::retarget_rat(s, t.node(s).sink_rat_ps - 60.0));
    switch (step % 6) {
      case 1:
        ASSERT_TRUE(session.solve_cold(t, options).ok());
        break;
      case 2: {
        const auto r = session.solve(t, options, &stopped);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.code(), solve_code::cancelled);
        break;
      }
      case 3:
        options = options.selection_percentile == 0.5 ? other : plain;
        break;
      case 4:
        session.reset();
        break;
      case 5: {
        vabi::testing::arm("term_pool_alloc:after=3");
        const auto r = session.solve(t, options);
        vabi::testing::disarm();
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.code(), solve_code::memory_cap);
        break;
      }
    }
    const auto warm = session.solve(t, options);
    const auto cold = session.solve_cold(t, options);
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(cold.ok());
    expect_same_result(warm.value(), cold.value());
  }
}

// A cached list went up through its node's parent wire, which the node's
// own subtree hash does not cover: after resize_wire the node below the
// wire is re-solved from its children's entries, a cache miss like each of
// its ancestors.
TEST(EcoSession, ResizedWireResolvesTheNodeBelowIt) {
  auto t = make_tree(pruning_kind::two_param, 79);
  auto model = make_wid_model(t);
  solve_session session(model);
  for (const bool widths : {false, true}) {
    SCOPED_TRACE(widths ? "three widths" : "one width");
    auto options = base_options(pruning_kind::two_param,
                                li_shi_mode::automatic);
    if (widths) options.wire_width_multipliers = {0.7, 1.0, 1.4};
    ASSERT_TRUE(session.solve(t, options).ok());

    const tree::node_id n = t.node(t.sinks()[widths ? 11 : 3]).parent;
    ASSERT_NE(n, t.root());
    const std::uint64_t own = t.subtree_hash(n);
    t.apply_edit(tree::tree_edit::resize_wire(
        n, 1.5 * t.node(n).parent_wire_um + 10.0));
    EXPECT_EQ(t.subtree_hash(n), own);
    std::size_t path = 0;
    for (tree::node_id a = n; a != tree::invalid_node; a = t.node(a).parent) {
      ++path;
    }

    const auto warm = solved(session.solve(t, options));
    EXPECT_EQ(warm.stats.cache_misses, path);
    expect_same_result(warm, solved(session.solve_cold(t, options)));
  }
}

}  // namespace
}  // namespace vabi::core
