// ECO edit API and incremental subtree-hash maintenance
// (tree/routing_tree.hpp): every apply_edit must leave the lazily maintained
// hashes bit-identical to a from-scratch recompute, and the degenerate shapes
// (single node, 10k-deep chain, duplicate sink locations) must be safe. The
// checked() bit must only ever promise what validate() and a finiteness scan
// would confirm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tree/generators.hpp"
#include "tree/routing_tree.hpp"
#include "tree/tree_io.hpp"

namespace vabi::tree {
namespace {

routing_tree small_random(std::uint64_t seed, std::size_t sinks = 40) {
  random_tree_options o;
  o.num_sinks = sinks;
  o.die_side_um = 4000.0;
  o.seed = seed;
  return make_random_tree(o);
}

/// Reference: dirty the cache (mutable node access invalidates it), forcing
/// the next subtree_hash call into the full O(n) recompute.
std::uint64_t full_recompute_root_hash(routing_tree& t) {
  t.node(t.root());
  return t.subtree_hash(t.root());
}

std::vector<std::uint64_t> all_hashes(const routing_tree& t) {
  std::vector<std::uint64_t> h;
  h.reserve(t.num_nodes());
  for (node_id id = 0; id < t.num_nodes(); ++id) {
    h.push_back(t.subtree_hash(id));
  }
  return h;
}

TEST(TreeEdit, MoveSinkIncrementalHashMatchesFullRecompute) {
  auto t = small_random(11);
  const auto sinks = t.sinks();
  const node_id victim = sinks[sinks.size() / 2];
  const std::uint64_t before = t.subtree_hash(t.root());

  t.apply_edit(tree_edit::move_sink(victim, {123.0, 456.0}));
  const std::uint64_t incremental = t.subtree_hash(t.root());
  EXPECT_NE(incremental, before);
  EXPECT_EQ(incremental, full_recompute_root_hash(t));
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.node(victim).location, (layout::point{123.0, 456.0}));
}

TEST(TreeEdit, MoveSinkDefaultWireIsManhattan) {
  auto t = small_random(12);
  const node_id victim = t.sinks().front();
  const node_id parent = t.node(victim).parent;
  t.apply_edit(tree_edit::move_sink(victim, {500.0, 700.0}));
  const auto& p = t.node(parent).location;
  EXPECT_DOUBLE_EQ(t.node(victim).parent_wire_um,
                   std::abs(p.x - 500.0) + std::abs(p.y - 700.0));

  t.apply_edit(tree_edit::move_sink(victim, {600.0, 800.0}, 42.0));
  EXPECT_DOUBLE_EQ(t.node(victim).parent_wire_um, 42.0);
  EXPECT_EQ(t.subtree_hash(t.root()), full_recompute_root_hash(t));
}

TEST(TreeEdit, RetargetRatOnlyTouchesRootPath) {
  auto t = small_random(13);
  const auto sinks = t.sinks();
  const node_id victim = sinks.back();
  const auto before = all_hashes(t);

  t.apply_edit(tree_edit::retarget_rat(victim, -250.0));
  EXPECT_DOUBLE_EQ(t.node(victim).sink_rat_ps, -250.0);
  const auto after = all_hashes(t);

  // Exactly the victim's root path changed; every other subtree is intact.
  std::vector<bool> on_path(t.num_nodes(), false);
  for (node_id id = victim; id != invalid_node; id = t.node(id).parent) {
    on_path[id] = true;
  }
  for (node_id id = 0; id < t.num_nodes(); ++id) {
    if (on_path[id]) {
      EXPECT_NE(after[id], before[id]) << "path node " << id;
    } else {
      EXPECT_EQ(after[id], before[id]) << "off-path node " << id;
    }
  }
  EXPECT_EQ(t.subtree_hash(t.root()), full_recompute_root_hash(t));
}

TEST(TreeEdit, ResizeWireInvalidatesAncestorsOnly) {
  auto t = small_random(14);
  // Pick an internal node with children (not root).
  node_id victim = invalid_node;
  for (node_id id = 1; id < t.num_nodes(); ++id) {
    if (!t.node(id).children.empty()) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, invalid_node);
  const std::uint64_t sub_before = t.subtree_hash(victim);

  t.apply_edit(tree_edit::resize_wire(victim, 999.0));
  EXPECT_DOUBLE_EQ(t.node(victim).parent_wire_um, 999.0);
  // The wire above `victim` is hashed at the parent, so the victim's own
  // subtree hash is untouched -- the invalidation stops strictly above it.
  EXPECT_EQ(t.subtree_hash(victim), sub_before);
  EXPECT_EQ(t.subtree_hash(t.root()), full_recompute_root_hash(t));
}

TEST(TreeEdit, PruneThenGraftBackRestoresEverything) {
  auto t = small_random(15);
  // Graft appends to the parent's child list, so exact hash restoration
  // needs a victim that already is the *last* child of its parent; pick one
  // under a branching node so the rest of the tree keeps attached sinks.
  node_id victim = invalid_node;
  for (const node_id id : t.postorder()) {
    if (t.node(id).children.size() >= 2) {
      victim = t.node(id).children.back();
      break;
    }
  }
  ASSERT_NE(victim, invalid_node);
  const node_id parent = t.node(victim).parent;
  const double wire = t.node(victim).parent_wire_um;
  const std::uint64_t root_before = t.subtree_hash(t.root());
  const std::size_t sinks_before = t.num_sinks();
  const std::size_t positions_before = t.num_buffer_positions();
  const std::size_t attached_before = t.postorder().size();
  // The victim's subtree size, counted before the edit by a walk of its own.
  std::size_t sub = 0;
  for (std::vector<node_id> stack{victim}; !stack.empty();) {
    const node_id n = stack.back();
    stack.pop_back();
    ++sub;
    for (const node_id c : std::as_const(t).node(n).children) {
      stack.push_back(c);
    }
  }

  t.apply_edit(tree_edit::prune_subtree(victim));
  // The pruned subtree is exactly what dropped out of the traversal.
  EXPECT_EQ(t.postorder().size(), attached_before - sub);
  EXPECT_TRUE(t.has_detached());
  EXPECT_EQ(t.num_detached(), sub);
  EXPECT_EQ(t.num_buffer_positions(), positions_before - sub);
  EXPECT_LT(t.num_sinks(), sinks_before);
  EXPECT_TRUE(t.node(victim).detached);
  EXPECT_EQ(t.node(victim).parent, invalid_node);
  EXPECT_NO_THROW(t.validate());
  // Detached nodes drop out of the traversals.
  for (const node_id id : t.postorder()) {
    EXPECT_FALSE(t.node(id).detached);
  }
  // The serialized format cannot express detached subtrees.
  EXPECT_THROW(write_tree_to_string(t), std::invalid_argument);

  t.apply_edit(tree_edit::graft_subtree(victim, parent, wire));
  EXPECT_FALSE(t.has_detached());
  EXPECT_EQ(t.num_sinks(), sinks_before);
  EXPECT_EQ(t.num_buffer_positions(), positions_before);
  EXPECT_NO_THROW(t.validate());
  // Same parent, same wire, same child order (victim was the last child):
  // the content hash must be restored exactly.
  EXPECT_EQ(t.subtree_hash(t.root()), root_before);
  EXPECT_EQ(t.subtree_hash(t.root()), full_recompute_root_hash(t));
}

TEST(TreeEdit, GraftToNewParentChangesHash) {
  auto t = small_random(16);
  const auto sinks = t.sinks();
  const node_id victim = sinks.back();
  const std::uint64_t before = t.subtree_hash(t.root());

  t.apply_edit(tree_edit::prune_subtree(victim));
  // Re-attach directly under the root (anti-cycle invariant: parent id must
  // be smaller than the grafted node's id -- the root always qualifies).
  t.apply_edit(tree_edit::graft_subtree(victim, t.root()));
  EXPECT_NO_THROW(t.validate());
  EXPECT_NE(t.subtree_hash(t.root()), before);
  EXPECT_EQ(t.subtree_hash(t.root()), full_recompute_root_hash(t));
  EXPECT_DOUBLE_EQ(
      t.node(victim).parent_wire_um,
      std::abs(t.node(victim).location.x - t.node(t.root()).location.x) +
          std::abs(t.node(victim).location.y - t.node(t.root()).location.y));
}

TEST(TreeEdit, InvalidEditsThrow) {
  auto t = small_random(17);
  node_id steiner = invalid_node;
  for (node_id id = 1; id < t.num_nodes(); ++id) {
    if (!t.node(id).is_sink()) {
      steiner = id;
      break;
    }
  }
  ASSERT_NE(steiner, invalid_node);
  const node_id sink = t.sinks().front();

  // Sink-only ops on non-sinks.
  EXPECT_THROW(t.apply_edit(tree_edit::move_sink(steiner, {0, 0})),
               std::logic_error);
  EXPECT_THROW(t.apply_edit(tree_edit::retarget_rat(steiner, 1.0)),
               std::logic_error);
  // Source cannot be rewired or pruned.
  EXPECT_THROW(t.apply_edit(tree_edit::resize_wire(t.root(), 1.0)),
               std::logic_error);
  EXPECT_THROW(t.apply_edit(tree_edit::prune_subtree(t.root())),
               std::logic_error);
  // Negative wire length.
  EXPECT_THROW(t.apply_edit(tree_edit::resize_wire(sink, -1.0)),
               std::invalid_argument);
  // Graft of a node that is not a detached root.
  EXPECT_THROW(t.apply_edit(tree_edit::graft_subtree(sink, t.root())),
               std::logic_error);

  t.apply_edit(tree_edit::prune_subtree(sink));
  // Double prune; ops on detached nodes; graft under a sink / larger id.
  EXPECT_THROW(t.apply_edit(tree_edit::prune_subtree(sink)), std::logic_error);
  EXPECT_THROW(t.apply_edit(tree_edit::resize_wire(sink, 1.0)),
               std::logic_error);
  node_id other_sink = invalid_node;
  for (const node_id s : t.sinks()) {
    if (s != sink) other_sink = s;
  }
  ASSERT_NE(other_sink, invalid_node);
  EXPECT_THROW(t.apply_edit(tree_edit::graft_subtree(sink, other_sink)),
               std::logic_error);
  // Hash cache stays coherent through the failed edits.
  EXPECT_EQ(t.subtree_hash(t.root()), full_recompute_root_hash(t));
}

TEST(TreeEdit, SingleNodeTree) {
  routing_tree t({100.0, 100.0});
  EXPECT_EQ(t.num_nodes(), 1u);
  EXPECT_EQ(t.num_sinks(), 0u);
  EXPECT_EQ(t.num_buffer_positions(), 0u);
  // Hashing a sourceless-only tree is well defined...
  EXPECT_NE(t.subtree_hash(t.root()), 0u);
  EXPECT_TRUE(t.postorder().size() == 1);
  // ...but it is not a solvable instance.
  EXPECT_THROW(t.validate(), std::logic_error);
}

TEST(TreeEdit, DeepChainTenThousandIsIterative) {
  chain_options o;
  o.segments = 10'000;  // recursion here would overflow the stack
  auto t = make_chain(o);
  ASSERT_EQ(t.num_nodes(), o.segments + 1);
  EXPECT_EQ(t.postorder().size(), t.num_nodes());
  t.ensure_subtree_hashes();
  const std::uint64_t before = t.subtree_hash(t.root());

  // Edit at the deep end: the incremental rehash walks the full 10k path.
  const node_id sink = t.sinks().front();
  t.apply_edit(tree_edit::retarget_rat(sink, -77.0));
  EXPECT_NE(t.subtree_hash(t.root()), before);
  EXPECT_EQ(t.subtree_hash(t.root()), full_recompute_root_hash(t));
  EXPECT_NO_THROW(t.validate());
}

TEST(TreeEdit, DuplicateSinkLocationsHashEqual) {
  routing_tree t({0.0, 0.0});
  const node_id j = t.add_steiner(t.root(), {50.0, 50.0});
  const node_id a = t.add_sink(j, {50.0, 50.0}, 0.02, -10.0);
  const node_id b = t.add_sink(j, {50.0, 50.0}, 0.02, -10.0);
  EXPECT_NO_THROW(t.validate());
  // Identical content -> identical subtree hashes; co-located sinks get
  // zero-length Manhattan wires.
  EXPECT_EQ(t.subtree_hash(a), t.subtree_hash(b));
  EXPECT_DOUBLE_EQ(t.node(a).parent_wire_um, 0.0);
  EXPECT_DOUBLE_EQ(t.node(b).parent_wire_um, 0.0);
  // The shared hash still distinguishes the *parent* when one moves.
  t.apply_edit(tree_edit::retarget_rat(b, -20.0));
  EXPECT_NE(t.subtree_hash(a), t.subtree_hash(b));
  EXPECT_EQ(t.subtree_hash(t.root()), full_recompute_root_hash(t));
}

// ---------------------------------------------------------------------------
// The checked() bit.
// ---------------------------------------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// What checked() promises, verified from scratch: validate() passes unless
/// no attached sink is left, and every node, detached ones included, holds
/// finite solve inputs.
void expect_promise_kept(const routing_tree& t) {
  if (!t.checked()) return;
  if (t.num_sinks() != 0) {
    EXPECT_NO_THROW(t.validate());
  }
  for (const tree_node& n : t.nodes()) {
    EXPECT_TRUE(std::isfinite(n.parent_wire_um)) << "node " << n.id;
    if (n.is_sink()) {
      EXPECT_TRUE(std::isfinite(n.sink_cap_pf)) << "node " << n.id;
      EXPECT_TRUE(std::isfinite(n.sink_rat_ps)) << "node " << n.id;
    }
  }
}

TEST(TreeEdit, CheckedBitPromisesOnlyWhatTheFullCheckConfirms) {
  std::size_t checked_states = 0;
  std::size_t checked_with_detached = 0;
  std::size_t cleared_states = 0;
  std::size_t rejected_edits = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    auto t = small_random(100 + seed, 30);
    const routing_tree& view = t;  // reads through `view` keep the bit
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::size_t n) { return rng() % n; };
    // One value in sixteen is NaN or inf. (A NaN wire_um on move_sink or
    // graft_subtree asks for the Manhattan wire; a non-finite location
    // makes that wire non-finite.)
    const auto value = [&](double finite) {
      const auto r = pick(32);
      return r == 0 ? kNaN : r == 1 ? kInf : finite;
    };
    for (int step = 0; step < 60; ++step) {
      const auto id = static_cast<node_id>(1 + pick(view.num_nodes() - 1));
      try {
        switch (pick(5)) {
          case 0:
            t.apply_edit(tree_edit::move_sink(
                id, {value(100.0 * static_cast<double>(pick(40))), 10.0},
                pick(2) == 0 ? -1.0 : value(50.0)));
            break;
          case 1:
            t.apply_edit(tree_edit::retarget_rat(id, value(-100.0)));
            break;
          case 2:
            t.apply_edit(tree_edit::resize_wire(id, value(75.0)));
            break;
          case 3:
            t.apply_edit(tree_edit::prune_subtree(id));
            break;
          default: {
            // A detached root (without one, `id`, which the edit rejects)
            // under a random lower-numbered node (rejected when that node
            // is a sink or detached).
            std::vector<node_id> roots;
            for (const tree_node& m : view.nodes()) {
              if (m.detached && m.parent == invalid_node) roots.push_back(m.id);
            }
            const node_id root = roots.empty() ? id : roots[pick(roots.size())];
            t.apply_edit(tree_edit::graft_subtree(
                root, static_cast<node_id>(pick(root)),
                pick(2) == 0 ? -1.0 : value(30.0)));
            break;
          }
        }
      } catch (const std::exception&) {
        ++rejected_edits;
      }
      expect_promise_kept(t);
      if (view.checked()) {
        ++checked_states;
        if (view.has_detached()) ++checked_with_detached;
      } else {
        ++cleared_states;
      }
    }
  }
  // The streams visit both states, detached subtrees under a set bit, and
  // the edits' own rejections.
  EXPECT_GT(checked_states, 200u);
  EXPECT_GT(checked_with_detached, 200u);
  EXPECT_GT(cleared_states, 200u);
  EXPECT_GT(rejected_edits, 200u);
}

TEST(TreeEdit, FirstEditOfAValidTreeSetsTheCheckedBit) {
  auto t = small_random(31);
  const routing_tree& view = t;
  EXPECT_FALSE(view.checked());  // built by add_sink / add_steiner
  const node_id sink = view.sinks().front();
  t.apply_edit(tree_edit::retarget_rat(sink, -40.0));
  EXPECT_TRUE(view.checked());
  t.apply_edit(tree_edit::resize_wire(sink, 12.0));
  EXPECT_TRUE(view.checked());
}

TEST(TreeEdit, FirstEditOfAnInvalidTreeLeavesTheBitClear) {
  auto t = small_random(32);
  const routing_tree& view = t;
  const node_id sink = view.sinks().front();
  t.node(sink).parent_wire_um = -1.0;  // negative wire: validate() throws
  t.apply_edit(tree_edit::retarget_rat(sink, -40.0));
  EXPECT_FALSE(view.checked());
  EXPECT_DOUBLE_EQ(view.node(sink).sink_rat_ps, -40.0);  // edit applied
  t.node(sink).parent_wire_um = 5.0;
  t.apply_edit(tree_edit::retarget_rat(sink, -41.0));
  EXPECT_TRUE(view.checked());
}

TEST(TreeEdit, PruneUnderAParentThatDoesNotListTheNodeThrowsUnchanged) {
  auto t = small_random(36, 20);
  const routing_tree& view = t;
  const node_id sink = view.sinks().front();
  const node_id parent = view.node(sink).parent;
  auto& siblings = t.node(parent).children;
  siblings.erase(std::find(siblings.begin(), siblings.end(), sink));
  const routing_tree before = t;

  EXPECT_THROW(t.apply_edit(tree_edit::prune_subtree(sink)),
               std::logic_error);
  EXPECT_FALSE(view.checked());
  EXPECT_EQ(view.node(sink).parent, parent);
  EXPECT_FALSE(view.node(sink).detached);
  EXPECT_EQ(view.node(parent).children, before.node(parent).children);
  EXPECT_EQ(view.num_sinks(), before.num_sinks());
  EXPECT_EQ(view.num_detached(), 0u);
  EXPECT_EQ(view.topology_edits(), before.topology_edits());
  for (node_id id = 0; id < view.num_nodes(); ++id) {
    EXPECT_EQ(view.node(id).parent_wire_um, before.node(id).parent_wire_um);
  }

  // No parent at all: a non-source node whose parent link was cleared.
  const node_id orphan = view.sinks().back();
  t.node(orphan).parent = invalid_node;
  EXPECT_THROW(t.apply_edit(tree_edit::prune_subtree(orphan)),
               std::logic_error);
  EXPECT_FALSE(view.node(orphan).detached);
  EXPECT_EQ(view.num_detached(), 0u);
}

TEST(TreeEdit, MutableAccessAndAddedNodesClearTheCheckedBit) {
  auto t = small_random(33);
  const routing_tree& view = t;
  const node_id sink = view.sinks().front();
  const auto recheck = [&] {
    t.apply_edit(tree_edit::retarget_rat(sink, -10.0));
    ASSERT_TRUE(view.checked());
  };
  recheck();
  t.node(sink);  // a mutable reference, even unwritten
  EXPECT_FALSE(view.checked());
  recheck();
  const node_id steiner = t.add_steiner(t.root(), {5.0, 5.0});
  EXPECT_FALSE(view.checked());
  recheck();
  t.add_sink(steiner, {6.0, 6.0}, 0.01, -5.0);
  EXPECT_FALSE(view.checked());
}

TEST(TreeEdit, CopiesKeepTheCheckedBitAndMovedFromTreesLoseIt) {
  auto t = small_random(34);
  t.apply_edit(tree_edit::retarget_rat(t.sinks().front(), -10.0));
  ASSERT_TRUE(std::as_const(t).checked());

  const routing_tree copy = t;
  EXPECT_TRUE(copy.checked());
  routing_tree assigned;
  assigned = copy;
  EXPECT_TRUE(assigned.checked());

  routing_tree moved = std::move(t);
  EXPECT_TRUE(moved.checked());
  EXPECT_FALSE(t.checked());  // NOLINT(bugprone-use-after-move)
  routing_tree move_assigned;
  move_assigned = std::move(moved);
  EXPECT_TRUE(move_assigned.checked());
  EXPECT_FALSE(moved.checked());  // NOLINT(bugprone-use-after-move)
}

TEST(TreeEdit, NonFiniteEditsClearTheCheckedBit) {
  auto t = small_random(35);
  const routing_tree& view = t;
  const node_id sink = view.sinks().front();
  const node_id parent = view.node(sink).parent;
  // Rewrites the sink's inputs with finite values, then sets the bit again.
  const auto repair = [&] {
    t.apply_edit(tree_edit::move_sink(sink, {10.0, 10.0}, 5.0));
    t.apply_edit(tree_edit::retarget_rat(sink, -20.0));
    t.apply_edit(tree_edit::retarget_rat(view.sinks().back(), -10.0));
    ASSERT_TRUE(view.checked());
  };
  for (const double bad : {kNaN, kInf}) {
    SCOPED_TRACE(bad);
    repair();
    t.apply_edit(tree_edit::retarget_rat(sink, bad));
    EXPECT_FALSE(view.checked());
    repair();
    t.apply_edit(tree_edit::resize_wire(sink, bad));
    EXPECT_FALSE(view.checked());
    repair();
    // A non-finite location gives a non-finite Manhattan wire...
    t.apply_edit(tree_edit::move_sink(sink, {bad, 10.0}));
    EXPECT_FALSE(view.checked());
    repair();
    // ...but not while the sink is detached: its wire is written at graft.
    t.apply_edit(tree_edit::prune_subtree(sink));
    t.apply_edit(tree_edit::move_sink(sink, {bad, 10.0}));
    EXPECT_TRUE(view.checked());
    t.apply_edit(tree_edit::graft_subtree(sink, parent));
    EXPECT_FALSE(view.checked());
  }
  // An explicit wire of inf (a NaN wire_um asks for the Manhattan wire).
  repair();
  t.apply_edit(tree_edit::move_sink(sink, {10.0, 10.0}, kInf));
  EXPECT_FALSE(view.checked());
  repair();
  t.apply_edit(tree_edit::prune_subtree(sink));
  EXPECT_TRUE(view.checked());
  t.apply_edit(tree_edit::graft_subtree(sink, parent, kInf));
  EXPECT_FALSE(view.checked());
}

}  // namespace
}  // namespace vabi::tree
