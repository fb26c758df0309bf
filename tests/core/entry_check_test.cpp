// The solvers' whole-tree entry checks (core/solve_status.hpp): a tree
// routing_tree::validate() accepts is a tree, and every solve_* entry point
// rejects what validate() or the non-finite scan would reject, also when the
// tree reads checked() and a solve would skip both scans.
//
// The first three tests corrupt a child list through node() in ways the
// parent-side checks alone cannot see. The rest start from a checked tree
// (one ECO edit after a first session solve) and break it in each way the
// checked() bit has to notice: a node() write, a prune of every sink, a
// NaN written while a sink is detached, a move.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/cost_bounded.hpp"
#include "core/parallel.hpp"
#include "core/slab_cache.hpp"
#include "core/statistical_dp.hpp"
#include "core/van_ginneken.hpp"
#include "tree/generators.hpp"

namespace vabi::core {
namespace {

tree::routing_tree make_net(std::uint64_t seed) {
  tree::random_tree_options o;
  o.num_sinks = 24;
  o.seed = seed;
  return tree::make_random_tree(o);
}

layout::process_model make_model(const tree::routing_tree& t) {
  layout::bbox die = t.bounding_box();
  die.expand({die.lo.x - 1.0, die.lo.y - 1.0});
  die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
  layout::process_model_config c;
  c.mode = layout::wid_mode();
  return layout::process_model{die, c};
}

stat_options options() {
  stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  return o;
}

/// A sink and its parent, the parent being a Steiner node with two or more
/// children.
std::pair<tree::node_id, tree::node_id> sink_under_branch(
    const tree::routing_tree& t) {
  for (const tree::node_id s : t.sinks()) {
    const tree::node_id p = t.node(s).parent;
    if (p != t.root() && t.node(p).children.size() >= 2) return {s, p};
  }
  ADD_FAILURE() << "no sink under a branching Steiner node";
  return {tree::invalid_node, tree::invalid_node};
}

/// validate() throws, and the one-shot statistical solve is invalid_tree.
void expect_rejected(const tree::routing_tree& t) {
  EXPECT_THROW(t.validate(), std::logic_error);
  auto model = make_model(t);
  const auto out = solve_statistical_insertion(t, model, options());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.code(), solve_code::invalid_tree) << out.error().message();
}

TEST(EntryCheck, ChildIdOutOfRangeIsInvalidTree) {
  auto t = make_net(2);
  const auto [sink, parent] = sink_under_branch(t);
  t.node(parent).children.push_back(
      static_cast<tree::node_id>(t.num_nodes() + 1000));
  expect_rejected(t);
}

TEST(EntryCheck, SinkUnderASecondParentIsInvalidTree) {
  auto t = make_net(3);
  const auto [sink, parent] = sink_under_branch(t);
  // The sink's parent still lists it; the root lists it too.
  t.node(t.root()).children.push_back(sink);
  expect_rejected(t);
}

TEST(EntryCheck, ChildListedTwiceIsInvalidTree) {
  auto t = make_net(4);
  const auto [sink, parent] = sink_under_branch(t);
  t.node(parent).children.push_back(sink);
  expect_rejected(t);
}

/// A net after a first session solve and one RAT edit: `checked()` holds,
/// so the next solve skips the whole-tree checks.
struct checked_net {
  tree::routing_tree net = make_net(5);
  layout::process_model model = make_model(net);
  solve_session session{model};

  checked_net() {
    EXPECT_TRUE(session.solve(net, options()).ok());
    const tree::node_id s = net.sinks().front();
    net.apply_edit(tree::tree_edit::retarget_rat(
        s, std::as_const(net).node(s).sink_rat_ps - 5.0));
    EXPECT_TRUE(net.checked());
    EXPECT_FALSE(runs_entry_checks(net));
    EXPECT_TRUE(session.solve(net, options()).ok());
  }
};

/// Every solve_* entry point on `t` fails with `code` (and, when given,
/// `detail` or the failing `node`).
void expect_every_entry_point(checked_net& c, const tree::routing_tree& t,
                              solve_code code, const std::string& detail,
                              tree::node_id node = tree::invalid_node) {
  const auto expect = [&](const solve_error& e, const char* entry) {
    SCOPED_TRACE(entry);
    EXPECT_EQ(e.code, code) << e.message();
    if (!detail.empty()) {
      EXPECT_EQ(e.detail, detail);
    }
    EXPECT_EQ(e.node, node);
  };
  const stat_options o = options();
  auto model = make_model(make_net(5));  // `t` may be moved from
  auto warm = c.session.solve(t, o);
  ASSERT_FALSE(warm.ok());
  expect(warm.error(), "solve_session::solve");
  auto cold = c.session.solve_cold(t, o);
  ASSERT_FALSE(cold.ok());
  expect(cold.error(), "solve_session::solve_cold");
  auto serial = solve_statistical_insertion(t, model, o);
  ASSERT_FALSE(serial.ok());
  expect(serial.error(), "solve_statistical_insertion");
  thread_pool pool{2};
  auto parallel = solve_parallel_insertion(t, model, o, pool);
  ASSERT_FALSE(parallel.ok());
  expect(parallel.error(), "solve_parallel_insertion");
  const det_options det{o.wire, o.library, o.driver_res_ohm};
  const auto vg = solve_van_ginneken(t, det);
  ASSERT_FALSE(vg.ok());
  expect(vg.error(), "solve_van_ginneken");
  cost_bounded_options cb;
  cb.base = det;
  const auto bounded = solve_cost_bounded_insertion(t, cb);
  ASSERT_FALSE(bounded.ok());
  expect(bounded.error(), "solve_cost_bounded_insertion");
}

TEST(EntryCheck, NodeWriteAfterACheckIsInvalidTreeOnEveryEntryPoint) {
  checked_net c;
  const auto [sink, parent] = sink_under_branch(c.net);
  // The parent forgets the sink; only the sink still names the parent.
  auto& kids = c.net.node(parent).children;
  kids.erase(std::find(kids.begin(), kids.end(), sink));
  expect_every_entry_point(c, c.net, solve_code::invalid_tree,
                           "routing_tree: parent does not list child");
}

TEST(EntryCheck, PruningEverySinkIsInvalidTree) {
  checked_net c;
  const tree::routing_tree& view = c.net;
  while (!view.node(view.root()).children.empty()) {
    c.net.apply_edit(tree::tree_edit::prune_subtree(
        view.node(view.root()).children.back()));
  }
  ASSERT_EQ(c.net.num_sinks(), 0u);
  EXPECT_TRUE(c.net.checked());  // every prune wrote finite values
  expect_every_entry_point(c, c.net, solve_code::invalid_tree,
                           "routing_tree: tree has no sinks");
}

TEST(EntryCheck, NanRetargetedWhileDetachedIsNonfiniteAfterGraft) {
  checked_net c;
  const tree::routing_tree& view = c.net;
  const auto [sink, parent] = sink_under_branch(view);
  const tree::node_id grandparent = view.node(parent).parent;
  // The NaN sits below the grafted node, which alone the graft looks at.
  c.net.apply_edit(tree::tree_edit::prune_subtree(parent));
  c.net.apply_edit(tree::tree_edit::retarget_rat(
      sink, std::numeric_limits<double>::quiet_NaN()));
  c.net.apply_edit(tree::tree_edit::graft_subtree(parent, grandparent));
  expect_every_entry_point(c, view, solve_code::nonfinite_value, "", sink);
}

TEST(EntryCheck, MovedFromTreeIsInvalidTree) {
  checked_net c;
  const tree::routing_tree kept = std::move(c.net);
  EXPECT_TRUE(kept.checked());
  // NOLINTNEXTLINE(bugprone-use-after-move): what a stale caller would do
  expect_every_entry_point(c, c.net, solve_code::invalid_tree,
                           "routing_tree: missing source root");
}

}  // namespace
}  // namespace vabi::core
