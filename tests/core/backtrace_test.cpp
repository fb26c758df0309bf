#include <gtest/gtest.h>

#include "core/solution.hpp"
#include "core/statistical_dp.hpp"
#include "core/van_ginneken.hpp"
#include "tree/generators.hpp"
#include "solved_test_util.hpp"

namespace vabi::core {
namespace {

using testutil::solved;

TEST(DecisionArena, LeafBufferMergeChain) {
  decision_arena arena;
  const auto* leaf = arena.leaf();
  const auto* buf = arena.buffered(3, 1, leaf);
  const auto* other = arena.leaf();
  const auto* merge = arena.merged(buf, other);
  EXPECT_EQ(arena.size(), 4u);
  const auto a = extract_design(merge, 10).buffers;
  EXPECT_EQ(a.count(), 1u);
  EXPECT_TRUE(a.has_buffer(3));
  EXPECT_EQ(a.buffer(3), 1u);
}

TEST(DecisionArena, SharedSubDagCountedOnce) {
  decision_arena arena;
  const auto* leaf = arena.leaf();
  const auto* buf = arena.buffered(2, 0, leaf);
  // The same buffered decision feeds both sides of a merge (possible with
  // shared subtrees); extraction must be idempotent.
  const auto* merge = arena.merged(buf, buf);
  const auto a = extract_design(merge, 5).buffers;
  EXPECT_EQ(a.count(), 1u);
}

TEST(DecisionArena, NullRootGivesEmptyAssignment) {
  const auto a = extract_design(nullptr, 4).buffers;
  EXPECT_EQ(a.count(), 0u);
}

TEST(Backtrace, DeepChainDoesNotOverflowStack) {
  decision_arena arena;
  const decision* d = arena.leaf();
  for (int i = 0; i < 200000; ++i) {
    d = arena.buffered(1, 0, d);
  }
  const auto a = extract_design(d, 3).buffers;
  EXPECT_TRUE(a.has_buffer(1));
}

TEST(Backtrace, StatisticalAssignmentReproducesRatMean) {
  // The DP's reported root RAT form must be reproducible by re-walking the
  // tree with the extracted assignment and the same recurrences.
  tree::random_tree_options to;
  to.num_sinks = 30;
  to.die_side_um = 6000.0;
  to.seed = 90;
  const auto t = tree::make_random_tree(to);

  layout::process_model_config c;
  c.mode = layout::wid_mode();
  layout::bbox die = t.bounding_box();
  die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
  layout::process_model model{die, c};

  stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  const auto r = solved(solve_statistical_insertion(t, model, o));

  // Nominal check: replay with the deterministic engine semantics.
  const auto eval = timing::evaluate_buffered_tree(
      t, o.wire, o.library, r.assignment, o.driver_res_ohm);
  // The canonical-form mean differs from the nominal Elmore value only by the
  // statistical-min mean corrections, which are small here.
  EXPECT_NEAR(eval.root_rat_ps, r.root_rat.mean(),
              0.02 * std::abs(eval.root_rat_ps) + 5.0);
}

}  // namespace
}  // namespace vabi::core
