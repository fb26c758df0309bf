#include "core/van_ginneken.hpp"

#include <gtest/gtest.h>

#include "core/brute_force.hpp"
#include "tree/generators.hpp"
#include "solved_test_util.hpp"

namespace vabi::core {
namespace {

using testutil::solved;

det_options small_options(timing::buffer_library lib) {
  det_options o;
  o.wire = timing::wire_model{};
  o.library = std::move(lib);
  o.driver_res_ohm = 150.0;
  return o;
}

TEST(VanGinneken, ChainMatchesBruteForce) {
  tree::chain_options co;
  co.length_um = 8000.0;
  co.segments = 8;
  co.sink_cap_pf = 0.05;
  const auto t = tree::make_chain(co);
  const auto options = small_options(timing::single_buffer_library());
  const auto dp = solved(solve_van_ginneken(t, options));
  const auto bf = brute_force_insertion(t, options);
  EXPECT_NEAR(dp.root_rat_ps, bf.root_rat_ps, 1e-9);
  EXPECT_GT(dp.num_buffers, 0u);  // 8 mm really needs repeaters
}

TEST(VanGinneken, SmallRandomTreeMatchesBruteForceMultiBuffer) {
  tree::random_tree_options to;
  to.num_sinks = 5;  // 9 positions
  to.die_side_um = 6000.0;
  to.seed = 17;
  to.sink_cap_min_pf = 0.03;
  to.sink_cap_max_pf = 0.08;
  const auto t = tree::make_random_tree(to);
  timing::buffer_library lib{{
      {"b1", 0.0234, 36.4, 1000.0},
      {"b2", 0.0468, 32.0, 500.0},
  }};
  const auto options = small_options(lib);
  const auto dp = solved(solve_van_ginneken(t, options));
  const auto bf = brute_force_insertion(t, options);
  EXPECT_NEAR(dp.root_rat_ps, bf.root_rat_ps, 1e-9);
}

class VanGinnekenOptimality : public ::testing::TestWithParam<int> {};

TEST_P(VanGinnekenOptimality, MatchesBruteForceOnRandomTopologies) {
  tree::random_tree_options to;
  to.num_sinks = 4;  // 7 positions
  to.die_side_um = 5000.0;
  to.seed = 1000 + static_cast<std::uint64_t>(GetParam());
  to.sink_cap_min_pf = 0.02;
  to.sink_cap_max_pf = 0.06;
  const auto t = tree::make_random_tree(to);
  const auto options = small_options(timing::single_buffer_library());
  const auto dp = solved(solve_van_ginneken(t, options));
  const auto bf = brute_force_insertion(t, options);
  EXPECT_NEAR(dp.root_rat_ps, bf.root_rat_ps, 1e-9) << "seed " << to.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, VanGinnekenOptimality, ::testing::Range(0, 15));

TEST(VanGinneken, AssignmentReproducesReportedRat) {
  tree::random_tree_options to;
  to.num_sinks = 120;
  to.die_side_um = 6000.0;
  to.seed = 5;
  const auto t = tree::make_random_tree(to);
  const auto options = small_options(timing::standard_library());
  const auto dp = solved(solve_van_ginneken(t, options));
  const auto eval = timing::evaluate_buffered_tree(
      t, options.wire, options.library, dp.assignment, options.driver_res_ohm);
  EXPECT_NEAR(eval.root_rat_ps, dp.root_rat_ps, 1e-6);
}

TEST(VanGinneken, BuffersImproveLongNets) {
  tree::chain_options co;
  co.length_um = 10000.0;
  co.segments = 20;
  const auto t = tree::make_chain(co);
  const auto options = small_options(timing::single_buffer_library());
  const auto dp = solved(solve_van_ginneken(t, options));
  timing::buffer_assignment none(t.num_nodes());
  const auto unbuffered = timing::evaluate_buffered_tree(
      t, options.wire, options.library, none, options.driver_res_ohm);
  EXPECT_GT(dp.root_rat_ps, unbuffered.root_rat_ps);
}

TEST(VanGinneken, MoreBufferTypesNeverHurt) {
  tree::random_tree_options to;
  to.num_sinks = 60;
  to.seed = 9;
  const auto t = tree::make_random_tree(to);
  const auto one = solved(
      solve_van_ginneken(t, small_options(timing::single_buffer_library())));
  const auto three = solved(
      solve_van_ginneken(t, small_options(timing::standard_library())));
  EXPECT_GE(three.root_rat_ps, one.root_rat_ps - 1e-9);
}

TEST(VanGinneken, StatsArePopulated) {
  tree::random_tree_options to;
  to.num_sinks = 50;
  to.seed = 2;
  const auto t = tree::make_random_tree(to);
  const auto r = solved(
      solve_van_ginneken(t, small_options(timing::standard_library())));
  EXPECT_GT(r.stats.candidates_created, 0u);
  EXPECT_GT(r.stats.peak_list_size, 0u);
  EXPECT_GT(r.stats.merge_pairs, 0u);
  EXPECT_GE(r.stats.wall_seconds, 0.0);
  EXPECT_FALSE(r.stats.aborted);
}

TEST(VanGinneken, RejectsEmptyLibrary) {
  const auto t = tree::make_chain({});
  det_options o;
  EXPECT_EQ(solve_van_ginneken(t, o).code(), solve_code::invalid_options);
}

TEST(BruteForce, RejectsLargeTrees) {
  tree::random_tree_options to;
  to.num_sinks = 30;
  const auto t = tree::make_random_tree(to);
  EXPECT_THROW(
      brute_force_insertion(t, small_options(timing::single_buffer_library())),
      std::invalid_argument);
}

}  // namespace
}  // namespace vabi::core
