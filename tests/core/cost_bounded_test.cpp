#include "core/cost_bounded.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/van_ginneken.hpp"
#include "tree/generators.hpp"
#include "solved_test_util.hpp"

namespace vabi::core {
namespace {

using testutil::solved;

cost_bounded_options make_options(timing::buffer_library lib) {
  cost_bounded_options o;
  o.base.library = std::move(lib);
  o.base.driver_res_ohm = 150.0;
  return o;
}

TEST(CostBounded, FrontierMonotone) {
  tree::random_tree_options to;
  to.num_sinks = 30;
  to.die_side_um = 8000.0;
  to.seed = 21;
  const auto t = tree::make_random_tree(to);
  const auto r = solved(solve_cost_bounded_insertion(
      t, make_options(timing::standard_library())));
  ASSERT_FALSE(r.frontier.empty());
  for (std::size_t i = 1; i < r.frontier.size(); ++i) {
    EXPECT_LT(r.frontier[i - 1].cost, r.frontier[i].cost);
    EXPECT_LT(r.frontier[i - 1].root_rat_ps, r.frontier[i].root_rat_ps);
  }
  // Cost-0 point exists (the unbuffered design).
  EXPECT_DOUBLE_EQ(r.frontier.front().cost, 0.0);
}

TEST(CostBounded, BestFrontierPointMatchesVanGinneken) {
  // The most expensive frontier point is the unconstrained optimum.
  tree::random_tree_options to;
  to.num_sinks = 40;
  to.die_side_um = 8000.0;
  to.seed = 22;
  const auto t = tree::make_random_tree(to);
  const auto o = make_options(timing::standard_library());
  const auto cb = solved(solve_cost_bounded_insertion(t, o));
  const auto vg = solved(solve_van_ginneken(t, o.base));
  ASSERT_FALSE(cb.frontier.empty());
  EXPECT_NEAR(cb.frontier.back().root_rat_ps, vg.root_rat_ps, 1e-9);
}

TEST(CostBounded, CheapestMeetingTarget) {
  tree::random_tree_options to;
  to.num_sinks = 30;
  to.die_side_um = 8000.0;
  to.seed = 23;
  const auto t = tree::make_random_tree(to);
  const auto r = solved(solve_cost_bounded_insertion(
      t, make_options(timing::standard_library())));
  const double best = r.frontier.back().root_rat_ps;
  const double worst = r.frontier.front().root_rat_ps;

  // A target between worst and best is met by something cheaper than max.
  const double target = 0.5 * (best + worst);
  const auto point = r.cheapest_meeting(target);
  ASSERT_TRUE(point.has_value());
  EXPECT_GE(point->root_rat_ps, target);
  EXPECT_LE(point->cost, r.frontier.back().cost);
  // Relaxing the target can only get cheaper.
  const auto relaxed = r.cheapest_meeting(worst);
  ASSERT_TRUE(relaxed.has_value());
  EXPECT_LE(relaxed->cost, point->cost);
  // An impossible target yields nullopt.
  EXPECT_FALSE(r.cheapest_meeting(best + 1.0).has_value());
}

TEST(CostBounded, AssignmentsReproduceFrontierRats) {
  tree::random_tree_options to;
  to.num_sinks = 25;
  to.die_side_um = 8000.0;
  to.seed = 24;
  const auto t = tree::make_random_tree(to);
  const auto o = make_options(timing::standard_library());
  const auto r = solved(solve_cost_bounded_insertion(t, o));
  for (const auto& p : r.frontier) {
    const auto eval = timing::evaluate_buffered_tree(
        t, timing::wire_menu{o.base.wire}, {}, o.base.library, p.assignment,
        o.base.driver_res_ohm);
    EXPECT_NEAR(eval.root_rat_ps, p.root_rat_ps, 1e-6);
    EXPECT_NEAR(static_cast<double>(p.assignment.count()), p.cost, 1e-9);
  }
}

TEST(CostBounded, CustomCostsRespectTypeWeights) {
  tree::chain_options co;
  co.length_um = 6000.0;
  co.segments = 6;
  co.sink_cap_pf = 0.08;
  const auto t = tree::make_chain(co);
  auto o = make_options(timing::standard_library());
  o.buffer_costs = {1.0, 2.0, 4.0};  // area-like weights
  const auto r = solved(solve_cost_bounded_insertion(t, o));
  for (const auto& p : r.frontier) {
    double expected = 0.0;
    for (tree::node_id n = 0; n < p.assignment.num_nodes(); ++n) {
      if (p.assignment.has_buffer(n)) {
        expected += o.buffer_costs[p.assignment.buffer(n)];
      }
    }
    EXPECT_NEAR(p.cost, expected, 1e-9);
  }
}

TEST(CostBounded, MaxCostCapsFrontier) {
  tree::random_tree_options to;
  to.num_sinks = 30;
  to.die_side_um = 8000.0;
  to.seed = 25;
  const auto t = tree::make_random_tree(to);
  auto o = make_options(timing::standard_library());
  o.max_cost = 5.0;
  const auto r = solved(solve_cost_bounded_insertion(t, o));
  for (const auto& p : r.frontier) {
    EXPECT_LE(p.cost, 5.0);
  }
}

TEST(CostBounded, RejectsBadInput) {
  const auto t = tree::make_chain({});
  cost_bounded_options o;
  EXPECT_EQ(solve_cost_bounded_insertion(t, o).code(),
            solve_code::invalid_options);
  o.base.library = timing::standard_library();
  o.buffer_costs = {1.0};  // wrong size
  EXPECT_EQ(solve_cost_bounded_insertion(t, o).code(),
            solve_code::invalid_options);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto expect_field = [&](const char* field) {
    const auto r = solve_cost_bounded_insertion(t, o);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), solve_code::invalid_options);
    EXPECT_NE(r.error().detail.find(field), std::string::npos)
        << r.error().detail;
  };
  o.buffer_costs = {nan, 1.0, 1.0};
  expect_field("buffer_costs");
  o.buffer_costs = {-1.0, -1.0, -1.0};
  expect_field("buffer_costs");
  o.buffer_costs = {1.0, 2.0, 4.0};
  ASSERT_TRUE(solve_cost_bounded_insertion(t, o).ok());
  o.max_cost = nan;
  expect_field("max_cost");
  o.max_cost = -1.0;
  expect_field("max_cost");
}

TEST(CostBounded, MarginalBuffersAreExposedByTheFrontier) {
  // On a net where van Ginneken spends many buffers, the frontier shows how
  // few are needed to get within 1% of the optimum -- the low-power story
  // of [9].
  tree::random_tree_options to;
  to.num_sinks = 60;
  to.die_side_um = 9000.0;
  to.seed = 26;
  const auto t = tree::make_random_tree(to);
  const auto o = make_options(timing::single_buffer_library());
  const auto r = solved(solve_cost_bounded_insertion(t, o));
  const double best = r.frontier.back().root_rat_ps;
  const auto near_opt = r.cheapest_meeting(best - 0.01 * std::abs(best));
  ASSERT_TRUE(near_opt.has_value());
  EXPECT_LT(near_opt->cost, r.frontier.back().cost + 1e-9);
}

}  // namespace
}  // namespace vabi::core
