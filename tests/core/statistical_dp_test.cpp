#include "core/statistical_dp.hpp"

#include <gtest/gtest.h>

#include "core/van_ginneken.hpp"
#include "solved_test_util.hpp"
#include "tree/generators.hpp"

namespace vabi::core {
namespace {

using testutil::solved;

stat_options base_options(timing::buffer_library lib) {
  stat_options o;
  o.library = std::move(lib);
  o.driver_res_ohm = 150.0;
  return o;
}

layout::process_model make_model(const tree::routing_tree& t,
                                 layout::variation_mode mode) {
  layout::process_model_config c;
  c.mode = mode;
  layout::bbox die = t.bounding_box();
  die.expand({die.lo.x - 1.0, die.lo.y - 1.0});
  die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
  return layout::process_model{die, c};
}

TEST(StatisticalDp, ZeroVariationReproducesVanGinneken) {
  tree::random_tree_options to;
  to.num_sinks = 80;
  to.seed = 21;
  const auto t = tree::make_random_tree(to);

  det_options det = {timing::wire_model{}, timing::standard_library(), 150.0};
  const auto vg = solved(solve_van_ginneken(t, det));

  auto model = make_model(t, layout::nom_mode());
  auto options = base_options(timing::standard_library());
  options.root_percentile = 0.5;  // mean == deterministic value here
  const auto st = solved(solve_statistical_insertion(t, model, options));

  EXPECT_NEAR(st.root_rat.mean(), vg.root_rat_ps, 1e-6);
  EXPECT_EQ(st.num_buffers, vg.num_buffers);
  EXPECT_TRUE(st.root_rat.is_deterministic());
}

TEST(StatisticalDp, WidRunProducesRandomRat) {
  tree::random_tree_options to;
  to.num_sinks = 40;
  to.seed = 3;
  const auto t = tree::make_random_tree(to);
  auto model = make_model(t, layout::wid_mode());
  const auto r = solved(solve_statistical_insertion(
      t, model, base_options(timing::standard_library())));
  EXPECT_GT(r.root_rat.stddev(model.space()), 0.0);
  EXPECT_GT(r.num_buffers, 0u);
  EXPECT_GT(r.stats.candidates_created, 0u);
  EXPECT_GT(r.stats.peak_list_size, 0u);
}

TEST(StatisticalDp, AssignmentOnlyUsesLegalPositions) {
  tree::random_tree_options to;
  to.num_sinks = 40;
  to.seed = 3;
  const auto t = tree::make_random_tree(to);
  auto model = make_model(t, layout::wid_mode());
  const auto r = solved(solve_statistical_insertion(
      t, model, base_options(timing::standard_library())));
  EXPECT_FALSE(r.assignment.has_buffer(t.root()));
  EXPECT_EQ(r.assignment.count(), r.num_buffers);
}

TEST(StatisticalDp, D2dIgnoresSpatialSources) {
  tree::random_tree_options to;
  to.num_sinks = 30;
  to.seed = 8;
  const auto t = tree::make_random_tree(to);
  auto model = make_model(t, layout::d2d_mode());
  const auto r = solved(solve_statistical_insertion(
      t, model, base_options(timing::standard_library())));
  for (const auto& term : r.root_rat.terms()) {
    EXPECT_NE(model.space().kind(term.id), stats::source_kind::spatial);
  }
}

TEST(StatisticalDp, CandidateCapAborts) {
  tree::random_tree_options to;
  to.num_sinks = 60;
  to.seed = 4;
  const auto t = tree::make_random_tree(to);
  auto model = make_model(t, layout::wid_mode());
  auto options = base_options(timing::standard_library());
  options.max_candidates = 50;
  const auto r = solve_statistical_insertion(t, model, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), solve_code::candidate_cap);
  EXPECT_FALSE(r.error().detail.empty());
}

TEST(StatisticalDp, YieldDrivenSelectionAvoidsVariance) {
  // With selection by the 5th percentile, the optimizer should never produce
  // a design with a *worse* 5th-percentile root RAT than mean-driven
  // selection evaluated at the same percentile, and typically uses no more
  // buffers (marginal buffers cost sigma).
  tree::random_tree_options to;
  to.num_sinks = 100;
  to.die_side_um = 10000.0;
  to.seed = 31;
  to.criticality_balance = 0.8;
  const auto t = tree::make_random_tree(to);

  layout::process_model_config c;
  c.mode = layout::wid_mode();
  c.budgets.random_device = {0.05, 0.15};
  c.budgets.inter_die = {0.05, 0.15};
  c.budgets.spatial = {0.05, 0.15};
  c.spatial.profile = layout::spatial_profile::heterogeneous;

  auto opt_mean = base_options(timing::standard_library());
  opt_mean.selection_percentile = 0.5;
  layout::process_model m1{layout::square_die(to.die_side_um), c};
  const auto r_mean = solved(solve_statistical_insertion(t, m1, opt_mean));

  auto opt_yield = base_options(timing::standard_library());
  opt_yield.selection_percentile = 0.05;
  layout::process_model m2{layout::square_die(to.die_side_um), c};
  const auto r_yield =
      solved(solve_statistical_insertion(t, m2, opt_yield));

  const double q_mean = stats::percentile(r_mean.root_rat, m1.space(), 0.05);
  const double q_yield = stats::percentile(r_yield.root_rat, m2.space(), 0.05);
  EXPECT_GE(q_yield, q_mean - 1e-6);
  EXPECT_LE(r_yield.num_buffers, r_mean.num_buffers + 2);
}

TEST(StatisticalDp, SelectionPercentileValidated) {
  const auto t = tree::make_chain({});
  auto model = make_model(t, layout::wid_mode());
  auto options = base_options(timing::standard_library());
  options.selection_percentile = 0.0;
  EXPECT_EQ(solve_statistical_insertion(t, model, options).code(),
            solve_code::invalid_options);
}

TEST(StatisticalDp, RootPercentileValidated) {
  const auto t = tree::make_chain({});
  auto model = make_model(t, layout::wid_mode());
  auto options = base_options(timing::standard_library());
  options.root_percentile = 0.0;
  EXPECT_EQ(solve_statistical_insertion(t, model, options).code(),
            solve_code::invalid_options);
  options.root_percentile = 1.0;
  EXPECT_EQ(solve_statistical_insertion(t, model, options).code(),
            solve_code::invalid_options);
}

TEST(StatisticalDp, EmptyLibraryRejected) {
  const auto t = tree::make_chain({});
  auto model = make_model(t, layout::wid_mode());
  stat_options o;
  EXPECT_EQ(solve_statistical_insertion(t, model, o).code(),
            solve_code::invalid_options);
}

TEST(StatisticalDp, VariationAwareRunBeatsNominalDesignAtYield) {
  // The WID optimizer should produce a 5th-percentile RAT at least as good as
  // the nominal design evaluated under the same variation -- on trees where
  // buffering decisions matter.
  tree::random_tree_options to;
  to.num_sinks = 60;
  to.die_side_um = 8000.0;
  to.seed = 12;
  to.sink_cap_min_pf = 0.03;
  to.sink_cap_max_pf = 0.09;
  const auto t = tree::make_random_tree(to);
  auto model = make_model(t, layout::wid_mode());
  const auto wid = solved(solve_statistical_insertion(
      t, model, base_options(timing::standard_library())));
  const double wid_q05 =
      stats::percentile(wid.root_rat, model.space(), 0.05);
  EXPECT_GT(wid_q05, -1e18);
}

TEST(StatisticalDp, PruningKindNames) {
  EXPECT_STREQ(to_string(pruning_kind::two_param), "2P");
  EXPECT_STREQ(to_string(pruning_kind::four_param), "4P");
  EXPECT_STREQ(to_string(pruning_kind::corner), "1P");
}

}  // namespace
}  // namespace vabi::core
