#include "analysis/variance_breakdown.hpp"

#include <gtest/gtest.h>

#include "core/statistical_dp.hpp"
#include "tree/generators.hpp"
#include "../core/solved_test_util.hpp"

namespace vabi::analysis {
namespace {

using vabi::core::testutil::solved;

TEST(VarianceBreakdown, SplitsExactlyByClass) {
  stats::variation_space space;
  const auto x = space.add_source(stats::source_kind::random_device, 2.0);
  const auto y = space.add_source(stats::source_kind::spatial, 1.0);
  const auto g = space.add_source(stats::source_kind::inter_die, 0.5);
  stats::linear_form f{10.0, {{x, 1.0}, {y, 3.0}, {g, 4.0}}};
  const auto b = decompose_variance(f, space);
  EXPECT_DOUBLE_EQ(b.random_device, 4.0);   // 1^2 * 2^2
  EXPECT_DOUBLE_EQ(b.spatial, 9.0);         // 3^2 * 1^2
  EXPECT_DOUBLE_EQ(b.inter_die, 4.0);       // 4^2 * 0.5^2
  EXPECT_DOUBLE_EQ(b.parametric, 0.0);
  EXPECT_DOUBLE_EQ(b.total(), f.variance(space));
  EXPECT_NEAR(b.fraction(b.spatial), 9.0 / 17.0, 1e-12);
}

TEST(VarianceBreakdown, DeterministicFormIsAllZero) {
  stats::variation_space space;
  const auto b = decompose_variance(stats::linear_form{5.0}, space);
  EXPECT_DOUBLE_EQ(b.total(), 0.0);
  EXPECT_DOUBLE_EQ(b.fraction(b.spatial), 0.0);
}

TEST(VarianceBreakdown, D2dDesignHasNoSpatialVariance) {
  tree::random_tree_options to;
  to.num_sinks = 40;
  to.die_side_um = 8000.0;
  to.seed = 33;
  const auto t = tree::make_random_tree(to);
  layout::process_model_config c;
  c.mode = layout::d2d_mode();
  layout::process_model model{layout::square_die(to.die_side_um), c};
  core::stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  const auto r = solved(core::solve_statistical_insertion(t, model, o));
  const auto b = decompose_variance(r.root_rat, model.space());
  EXPECT_DOUBLE_EQ(b.spatial, 0.0);
  EXPECT_GT(b.random_device, 0.0);
  EXPECT_GT(b.inter_die, 0.0);
  EXPECT_NEAR(b.total(), r.root_rat.variance(model.space()), 1e-9);
}

TEST(VarianceBreakdown, InterDieDominatesDeepBufferChains) {
  // Many buffers in series: their inter-die contributions add linearly
  // (coherently) while random contributions add in quadrature, so inter-die
  // dominates on long chains -- the "variation canceling" observation of
  // Section 5.3.
  tree::chain_options co;
  co.length_um = 16000.0;
  co.segments = 32;
  co.sink_cap_pf = 0.05;
  const auto t = tree::make_chain(co);
  layout::process_model_config c;
  c.mode = layout::d2d_mode();
  layout::process_model model{layout::square_die(16000.0), c};
  core::stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  const auto r = solved(core::solve_statistical_insertion(t, model, o));
  ASSERT_GT(r.num_buffers, 4u);
  const auto b = decompose_variance(r.root_rat, model.space());
  EXPECT_GT(b.inter_die, b.random_device);
}

}  // namespace
}  // namespace vabi::analysis
