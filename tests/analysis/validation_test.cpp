// Model-vs-Monte-Carlo validation (the Fig. 6 experiment, in test form) and
// the reporting helpers.
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/monte_carlo_validation.hpp"
#include "analysis/reporting.hpp"
#include "core/van_ginneken.hpp"
#include "tree/generators.hpp"
#include "../core/solved_test_util.hpp"

namespace vabi::analysis {
namespace {

using vabi::core::testutil::solved;

TEST(Validation, ModelPdfMatchesMonteCarlo) {
  tree::random_tree_options to;
  to.num_sinks = 40;
  to.die_side_um = 7000.0;
  to.seed = 23;
  const auto t = tree::make_random_tree(to);
  timing::wire_model wire;
  const auto lib = timing::standard_library();
  core::det_options o{wire, lib, 150.0};
  const auto assignment = solved(core::solve_van_ginneken(t, o)).assignment;

  layout::process_model_config c;
  c.mode = layout::wid_mode();
  layout::bbox die = t.bounding_box();
  die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
  layout::process_model model{die, c};
  buffered_tree_model design{t, wire, lib, assignment, model, 150.0};

  const auto v = validate_rat_model(design, model, 4000, 77);
  // Fig. 6's claim: the first-order model predicts the MC PDF closely.
  EXPECT_NEAR(v.mc_moments.mean, v.model_mean_ps,
              0.01 * std::abs(v.model_mean_ps));
  ASSERT_GT(v.model_sigma_ps, 0.0);
  EXPECT_NEAR(v.mc_moments.stddev, v.model_sigma_ps, 0.15 * v.model_sigma_ps);
  EXPECT_LT(v.ks_distance, 0.06);
}

TEST(Reporting, TableFormatsAndAligns) {
  text_table t{{"Bench", "RAT"}};
  t.add_row({"p1", "-2611.7"});
  t.add_row({"r5", "-2703.3"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Bench"), std::string::npos);
  EXPECT_NE(s.find("| p1"), std::string::npos);
  EXPECT_NE(s.find("-2703.3"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-cell"}), std::invalid_argument);
}

TEST(Reporting, Formatters) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(-2673.46, 1), "-2673.5");
  EXPECT_EQ(fmt_percent(0.4216, 1), "42.2%");
  EXPECT_EQ(fmt_percent(1.0, 0), "100%");
}

TEST(Reporting, HistogramAndSeriesDoNotChokeOnEdgeCases) {
  std::ostringstream os;
  print_histogram(os, {{0.0, 0.0}, {1.0, 0.0}});  // flat (peak guard)
  print_series(os, "x", "y", {{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_FALSE(os.str().empty());
}

}  // namespace
}  // namespace vabi::analysis
