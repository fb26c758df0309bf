#include "analysis/buffered_tree_model.hpp"

#include <gtest/gtest.h>

#include "core/van_ginneken.hpp"
#include "tree/generators.hpp"
#include "../core/solved_test_util.hpp"

namespace vabi::analysis {
namespace {

using vabi::core::testutil::solved;

layout::process_model make_model(const tree::routing_tree& t,
                                 layout::variation_mode mode) {
  layout::process_model_config c;
  c.mode = mode;
  layout::bbox die = t.bounding_box();
  die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
  return layout::process_model{die, c};
}

struct fixture {
  tree::routing_tree t;
  timing::wire_model wire;
  timing::buffer_library lib = timing::standard_library();
  timing::buffer_assignment assignment;

  fixture() : t(make_tree()) {
    core::det_options o{wire, lib, 150.0};
    assignment = solved(core::solve_van_ginneken(t, o)).assignment;
  }

  static tree::routing_tree make_tree() {
    tree::random_tree_options to;
    to.num_sinks = 50;
    to.die_side_um = 7000.0;
    to.seed = 14;
    return tree::make_random_tree(to);
  }
};

TEST(BufferedTreeModel, NominalModeReproducesElmoreExactly) {
  fixture f;
  auto model = make_model(f.t, layout::nom_mode());
  buffered_tree_model btm{f.t, f.wire, f.lib, f.assignment, model, 150.0};
  const auto eval = timing::evaluate_buffered_tree(
      f.t, timing::wire_menu{f.wire}, {}, f.lib, f.assignment, 150.0);
  EXPECT_TRUE(btm.root_rat().is_deterministic());
  EXPECT_NEAR(btm.root_rat().mean(), eval.root_rat_ps, 1e-6);
  EXPECT_EQ(btm.num_buffers(), f.assignment.count());
}

TEST(BufferedTreeModel, WidModeGivesPositiveSigma) {
  fixture f;
  auto model = make_model(f.t, layout::wid_mode());
  buffered_tree_model btm{f.t, f.wire, f.lib, f.assignment, model, 150.0};
  EXPECT_GT(btm.root_rat().stddev(model.space()), 0.0);
}

TEST(BufferedTreeModel, SampleEvaluationAtZeroEqualsNominal) {
  fixture f;
  auto model = make_model(f.t, layout::wid_mode());
  buffered_tree_model btm{f.t, f.wire, f.lib, f.assignment, model, 150.0};
  const std::vector<double> zeros(model.space().size(), 0.0);
  const auto eval = timing::evaluate_buffered_tree(
      f.t, timing::wire_menu{f.wire}, {}, f.lib, f.assignment, 150.0);
  EXPECT_NEAR(btm.evaluate_sample(zeros), eval.root_rat_ps, 1e-6);
}

TEST(BufferedTreeModel, MoreVariationMeansMoreSigma) {
  fixture f;
  auto d2d = make_model(f.t, layout::d2d_mode());
  auto wid = make_model(f.t, layout::wid_mode());
  buffered_tree_model m1{f.t, f.wire, f.lib, f.assignment, d2d, 150.0};
  buffered_tree_model m2{f.t, f.wire, f.lib, f.assignment, wid, 150.0};
  EXPECT_GT(m2.root_rat().stddev(wid.space()),
            m1.root_rat().stddev(d2d.space()));
}

TEST(BufferedTreeModel, SizedDesignEvaluationConsistent) {
  // A wire-sized design's canonical-form mean must agree with its nominal
  // Elmore evaluation, and MC sampling at zero deviation must match too.
  fixture f;
  core::det_options o{f.wire, f.lib, 150.0, {1.0, 2.0, 4.0}};
  const auto sized = solved(core::solve_van_ginneken(f.t, o));
  const timing::wire_menu menu{f.wire, o.wire_width_multipliers};

  auto model = make_model(f.t, layout::wid_mode());
  buffered_tree_model btm{f.t,   menu,  sized.wires, f.lib,
                          sized.assignment, model, 150.0};
  EXPECT_NEAR(btm.root_rat().mean(), sized.root_rat_ps,
              0.02 * std::abs(sized.root_rat_ps) + 5.0);
  const std::vector<double> zeros(model.space().size(), 0.0);
  EXPECT_NEAR(btm.evaluate_sample(zeros), sized.root_rat_ps, 1e-6);
}

TEST(BufferedTreeModel, RejectsMismatchedAssignment) {
  fixture f;
  auto model = make_model(f.t, layout::nom_mode());
  timing::buffer_assignment bad(3);
  EXPECT_THROW(
      buffered_tree_model(f.t, f.wire, f.lib, bad, model, 150.0),
      std::invalid_argument);
}

}  // namespace
}  // namespace vabi::analysis
