// End-to-end: the full Table 3 pipeline on one small benchmark -- optimize
// with NOM / D2D / WID, evaluate all three designs under the same full
// variation model, and check the paper's qualitative orderings.
#include <gtest/gtest.h>

#include "analysis/buffered_tree_model.hpp"
#include "analysis/yield.hpp"
#include "core/statistical_dp.hpp"
#include "core/van_ginneken.hpp"
#include "tree/benchmarks.hpp"
#include "../core/solved_test_util.hpp"

namespace vabi {
namespace {

using vabi::core::testutil::solved;

struct pipeline {
  tree::routing_tree net;
  timing::wire_model wire;
  timing::buffer_library lib = timing::standard_library();
  double driver_res = 150.0;
  layout::bbox die;

  explicit pipeline(std::size_t sinks) {
    tree::random_tree_options to;
    to.num_sinks = sinks;
    to.die_side_um = 6000.0;
    to.seed = 777;
    to.sink_cap_min_pf = 0.02;
    to.sink_cap_max_pf = 0.08;
    net = tree::make_random_tree(to);
    die = layout::square_die(to.die_side_um);
  }

  layout::process_model model(layout::variation_mode mode,
                              layout::spatial_profile profile) const {
    layout::process_model_config c;
    c.mode = mode;
    c.spatial.profile = profile;
    return layout::process_model{die, c};
  }

  timing::buffer_assignment optimize(layout::variation_mode mode,
                                     layout::spatial_profile profile) {
    if (mode == layout::nom_mode()) {
      core::det_options o{wire, lib, driver_res};
      return solved(core::solve_van_ginneken(net, o)).assignment;
    }
    auto m = model(mode, profile);
    core::stat_options o;
    o.wire = wire;
    o.library = lib;
    o.driver_res_ohm = driver_res;
    const auto r = solved(core::solve_statistical_insertion(net, m, o));
    return r.assignment;
  }
};

TEST(EndToEnd, Table3PipelineQualitativeOrdering) {
  pipeline p{120};
  const auto profile = layout::spatial_profile::heterogeneous;

  const auto nom = p.optimize(layout::nom_mode(), profile);
  const auto d2d = p.optimize(layout::d2d_mode(), profile);
  const auto wid = p.optimize(layout::wid_mode(), profile);

  // Evaluate every design under the same full variation model.
  auto eval_model = p.model(layout::wid_mode(), profile);
  analysis::buffered_tree_model nom_m{p.net, p.wire, p.lib, nom, eval_model,
                                      p.driver_res};
  analysis::buffered_tree_model d2d_m{p.net, p.wire, p.lib, d2d, eval_model,
                                      p.driver_res};
  analysis::buffered_tree_model wid_m{p.net, p.wire, p.lib, wid, eval_model,
                                      p.driver_res};

  const auto& space = eval_model.space();
  const double q_nom = analysis::yield_rat(nom_m.root_rat(), space);
  const double q_d2d = analysis::yield_rat(d2d_m.root_rat(), space);
  const double q_wid = analysis::yield_rat(wid_m.root_rat(), space);

  // The variation-aware design must not lose at its own game (small slack
  // for heuristic pruning).
  const double slack = 0.02 * std::abs(q_wid);
  EXPECT_GE(q_wid + slack, q_nom);
  EXPECT_GE(q_wid + slack, q_d2d);

  // Timing yield at the paper's target: WID essentially always passes.
  const double target =
      analysis::target_rat_from_mean(wid_m.root_rat().mean());
  EXPECT_GT(analysis::timing_yield(wid_m.root_rat(), space, target), 0.95);
}

TEST(EndToEnd, AllDesignsRemainValidTrees) {
  pipeline p{60};
  const auto wid = p.optimize(layout::wid_mode(),
                              layout::spatial_profile::homogeneous);
  EXPECT_FALSE(wid.has_buffer(p.net.root()));
  EXPECT_NO_THROW(p.net.validate());
  // Every placed buffer is at a legal position with a valid type.
  for (tree::node_id id = 0; id < p.net.num_nodes(); ++id) {
    if (wid.has_buffer(id)) {
      EXPECT_LT(wid.buffer(id), p.lib.size());
      EXPECT_NE(id, p.net.root());
    }
  }
}

}  // namespace
}  // namespace vabi
