// Reproducibility and scale stress tests.
//
// Every experiment in EXPERIMENTS.md must be bit-reproducible: the same
// seeds produce the same nets, the same variation spaces and the same
// optimized designs. Also exercises very deep trees (no recursion limits)
// and a mid-size H-tree end to end.
#include <gtest/gtest.h>

#include "core/statistical_dp.hpp"
#include "core/van_ginneken.hpp"
#include "tree/benchmarks.hpp"
#include "tree/generators.hpp"
#include "../core/solved_test_util.hpp"

namespace vabi {
namespace {

using vabi::core::testutil::solved;

TEST(Determinism, StatisticalRunIsBitStable) {
  const auto spec = *tree::find_benchmark("r1");
  const auto run = [&] {
    const auto net = tree::build_benchmark(spec);
    layout::process_model_config c;
    c.mode = layout::wid_mode();
    layout::process_model model{layout::square_die(spec.die_side_um), c};
    core::stat_options o;
    o.library = timing::standard_library();
    o.driver_res_ohm = 150.0;
    return solved(core::solve_statistical_insertion(net, model, o));
  };
  const auto a = run();
  const auto b = run();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.root_rat, b.root_rat);  // identical canonical forms
  EXPECT_EQ(a.num_buffers, b.num_buffers);
  for (std::size_t i = 0; i < a.assignment.num_nodes(); ++i) {
    const auto id = static_cast<tree::node_id>(i);
    EXPECT_EQ(a.assignment.has_buffer(id), b.assignment.has_buffer(id));
  }
}

TEST(Determinism, DifferentSeedsDifferentNets) {
  tree::random_tree_options o;
  o.num_sinks = 50;
  o.seed = 1;
  const auto a = tree::make_random_tree(o);
  o.seed = 2;
  const auto b = tree::make_random_tree(o);
  bool any_diff = false;
  for (tree::node_id id = 0; id < a.num_nodes(); ++id) {
    any_diff |= (a.node(id).location.x != b.node(id).location.x);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Stress, VeryDeepChainDoesNotOverflow) {
  tree::chain_options co;
  co.length_um = 50000.0;
  co.segments = 20000;  // 20k-node path: postorder/backtrace must be iterative
  const auto t = tree::make_chain(co);
  core::det_options o;
  o.library = timing::single_buffer_library();
  o.driver_res_ohm = 150.0;
  const auto r = solved(core::solve_van_ginneken(t, o));
  EXPECT_GT(r.num_buffers, 10u);
  const auto eval = timing::evaluate_buffered_tree(
      t, timing::wire_menu{o.wire}, {}, o.library, r.assignment,
      o.driver_res_ohm);
  EXPECT_NEAR(eval.root_rat_ps, r.root_rat_ps, 1e-6);
}

TEST(Stress, MidSizeHTreeEndToEnd) {
  tree::h_tree_options h;
  h.levels = 6;  // 4096 sinks
  h.die_side_um = 12000.0;
  const auto t = tree::make_h_tree(h);
  layout::process_model_config c;
  c.mode = layout::wid_mode();
  layout::process_model model{layout::square_die(h.die_side_um), c};
  core::stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 100.0;
  const auto r = solved(core::solve_statistical_insertion(t, model, o));
  EXPECT_GT(r.num_buffers, 100u);
  EXPECT_GT(r.root_rat.stddev(model.space()), 0.0);
}

}  // namespace
}  // namespace vabi
