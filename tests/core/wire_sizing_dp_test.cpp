// Simultaneous buffer insertion + wire sizing (the [8] extension) in both
// DP engines: optimality against a sized brute force on tiny nets, monotone
// improvement over buffering alone, and backtrace consistency.
#include <gtest/gtest.h>

#include "core/statistical_dp.hpp"
#include "core/van_ginneken.hpp"
#include "tree/generators.hpp"
#include "solved_test_util.hpp"

namespace vabi::core {
namespace {

using testutil::solved;

const std::vector<double> k_widths{1.0, 2.0, 4.0};

det_options sized_options() {
  det_options o;
  o.library = timing::single_buffer_library();
  o.driver_res_ohm = 150.0;
  o.wire_width_multipliers = k_widths;
  return o;
}

// Exhaustive oracle over buffers AND widths for very small chains.
double brute_force_sized_rat(const tree::routing_tree& t,
                             const det_options& o) {
  const timing::wire_menu menu{o.wire, o.wire_width_multipliers};
  const std::size_t positions = t.num_nodes() - 1;
  const std::size_t bchoices = o.library.size() + 1;
  double best = -std::numeric_limits<double>::infinity();
  std::vector<std::size_t> bsel(positions, 0);
  std::vector<std::size_t> wsel(positions, 0);
  const auto advance = [](std::vector<std::size_t>& v, std::size_t radix) {
    std::size_t i = 0;
    while (i < v.size() && ++v[i] == radix) {
      v[i] = 0;
      ++i;
    }
    return i < v.size();
  };
  bool more_b = true;
  while (more_b) {
    timing::buffer_assignment ba(t.num_nodes());
    for (std::size_t i = 0; i < positions; ++i) {
      if (bsel[i] != 0) {
        ba.place(static_cast<tree::node_id>(i + 1),
                 static_cast<timing::buffer_index>(bsel[i] - 1));
      }
    }
    bool more_w = true;
    std::fill(wsel.begin(), wsel.end(), 0);
    while (more_w) {
      timing::wire_assignment wa(t.num_nodes());
      for (std::size_t i = 0; i < positions; ++i) {
        wa.set(static_cast<tree::node_id>(i + 1),
               static_cast<timing::width_index>(wsel[i]));
      }
      const auto r = timing::evaluate_buffered_tree(t, menu, wa, o.library, ba,
                                                    o.driver_res_ohm);
      best = std::max(best, r.root_rat_ps);
      more_w = advance(wsel, menu.size());
    }
    more_b = advance(bsel, bchoices);
  }
  return best;
}

TEST(WireSizingDp, ChainMatchesSizedBruteForce) {
  tree::chain_options co;
  co.length_um = 6000.0;
  co.segments = 4;
  co.sink_cap_pf = 0.08;
  const auto t = tree::make_chain(co);
  const auto o = sized_options();
  const auto dp = solved(solve_van_ginneken(t, o));
  const double oracle = brute_force_sized_rat(t, o);
  EXPECT_NEAR(dp.root_rat_ps, oracle, 1e-9);
}

class SizedOptimality : public ::testing::TestWithParam<int> {};

TEST_P(SizedOptimality, SmallRandomTreesMatchOracle) {
  tree::random_tree_options to;
  to.num_sinks = 3;  // 5 positions: 2^5 buffers x 3^5 widths = manageable
  to.die_side_um = 6000.0;
  to.seed = 7000 + static_cast<std::uint64_t>(GetParam());
  to.sink_cap_min_pf = 0.03;
  to.sink_cap_max_pf = 0.09;
  const auto t = tree::make_random_tree(to);
  const auto o = sized_options();
  const auto dp = solved(solve_van_ginneken(t, o));
  EXPECT_NEAR(dp.root_rat_ps, brute_force_sized_rat(t, o), 1e-9)
      << "seed " << to.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SizedOptimality, ::testing::Range(0, 8));

TEST(WireSizingDp, SizingNeverHurts) {
  tree::random_tree_options to;
  to.num_sinks = 80;
  to.die_side_um = 9000.0;
  to.seed = 9;
  const auto t = tree::make_random_tree(to);
  det_options plain;
  plain.library = timing::standard_library();
  plain.driver_res_ohm = 150.0;
  det_options sized = plain;
  sized.wire_width_multipliers = k_widths;
  const auto r_plain = solved(solve_van_ginneken(t, plain));
  const auto r_sized = solved(solve_van_ginneken(t, sized));
  EXPECT_GE(r_sized.root_rat_ps, r_plain.root_rat_ps - 1e-9);
}

TEST(WireSizingDp, BacktraceReproducesReportedRat) {
  tree::random_tree_options to;
  to.num_sinks = 60;
  to.die_side_um = 9000.0;
  to.seed = 10;
  const auto t = tree::make_random_tree(to);
  det_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  o.wire_width_multipliers = k_widths;
  const auto dp = solved(solve_van_ginneken(t, o));
  const timing::wire_menu menu{o.wire, o.wire_width_multipliers};
  const auto eval = timing::evaluate_buffered_tree(
      t, menu, dp.wires, o.library, dp.assignment, o.driver_res_ohm);
  EXPECT_NEAR(eval.root_rat_ps, dp.root_rat_ps, 1e-6);
  // Sizing actually got used somewhere on a net this large.
  EXPECT_GT(dp.wires.count_nondefault(), 0u);
}

TEST(WireSizingDp, StatisticalEngineSupportsSizing) {
  tree::random_tree_options to;
  to.num_sinks = 40;
  to.die_side_um = 9000.0;
  to.seed = 11;
  const auto t = tree::make_random_tree(to);

  layout::process_model_config c;
  c.mode = layout::wid_mode();
  layout::bbox die = t.bounding_box();
  die.expand({die.hi.x + 1.0, die.hi.y + 1.0});

  core::stat_options plain;
  plain.library = timing::standard_library();
  plain.driver_res_ohm = 150.0;
  core::stat_options sized = plain;
  sized.wire_width_multipliers = k_widths;

  layout::process_model m1{die, c};
  const auto r_plain = solved(solve_statistical_insertion(t, m1, plain));
  layout::process_model m2{die, c};
  const auto r_sized = solved(solve_statistical_insertion(t, m2, sized));
  // Sizing widens the design space: the chosen percentile objective cannot
  // get worse (compare in each run's own space; means are comparable).
  EXPECT_GE(r_sized.root_rat.mean(), r_plain.root_rat.mean() - 1.0);
  EXPECT_GT(r_sized.wires.count_nondefault(), 0u);
}

TEST(WireSizingDp, ZeroVariationSizedMatchesDeterministicSized) {
  tree::random_tree_options to;
  to.num_sinks = 50;
  to.die_side_um = 9000.0;
  to.seed = 12;
  const auto t = tree::make_random_tree(to);

  det_options det;
  det.library = timing::standard_library();
  det.driver_res_ohm = 150.0;
  det.wire_width_multipliers = k_widths;
  const auto vg = solved(solve_van_ginneken(t, det));

  layout::process_model_config c;
  c.mode = layout::nom_mode();
  layout::bbox die = t.bounding_box();
  die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
  layout::process_model model{die, c};
  core::stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  o.wire_width_multipliers = k_widths;
  o.root_percentile = 0.5;
  const auto st = solved(solve_statistical_insertion(t, model, o));
  EXPECT_NEAR(st.root_rat.mean(), vg.root_rat_ps, 1e-6);
}

}  // namespace
}  // namespace vabi::core
