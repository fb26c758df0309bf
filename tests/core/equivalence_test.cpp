// Cross-rule equivalence experiments from the paper, in miniature:
//
//   - 2P and 4P optimize to (nearly) the same root RAT where 4P is feasible
//     (Section 5.2's premise for the runtime comparison being apples/apples);
//   - varying pbar_L, pbar_T in [0.5, 0.95] barely changes the optimized RAT
//     (Section 5.3's last experiment, "< 0.1% difference").
#include <gtest/gtest.h>

#include "core/statistical_dp.hpp"
#include "tree/generators.hpp"
#include "solved_test_util.hpp"

namespace vabi::core {
namespace {

using testutil::solved;

layout::process_model make_wid_model(const tree::routing_tree& t) {
  layout::process_model_config c;
  c.mode = layout::wid_mode();
  layout::bbox die = t.bounding_box();
  die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
  return layout::process_model{die, c};
}

stat_options options_with(pruning_kind kind) {
  stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  o.rule = kind;
  o.max_candidates = 2'000'000;  // keep 4P bounded on the tiny tree
  return o;
}

class RuleEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RuleEquivalence, TwoParamMatchesFourParamOnSmallTrees) {
  tree::random_tree_options to;
  to.num_sinks = 8;
  to.die_side_um = 6000.0;
  to.seed = 3000 + static_cast<std::uint64_t>(GetParam());
  to.sink_cap_min_pf = 0.02;
  to.sink_cap_max_pf = 0.08;
  const auto t = tree::make_random_tree(to);

  auto model_2p = make_wid_model(t);
  const auto r2 = solved(solve_statistical_insertion(
      t, model_2p, options_with(pruning_kind::two_param)));
  auto model_4p = make_wid_model(t);
  const auto r4 = solved(solve_statistical_insertion(
      t, model_4p, options_with(pruning_kind::four_param)));
  // 4P keeps a superset of candidates, so its chosen optimum can only be
  // equal or marginally different; require agreement within 2%.
  const double scale = std::max(1.0, std::abs(r4.root_rat.mean()));
  EXPECT_NEAR(r2.root_rat.mean(), r4.root_rat.mean(), 0.02 * scale)
      << "seed " << to.seed;
}

TEST_P(RuleEquivalence, FourParamKeepsAtLeastAsManyCandidates) {
  tree::random_tree_options to;
  to.num_sinks = 8;
  to.seed = 4000 + static_cast<std::uint64_t>(GetParam());
  const auto t = tree::make_random_tree(to);
  auto m2 = make_wid_model(t);
  auto m4 = make_wid_model(t);
  const auto r2 = solved(solve_statistical_insertion(
      t, m2, options_with(pruning_kind::two_param)));
  const auto r4 = solved(solve_statistical_insertion(
      t, m4, options_with(pruning_kind::four_param)));
  EXPECT_GE(r4.stats.peak_list_size, r2.stats.peak_list_size);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleEquivalence, ::testing::Range(0, 8));

TEST(ParamSweep, PbarBarelyChangesOptimizedRat) {
  tree::random_tree_options to;
  to.num_sinks = 40;
  to.die_side_um = 8000.0;
  to.seed = 55;
  const auto t = tree::make_random_tree(to);

  double reference = 0.0;
  bool first = true;
  for (const double p : {0.5, 0.6, 0.7, 0.8, 0.9, 0.95}) {
    auto model = make_wid_model(t);
    auto options = options_with(pruning_kind::two_param);
    options.two_param.p_load = p;
    options.two_param.p_rat = p;
    const auto r = solved(solve_statistical_insertion(t, model, options));
    if (first) {
      reference = r.root_rat.mean();
      first = false;
    } else {
      EXPECT_NEAR(r.root_rat.mean(), reference,
                  0.005 * std::abs(reference))
          << "p=" << p;
    }
  }
}

TEST(CornerRuleRun, ProducesComparableDesign) {
  tree::random_tree_options to;
  to.num_sinks = 20;
  to.seed = 77;
  const auto t = tree::make_random_tree(to);
  auto m1 = make_wid_model(t);
  auto m2 = make_wid_model(t);
  const auto r2p = solved(solve_statistical_insertion(
      t, m1, options_with(pruning_kind::two_param)));
  const auto r1p = solved(solve_statistical_insertion(
      t, m2, options_with(pruning_kind::corner)));
  const double scale = std::abs(r2p.root_rat.mean());
  EXPECT_NEAR(r1p.root_rat.mean(), r2p.root_rat.mean(), 0.05 * scale);
}

}  // namespace
}  // namespace vabi::core
