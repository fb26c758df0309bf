// Behavior of the 4P baseline engine: correctness on tiny inputs, candidate
// blow-up and cap-triggered aborts on bigger ones (Table 2's failure mode).
#include <gtest/gtest.h>

#include "core/statistical_dp.hpp"
#include "tree/generators.hpp"
#include "solved_test_util.hpp"

namespace vabi::core {
namespace {

using testutil::solved;

layout::process_model wid_model(const tree::routing_tree& t) {
  layout::process_model_config c;
  c.mode = layout::wid_mode();
  layout::bbox die = t.bounding_box();
  die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
  return layout::process_model{die, c};
}

stat_options four_param_options() {
  stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  o.rule = pruning_kind::four_param;
  return o;
}

TEST(FourParam, CompletesOnTinyTree) {
  tree::random_tree_options to;
  to.num_sinks = 6;
  to.seed = 6;
  const auto t = tree::make_random_tree(to);
  auto model = wid_model(t);
  auto o = four_param_options();
  o.max_candidates = 5'000'000;
  const auto r = solved(solve_statistical_insertion(t, model, o));
  EXPECT_GT(r.num_buffers, 0u);
}

TEST(FourParam, ListCapAbortsCleanly) {
  tree::random_tree_options to;
  to.num_sinks = 50;
  to.seed = 61;
  const auto t = tree::make_random_tree(to);
  auto model = wid_model(t);
  auto o = four_param_options();
  o.max_list_size = 64;
  const auto r = solve_statistical_insertion(t, model, o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), solve_code::candidate_cap);
  EXPECT_EQ(r.error().detail, "candidate list exceeded max_list_size");
}

TEST(FourParam, WallClockCapAborts) {
  tree::random_tree_options to;
  to.num_sinks = 200;
  to.seed = 62;
  const auto t = tree::make_random_tree(to);
  auto model = wid_model(t);
  auto o = four_param_options();
  o.max_wall_seconds = 1e-5;  // fires almost immediately
  const auto r = solve_statistical_insertion(t, model, o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), solve_code::deadline_exceeded);
}

TEST(FourParam, MergeCostQuadraticVersusTwoParamLinear) {
  // On the same mid-size tree, 4P must evaluate far more merge pairs than 2P
  // -- the O(n*m) vs O(n+m) distinction of Section 2.
  tree::random_tree_options to;
  to.num_sinks = 10;
  to.seed = 63;
  const auto t = tree::make_random_tree(to);

  auto m2 = wid_model(t);
  stat_options o2 = four_param_options();
  o2.rule = pruning_kind::two_param;
  const auto r2 = solved(solve_statistical_insertion(t, m2, o2));

  auto m4 = wid_model(t);
  auto o4 = four_param_options();
  o4.max_candidates = 10'000'000;
  o4.max_list_size = 50'000;
  o4.max_wall_seconds = 60.0;
  const auto r4 = solved(solve_statistical_insertion(t, m4, o4));

  EXPECT_GT(r4.stats.merge_pairs, 2 * r2.stats.merge_pairs);
}

}  // namespace
}  // namespace vabi::core
