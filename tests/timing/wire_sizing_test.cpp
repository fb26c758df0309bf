#include "timing/wire_sizing.hpp"

#include <gtest/gtest.h>

#include "timing/elmore.hpp"
#include "tree/generators.hpp"

namespace vabi::timing {
namespace {

TEST(WireMenu, SingleWidthMenu) {
  const wire_menu m{wire_model{}};
  EXPECT_EQ(m.size(), 1u);
  EXPECT_FALSE(m.sizing_enabled());
  EXPECT_DOUBLE_EQ(m.multiplier(0), 1.0);
}

TEST(WireMenu, MultipliersScaleRandC) {
  const wire_model base{0.2, 0.0002};
  const wire_menu m{base, {1.0, 2.0, 4.0}};
  EXPECT_TRUE(m.sizing_enabled());
  ASSERT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m[1].res_per_um, 0.1);
  EXPECT_DOUBLE_EQ(m[1].cap_per_um, 0.0004);
  EXPECT_DOUBLE_EQ(m[2].res_per_um, 0.05);
  EXPECT_DOUBLE_EQ(m[2].cap_per_um, 0.0008);
}

TEST(WireMenu, FringeCapDoesNotScale) {
  const wire_model base{0.2, 0.0002};
  const wire_menu m{base, {1.0, 2.0}, 0.0001};
  EXPECT_DOUBLE_EQ(m[0].cap_per_um, 0.0003);
  EXPECT_DOUBLE_EQ(m[1].cap_per_um, 0.0005);
}

TEST(WireMenu, RejectsBadInput) {
  const wire_model base{0.2, 0.0002};
  EXPECT_THROW(wire_menu(base, {}), std::invalid_argument);
  EXPECT_THROW(wire_menu(base, {1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(wire_menu(base, {1.0}, -0.1), std::invalid_argument);
}

TEST(WireAssignment, DefaultsAndHistogram) {
  wire_assignment a(5);
  EXPECT_EQ(a.count_nondefault(), 0u);
  a.set(2, 1);
  a.set(4, 2);
  EXPECT_EQ(a.count_nondefault(), 2u);
  EXPECT_EQ(a.width(2), 1u);
  EXPECT_EQ(a.width(99), 0u);  // out-of-range reads as default
  EXPECT_EQ(a.width(0), 0u);
  EXPECT_EQ(a.width(4), 2u);
}

TEST(WireSizing, ElmoreEvaluationUsesSelectedWidths) {
  // Single long wire: a wider (lower-R) wire into a big sink is faster.
  tree::routing_tree t{{0.0, 0.0}};
  const auto s = t.add_sink(t.root(), {4000.0, 0.0}, 0.2, 0.0);
  const auto lib = single_buffer_library();
  buffer_assignment none(t.num_nodes());
  const wire_menu menu{wire_model{}, {1.0, 3.0}};

  wire_assignment narrow(t.num_nodes());
  wire_assignment wide(t.num_nodes());
  wide.set(s, 1);
  const auto r_narrow =
      evaluate_buffered_tree(t, menu, narrow, lib, none, 0.0);
  const auto r_wide = evaluate_buffered_tree(t, menu, wide, lib, none, 0.0);
  EXPECT_GT(r_wide.root_rat_ps, r_narrow.root_rat_ps);
  EXPECT_GT(r_wide.root_load_pf, r_narrow.root_load_pf);  // more wire cap
}

TEST(WireSizing, SingleWidthOverloadMatchesBase) {
  // The single-width menu with an empty assignment evaluates every edge on
  // the base wire, exactly as width 0 of a sized menu does.
  tree::random_tree_options to;
  to.num_sinks = 20;
  to.seed = 3;
  const auto t = tree::make_random_tree(to);
  const auto lib = standard_library();
  buffer_assignment a(t.num_nodes());
  a.place(2, 0);
  const wire_model base{};
  const auto r1 = evaluate_buffered_tree(t, wire_menu{base}, wire_assignment{},
                                         lib, a, 100.0);
  const auto r2 = evaluate_buffered_tree(t, wire_menu{base, {1.0, 3.0}},
                                         wire_assignment(t.num_nodes()), lib,
                                         a, 100.0);
  EXPECT_DOUBLE_EQ(r1.root_rat_ps, r2.root_rat_ps);
}

}  // namespace
}  // namespace vabi::timing
