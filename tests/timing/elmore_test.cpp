#include "timing/elmore.hpp"

#include <gtest/gtest.h>

#include "tree/generators.hpp"

namespace vabi::timing {
namespace {

class ElmoreTest : public ::testing::Test {
 protected:
  wire_menu wire_{wire_model{0.1, 0.002}};  // ohm/um, pF/um
  buffer_library lib_ = single_buffer_library();
};

TEST_F(ElmoreTest, UnbufferedSingleWire) {
  tree::routing_tree t{{0.0, 0.0}};
  t.add_sink(t.root(), {100.0, 0.0}, 0.05, 0.0);
  buffer_assignment a(t.num_nodes());
  const auto r = evaluate_buffered_tree(t, wire_, {}, lib_, a, 0.0);
  // RAT = 0 - (r*l*C + r*c*l^2/2) = -(0.1*100*0.05 + 0.1*0.002*10^4/2) = -1.5.
  EXPECT_NEAR(r.root_rat_ps, -1.5, 1e-12);
  EXPECT_NEAR(r.root_load_pf, 0.05 + 0.002 * 100.0, 1e-12);
}

TEST_F(ElmoreTest, DriverResistanceChargesRootLoad) {
  tree::routing_tree t{{0.0, 0.0}};
  t.add_sink(t.root(), {100.0, 0.0}, 0.05, 0.0);
  buffer_assignment a(t.num_nodes());
  const auto r0 = evaluate_buffered_tree(t, wire_, {}, lib_, a, 0.0);
  const auto r1 = evaluate_buffered_tree(t, wire_, {}, lib_, a, 200.0);
  EXPECT_NEAR(r1.root_rat_ps, r0.root_rat_ps - 200.0 * r0.root_load_pf, 1e-12);
}

TEST_F(ElmoreTest, BranchTakesMinRatAndSumsLoad) {
  tree::routing_tree t{{0.0, 0.0}};
  const auto a = t.add_steiner(t.root(), {0.0, 0.0}, 0.0);
  t.add_sink(a, {100.0, 0.0}, 0.05, 0.0);    // slower branch
  t.add_sink(a, {10.0, 0.0}, 0.01, 100.0);   // fast branch, generous RAT
  buffer_assignment asg(t.num_nodes());
  const auto r = evaluate_buffered_tree(t, wire_, {}, lib_, asg, 0.0);
  EXPECT_NEAR(r.root_rat_ps, -1.5, 1e-12);  // min is the slow branch
  EXPECT_NEAR(r.root_load_pf, (0.05 + 0.2) + (0.01 + 0.02), 1e-12);
}

TEST_F(ElmoreTest, BufferShieldsDownstreamLoad) {
  // Long wire + big sink under the *default* (global-wire) RC: a midpoint
  // buffer must help. (The fixture's heavy test wire is deliberately not
  // used here -- at 2 fF/um no single repeater pays off.)
  const wire_menu wire{wire_model{}};
  tree::routing_tree t{{0.0, 0.0}};
  const auto mid = t.add_steiner(t.root(), {4000.0, 0.0});
  t.add_sink(mid, {8000.0, 0.0}, 0.2, 0.0);
  buffer_assignment without(t.num_nodes());
  buffer_assignment with(t.num_nodes());
  with.place(mid, 0);
  const auto r0 = evaluate_buffered_tree(t, wire, {}, lib_, without, 0.0);
  const auto r1 = evaluate_buffered_tree(t, wire, {}, lib_, with, 0.0);
  EXPECT_GT(r1.root_rat_ps, r0.root_rat_ps);
  // Load seen upstream is now the wire plus the buffer's input cap.
  EXPECT_NEAR(r1.root_load_pf, lib_[0].cap_pf + wire[0].wire_cap(4000.0),
              1e-12);
}

TEST_F(ElmoreTest, BufferFormulaExact) {
  tree::routing_tree t{{0.0, 0.0}};
  const auto n = t.add_steiner(t.root(), {0.0, 0.0}, 0.0);
  t.add_sink(n, {100.0, 0.0}, 0.05, 0.0);
  buffer_assignment a(t.num_nodes());
  a.place(n, 0);
  const auto r = evaluate_buffered_tree(t, wire_, {}, lib_, a, 0.0);
  // At n (before buffer): load = 0.25, rat = -1.5.
  // Buffered: rat = -1.5 - T_b - R_b*0.25, load = C_b; root wire length 0.
  const double expect =
      -1.5 - lib_[0].delay_ps - lib_[0].res_ohm * (0.05 + 0.2);
  EXPECT_NEAR(r.root_rat_ps, expect, 1e-9);
  EXPECT_NEAR(r.root_load_pf, lib_[0].cap_pf, 1e-12);
}

TEST_F(ElmoreTest, CustomDeviceValuesOverrideNominal) {
  tree::routing_tree t{{0.0, 0.0}};
  const auto n = t.add_steiner(t.root(), {0.0, 0.0}, 0.0);
  t.add_sink(n, {100.0, 0.0}, 0.05, 0.0);
  buffer_assignment a(t.num_nodes());
  a.place(n, 0);
  const auto nominal = evaluate_buffered_tree(t, wire_, {}, lib_, a, 0.0);
  const auto slower = evaluate_buffered_tree(
      t, wire_, {}, lib_, a, 0.0, [&](tree::node_id, buffer_index b) {
        return device_values{lib_[b].cap_pf, lib_[b].delay_ps + 10.0,
                             lib_[b].res_ohm};
      });
  EXPECT_NEAR(slower.root_rat_ps, nominal.root_rat_ps - 10.0, 1e-9);
}

TEST_F(ElmoreTest, SinkRatPropagates) {
  tree::routing_tree t{{0.0, 0.0}};
  t.add_sink(t.root(), {100.0, 0.0}, 0.05, -42.0);
  buffer_assignment a(t.num_nodes());
  const auto r = evaluate_buffered_tree(t, wire_, {}, lib_, a, 0.0);
  EXPECT_NEAR(r.root_rat_ps, -42.0 - 1.5, 1e-12);
}

TEST_F(ElmoreTest, RejectsMismatchedAssignment) {
  tree::routing_tree t{{0.0, 0.0}};
  t.add_sink(t.root(), {100.0, 0.0}, 0.05, 0.0);
  buffer_assignment a(99);
  EXPECT_THROW(evaluate_buffered_tree(t, wire_, {}, lib_, a, 0.0),
               std::invalid_argument);
}

TEST_F(ElmoreTest, RejectsBufferAtSource) {
  tree::routing_tree t{{0.0, 0.0}};
  t.add_sink(t.root(), {100.0, 0.0}, 0.05, 0.0);
  buffer_assignment a(t.num_nodes());
  a.place(t.root(), 0);
  EXPECT_THROW(evaluate_buffered_tree(t, wire_, {}, lib_, a, 0.0),
               std::invalid_argument);
}

TEST(BufferAssignment, CountAndHistogram) {
  buffer_assignment a(5);
  EXPECT_EQ(a.count(), 0u);
  a.place(1, 0);
  a.place(3, 2);
  a.place(4, 0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.buffer(1), 0u);
  EXPECT_EQ(a.buffer(3), 2u);
  EXPECT_EQ(a.buffer(4), 0u);
  EXPECT_FALSE(a.has_buffer(2));
  a.remove(3);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_FALSE(a.has_buffer(3));
}

}  // namespace
}  // namespace vabi::timing
