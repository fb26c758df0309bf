// Pinned values of every persisted or cross-run hash recipe: the journal's
// per-job and batch fingerprints, the routing tree's subtree hash, and the
// session cache's option and library fingerprints. A journal written by an
// older build resumes only if fingerprint_job still agrees with it, and warm
// sessions stay warm only while the option fingerprints hold, so a change to
// any recipe must be deliberate -- and show up here.
#include "core/fingerprint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "core/parallel.hpp"
#include "tree/routing_tree.hpp"

namespace vabi::core {
namespace {

timing::buffer_library pin_library() {
  return timing::buffer_library{{{"bx1", 0.004, 28.0, 900.0},
                                 {"bx2", 0.008, 30.5, 450.0},
                                 {"bx4", 0.016, 33.25, 225.0}}};
}

tree::routing_tree pin_tree() {
  tree::routing_tree t{{0.0, 0.0}};
  const auto a = t.add_steiner(0, {400.0, 0.0});
  const auto b = t.add_steiner(a, {400.0, 300.0}, 350.0);
  t.add_sink(a, {900.0, -50.0}, 0.012, 410.0);
  t.add_sink(b, {450.0, 700.0}, 0.020, 380.5);
  t.add_sink(b, {100.0, 300.0}, 0.007, -25.0, 320.0);
  return t;
}

/// Every field off its default, check_nonfinite included (its default
/// differs between debug and release builds).
stat_options pin_stat_options() {
  stat_options o;
  o.wire = timing::wire_model{0.08, 0.0002};
  o.library = pin_library();
  o.driver_res_ohm = 150.0;
  o.wire_width_multipliers = {0.7, 1.0, 1.4};
  o.two_param.p_load = 0.9;
  o.two_param.p_rat = 0.85;
  o.two_param.sweep_window = 3;
  o.root_percentile = 0.05;
  o.selection_percentile = 0.25;
  o.term_prune_rel_eps = 1e-9;
  o.max_list_size = 5000;
  o.max_wall_seconds = 2.5;
  o.max_arena_bytes = 1u << 30;
  o.check_nonfinite = true;
  o.degrade = degrade_policy::retry_deterministic;
  o.li_shi = li_shi_mode::always;
  return o;
}

layout::process_model_config pin_model_config() {
  layout::process_model_config c;
  c.mode = layout::wid_mode();
  c.budgets = layout::variation_budgets{{0.05, 0.1}, {0.04, 0.08},
                                        {0.03, 0.06}};
  c.spatial.profile = layout::spatial_profile::heterogeneous;
  return c;
}

batch_job pin_tree_job(const tree::routing_tree& t) {
  batch_job job;
  job.tree = &t;
  job.options = pin_stat_options();
  job.model = pin_model_config();
  job.die = layout::bbox{{-10.0, -60.0}, {910.0, 710.0}};
  return job;
}

batch_job pin_generated_job() {
  batch_job job;
  tree::random_tree_options g;
  g.num_sinks = 37;
  g.die_side_um = 2500.0;
  g.seed = 5;
  g.sink_rat_ps = 250.0;
  g.criticality_balance = 0.5;
  job.generate = g;
  job.options = pin_stat_options();
  job.model = pin_model_config();
  return job;
}

TEST(Fingerprint, JobFingerprintsArePinned) {
  const auto t = pin_tree();
  EXPECT_EQ(fingerprint_job(pin_tree_job(t), 3, std::nullopt),
            0x49add4a2de0ca359ull);
  EXPECT_EQ(fingerprint_job(pin_generated_job(), 3,
                            std::optional<std::uint64_t>{11}),
            0x13c87cd6bb25c200ull);
}

TEST(Fingerprint, BatchFingerprintIsPinned) {
  const auto t = pin_tree();
  const auto fps = fingerprint_batch({pin_tree_job(t), pin_generated_job()},
                                     std::optional<std::uint64_t>{11});
  ASSERT_EQ(fps.per_job.size(), 2u);
  EXPECT_EQ(fps.per_job[0], 0x49add4a2de0ca359ull);
  EXPECT_EQ(fps.per_job[1], 0x6d49bdafe20483caull);
  EXPECT_EQ(fps.combined, 0x2e317cb3cd80f7b9ull);
}

TEST(Fingerprint, SubtreeHashIsPinned) {
  const auto t = pin_tree();
  EXPECT_EQ(t.subtree_hash(t.root()), 0xc4a110e78d78d6f1ull);
}

TEST(Fingerprint, SessionFingerprintsArePinned) {
  EXPECT_EQ(fingerprint_stat_options(pin_stat_options()),
            0xa7c16c77b8554619ull);
  EXPECT_EQ(fingerprint_library(pin_library()), 0xcb26b128f0ca98daull);
}

}  // namespace
}  // namespace vabi::core
