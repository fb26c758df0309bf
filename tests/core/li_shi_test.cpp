// Differential suite of the Li-Shi per-type frontier (li_shi.hpp).
//
// The frontier promises the *same selections* as the classic per-type scan,
// so every test here is an equality check between li_shi_mode::always and
// li_shi_mode::never (the seed scan path, kept verbatim):
//
//   - the divide-and-conquer against a brute-force scan on random inputs,
//     including NaN-poisoned rows and columns;
//   - the deterministic engine across random trees x library sizes
//     {1, 2, 8, 32, 128}: root RAT bitwise, assignment, wires, and the
//     bit-identity work counters;
//   - the 2P mean statistical engine (the only stat regime the frontier
//     engages in), serial and parallel at 1/2/8 threads;
//   - no-op checks for the regimes that must stay on the scan path
//     (4P rule, non-mean selection percentile, b <= 2 under automatic);
//   - pinned golden hashes for b <= 2 under li_shi_mode::automatic -- the
//     configurations whose seed-era results may never move.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/li_shi.hpp"
#include "core/parallel.hpp"
#include "core/statistical_dp.hpp"
#include "core/van_ginneken.hpp"
#include "layout/process_model.hpp"
#include "timing/buffer_library.hpp"
#include "tree/generators.hpp"
#include "solved_test_util.hpp"

namespace vabi::core {
namespace {

using testutil::solved;

// ---------------------------------------------------------------------------
// Type order.
// ---------------------------------------------------------------------------

TEST(LiShiTypeOrder, SortsByResistanceDescendingStably) {
  timing::buffer_library lib{{
      {"a", 0.02, 40.0, 200.0},
      {"b", 0.04, 36.0, 400.0},
      {"c", 0.08, 33.0, 200.0},  // ties with "a": library order kept
      {"d", 0.16, 30.0, 100.0},
  }};
  const auto order = type_order_by_resistance(lib);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(order[3], 3u);
}

// ---------------------------------------------------------------------------
// Divide-and-conquer vs brute scan.
// ---------------------------------------------------------------------------

// Deterministic splitmix64 for the property tests.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
double unit(std::uint64_t x) {  // [0, 1)
  return static_cast<double>(mix(x) >> 11) * 0x1p-53;
}

struct scan_case {
  timing::buffer_library lib;
  std::vector<double> delay;  // per type; may hold a poisoned (NaN) device
  std::vector<double> load;   // strictly increasing (the prune invariant)
  std::vector<double> rat;
};

scan_case make_case(std::uint64_t seed, std::size_t num_types,
                    std::size_t num_cands, bool nan_device,
                    bool nan_candidate) {
  scan_case c;
  for (std::size_t b = 0; b < num_types; ++b) {
    timing::buffer_type t;
    t.name = "t";
    t.name += std::to_string(b);
    t.cap_pf = 0.01 + 0.1 * unit(seed ^ (b * 3 + 1));
    // Coarse grid so equal resistances (ties) actually occur.
    t.res_ohm = 50.0 * (1.0 + static_cast<double>(mix(seed ^ (b * 3 + 2)) % 8));
    t.delay_ps = 20.0 + 30.0 * unit(seed ^ (b * 3 + 3));
    c.delay.push_back(nan_device && b == num_types / 2
                          ? std::numeric_limits<double>::quiet_NaN()
                          : t.delay_ps);
    c.lib.add(std::move(t));
  }
  double load = 0.0;
  for (std::size_t k = 0; k < num_cands; ++k) {
    load += 0.001 + 0.05 * unit(seed ^ (k * 7 + 11));
    c.load.push_back(load);
    double rat = 1000.0 * unit(seed ^ (k * 7 + 13));
    if (nan_candidate && k == num_cands / 3) {
      rat = std::numeric_limits<double>::quiet_NaN();
    }
    c.rat.push_back(rat);
  }
  return c;
}

// The NaN delay rides in the case's delay table, not the library:
// buffer_library::check rejects it, and poisoned devices reach the engines
// from fault injection *after* library validation.
void check_against_brute(const scan_case& c) {
  const auto key = [&c](timing::buffer_index b, std::size_t k) {
    return c.rat[k] - c.delay[b] - c.lib[b].res_ohm * c.load[k];
  };
  buffer_frontier frontier{c.lib};
  std::vector<std::size_t> got;
  frontier.best_per_type(c.load.size(), key, got);
  ASSERT_EQ(got.size(), c.lib.size());
  for (timing::buffer_index b = 0; b < c.lib.size(); ++b) {
    // The seed scan: strictly-greater / leftmost.
    double best_val = -std::numeric_limits<double>::infinity();
    std::size_t best_k = li_shi_npos;
    for (std::size_t k = 0; k < c.load.size(); ++k) {
      const double v = key(b, k);
      if (v > best_val) {
        best_val = v;
        best_k = k;
      }
    }
    EXPECT_EQ(got[b], best_k) << "type " << b;
  }
}

TEST(LiShiFrontier, MatchesBruteScanOnRandomInputs) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::size_t num_types = 1 + mix(seed) % 24;
    const std::size_t num_cands = 1 + mix(seed ^ 0xabc) % 60;
    check_against_brute(make_case(seed, num_types, num_cands, false, false));
  }
}

TEST(LiShiFrontier, MatchesBruteScanWithNaNDeviceRows) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    check_against_brute(make_case(seed, 9, 25, true, false));
  }
}

TEST(LiShiFrontier, MatchesBruteScanWithNaNCandidateColumns) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    check_against_brute(make_case(seed, 9, 25, false, true));
    check_against_brute(make_case(seed, 9, 25, true, true));
  }
}

TEST(LiShiFrontier, EmptyInputsYieldNpos) {
  buffer_frontier frontier{timing::standard_library()};
  std::vector<std::size_t> best;
  frontier.best_per_type(
      0, [](timing::buffer_index, std::size_t) { return 0.0; }, best);
  ASSERT_EQ(best.size(), 3u);
  for (const auto k : best) EXPECT_EQ(k, li_shi_npos);
}

// ---------------------------------------------------------------------------
// Engine differentials.
// ---------------------------------------------------------------------------

tree::routing_tree make_net(std::uint64_t seed, std::size_t sinks = 40) {
  tree::random_tree_options t;
  t.num_sinks = sinks;
  t.die_side_um = 5000.0;
  t.seed = seed;
  return tree::make_random_tree(t);
}

det_options make_det_options(const timing::buffer_library& lib) {
  det_options o;
  o.library = lib;
  o.driver_res_ohm = 150.0;
  return o;
}

void expect_det_equal(const det_result& a, const det_result& b,
                      const char* what) {
  // Bitwise: the frontier must make the *same selections*, so the whole DP
  // trace -- root value, design, and work counters -- is identical.
  EXPECT_EQ(std::memcmp(&a.root_rat_ps, &b.root_rat_ps, sizeof(double)), 0)
      << what << ": root RAT diverged (" << a.root_rat_ps << " vs "
      << b.root_rat_ps << ")";
  EXPECT_EQ(a.num_buffers, b.num_buffers) << what;
  ASSERT_EQ(a.assignment.num_nodes(), b.assignment.num_nodes()) << what;
  for (tree::node_id n = 0; n < a.assignment.num_nodes(); ++n) {
    ASSERT_EQ(a.assignment.has_buffer(n), b.assignment.has_buffer(n))
        << what << " node " << n;
    if (a.assignment.has_buffer(n)) {
      EXPECT_EQ(a.assignment.buffer(n), b.assignment.buffer(n))
          << what << " node " << n;
    }
  }
  EXPECT_EQ(a.stats.candidates_created, b.stats.candidates_created) << what;
  EXPECT_EQ(a.stats.candidates_pruned, b.stats.candidates_pruned) << what;
  EXPECT_EQ(a.stats.merge_pairs, b.stats.merge_pairs) << what;
  EXPECT_EQ(a.stats.peak_list_size, b.stats.peak_list_size) << what;
}

TEST(LiShiDeterministic, MatchesScanAcrossLibrarySizes) {
  for (const std::size_t b : {1u, 2u, 8u, 32u, 128u}) {
    const auto lib = timing::make_parameterized_library(b);
    for (std::uint64_t seed : {7ull, 19ull}) {
      const auto net = make_net(seed);
      det_options frontier = make_det_options(lib);
      frontier.li_shi = li_shi_mode::always;
      det_options scan = make_det_options(lib);
      scan.li_shi = li_shi_mode::never;
      const auto rf = solved(solve_van_ginneken(net, frontier));
      const auto rs = solved(solve_van_ginneken(net, scan));
      const std::string what =
          "b=" + std::to_string(b) + " seed=" + std::to_string(seed);
      expect_det_equal(rf, rs, what.c_str());
      EXPECT_GT(rf.stats.li_shi_nodes, 0u) << what;
      EXPECT_EQ(rs.stats.li_shi_nodes, 0u) << what;
    }
  }
}

TEST(LiShiDeterministic, MatchesScanWithWireSizing) {
  const auto lib = timing::make_parameterized_library(16);
  const auto net = make_net(23, 24);
  det_options frontier = make_det_options(lib);
  frontier.wire_width_multipliers = {1.0, 2.0, 4.0};
  frontier.li_shi = li_shi_mode::always;
  det_options scan = frontier;
  scan.li_shi = li_shi_mode::never;
  const auto rf = solved(solve_van_ginneken(net, frontier));
  const auto rs = solved(solve_van_ginneken(net, scan));
  expect_det_equal(rf, rs, "sized");
  for (tree::node_id n = 0; n < net.num_nodes(); ++n) {
    EXPECT_EQ(rf.wires.width(n), rs.wires.width(n)) << "node " << n;
  }
}

TEST(LiShiDeterministic, AutomaticEngagesOnlyAboveTwoTypes) {
  const auto net = make_net(3, 16);
  for (const std::size_t b : {1u, 2u, 3u, 8u}) {
    det_options o = make_det_options(timing::make_parameterized_library(b));
    const auto r = solved(solve_van_ginneken(net, o));  // automatic
    if (b <= 2) {
      EXPECT_EQ(r.stats.li_shi_nodes, 0u) << "b=" << b;
    } else {
      EXPECT_GT(r.stats.li_shi_nodes, 0u) << "b=" << b;
    }
  }
}

// -- statistical engine ------------------------------------------------------

layout::process_model make_model() {
  layout::process_model_config pc;
  pc.mode = layout::wid_mode();
  pc.spatial.profile = layout::spatial_profile::heterogeneous;
  return layout::process_model{layout::square_die(5000.0), pc};
}

stat_options make_stat_options(const timing::buffer_library& lib,
                               li_shi_mode mode) {
  stat_options o;
  o.library = lib;
  o.driver_res_ohm = 150.0;
  o.rule = pruning_kind::two_param;  // mean rule by default
  o.li_shi = mode;
  return o;
}

void expect_stat_equal(const stat_result& a, const stat_result& b,
                       const char* what) {
  ASSERT_TRUE(a.ok()) << what << ": " << a.stats.abort_reason;
  ASSERT_TRUE(b.ok()) << what << ": " << b.stats.abort_reason;
  const double na = a.root_rat.nominal();
  const double nb = b.root_rat.nominal();
  EXPECT_EQ(std::memcmp(&na, &nb, sizeof(double)), 0)
      << what << ": root nominal diverged";
  ASSERT_EQ(a.root_rat.num_terms(), b.root_rat.num_terms()) << what;
  const auto ta = a.root_rat.terms();
  const auto tb = b.root_rat.terms();
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].id, tb[i].id) << what << " term " << i;
    EXPECT_EQ(std::memcmp(&ta[i].coeff, &tb[i].coeff, sizeof(double)), 0)
        << what << " term " << i;
  }
  EXPECT_EQ(a.num_buffers, b.num_buffers) << what;
  for (tree::node_id n = 0; n < a.assignment.num_nodes(); ++n) {
    ASSERT_EQ(a.assignment.has_buffer(n), b.assignment.has_buffer(n))
        << what << " node " << n;
    if (a.assignment.has_buffer(n)) {
      EXPECT_EQ(a.assignment.buffer(n), b.assignment.buffer(n))
          << what << " node " << n;
    }
  }
  EXPECT_EQ(a.stats.candidates_created, b.stats.candidates_created) << what;
  EXPECT_EQ(a.stats.candidates_pruned, b.stats.candidates_pruned) << what;
  EXPECT_EQ(a.stats.merge_pairs, b.stats.merge_pairs) << what;
  EXPECT_EQ(a.stats.peak_list_size, b.stats.peak_list_size) << what;
}

TEST(LiShiStatistical, MeanRuleMatchesScanAcrossLibrarySizes) {
  for (const std::size_t b : {1u, 2u, 8u, 32u}) {
    const auto lib = timing::make_parameterized_library(b);
    const auto net = make_net(11, 32);
    // Fresh model per run: characterization registers variation sources.
    auto m1 = make_model();
    auto m2 = make_model();
    const auto rf = solved(solve_statistical_insertion(
        net, m1, make_stat_options(lib, li_shi_mode::always)));
    const auto rs = solved(solve_statistical_insertion(
        net, m2, make_stat_options(lib, li_shi_mode::never)));
    const std::string what = "b=" + std::to_string(b);
    expect_stat_equal(rf, rs, what.c_str());
    EXPECT_GT(rf.stats.li_shi_nodes, 0u) << what;
    EXPECT_EQ(rs.stats.li_shi_nodes, 0u) << what;
  }
}

TEST(LiShiStatistical, ParallelMatchesSerialAcrossThreadCounts) {
  const auto lib = timing::make_parameterized_library(32);
  const auto net = make_net(31, 48);
  auto serial_model = make_model();
  const auto serial = solved(solve_statistical_insertion(
      net, serial_model, make_stat_options(lib, li_shi_mode::automatic)));
  ASSERT_GT(serial.stats.li_shi_nodes, 0u);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    thread_pool pool{threads};
    auto model = make_model();
    const auto par = solved(solve_parallel_insertion(
        net, model, make_stat_options(lib, li_shi_mode::automatic), pool));
    const std::string what = "threads=" + std::to_string(threads);
    expect_stat_equal(par, serial, what.c_str());
    EXPECT_EQ(par.stats.li_shi_nodes, serial.stats.li_shi_nodes) << what;
  }
}

TEST(LiShiStatistical, StaysOffOutsideTheMeanRegime) {
  const auto lib = timing::make_parameterized_library(8);
  const auto net = make_net(5, 12);

  // Non-mean selection percentile: frontier must not engage even on always.
  {
    auto m1 = make_model();
    auto m2 = make_model();
    auto always = make_stat_options(lib, li_shi_mode::always);
    always.selection_percentile = 0.05;
    auto never = make_stat_options(lib, li_shi_mode::never);
    never.selection_percentile = 0.05;
    const auto rf = solved(solve_statistical_insertion(net, m1, always));
    const auto rs = solved(solve_statistical_insertion(net, m2, never));
    EXPECT_EQ(rf.stats.li_shi_nodes, 0u);
    expect_stat_equal(rf, rs, "p05");
  }
  // Corner rule: not a mean-rule regime.
  {
    auto m = make_model();
    auto o = make_stat_options(lib, li_shi_mode::always);
    o.rule = pruning_kind::corner;
    const auto r = solved(solve_statistical_insertion(net, m, o));
    EXPECT_EQ(r.stats.li_shi_nodes, 0u);
  }
  // 4P rule: partial order, scan path only.
  {
    auto m = make_model();
    auto o = make_stat_options(lib, li_shi_mode::always);
    o.rule = pruning_kind::four_param;
    o.max_list_size = 4000;
    const auto r = solved(solve_statistical_insertion(net, m, o));
    EXPECT_EQ(r.stats.li_shi_nodes, 0u);
  }
}

// ---------------------------------------------------------------------------
// b <= 2 golden pins: under automatic these configurations must stay on the
// seed scan path byte for byte. Hash scheme matches
// golden_bitidentity_test.cpp (minus the wire widths: sizing is off here).
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_small_lib_run(std::size_t b) {
  const auto net = make_net(77, 32);
  auto model = make_model();
  const auto lib = b == 1 ? timing::single_buffer_library()
                          : timing::buffer_library{{
                                {"buf_x1", 0.020, 40.0, 400.0},
                                {"buf_x4", 0.080, 33.0, 100.0},
                            }};
  const auto r = solved(solve_statistical_insertion(
      net, model, make_stat_options(lib, li_shi_mode::automatic)));
  EXPECT_EQ(r.stats.li_shi_nodes, 0u);

  std::uint64_t h = 1469598103934665603ull;
  const double nom = r.root_rat.nominal();
  h = fnv1a(h, &nom, sizeof nom);
  for (const auto& t : r.root_rat.terms()) {
    h = fnv1a(h, &t.id, sizeof t.id);
    h = fnv1a(h, &t.coeff, sizeof t.coeff);
  }
  for (tree::node_id n = 0; n < net.num_nodes(); ++n) {
    const unsigned char has = r.assignment.has_buffer(n) ? 1 : 0;
    h = fnv1a(h, &has, 1);
    if (has) {
      const auto buf = r.assignment.buffer(n);
      h = fnv1a(h, &buf, sizeof buf);
    }
  }
  const std::uint64_t counters[5] = {
      r.num_buffers, r.stats.candidates_created, r.stats.candidates_pruned,
      r.stats.merge_pairs, r.stats.peak_list_size};
  h = fnv1a(h, counters, sizeof counters);
  return h;
}

TEST(LiShiGolden, SmallLibrariesStayOnSeedPath) {
  // Captured from the seed scan path (li_shi_mode::never gives the same
  // hashes by construction -- see LiShiStatistical differentials). A move
  // here means b <= 2 behavior changed; that breaks the seed contract.
  EXPECT_EQ(hash_small_lib_run(1), 0xbde66ac0c883db05ull);
  EXPECT_EQ(hash_small_lib_run(2), 0x3052dbdfd193c61eull);
}

}  // namespace
}  // namespace vabi::core
