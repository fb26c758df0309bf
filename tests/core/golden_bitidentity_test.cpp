// Golden bit-identity regression of the DP engines.
//
// The arena refactor (pooled canonical forms, sealed per-node slabs) promises
// *bit-identical* results to the historical value-semantics engines. These
// hashes were captured from the pre-refactor engines (commit 99a9d48) on the
// exact scenario below: FNV-1a over the raw bytes of the winning root RAT
// form (nominal + every (id, coeff) term), the per-node buffer and wire
// assignment, num_buffers, and the work counters {candidates_created,
// candidates_pruned, merge_pairs, peak_list_size}.
//
// If a change moves any of these hashes, it changed either the arithmetic
// (an FP expression was reassociated -- see the kernel contracts in
// stats/linear_form.cpp and the global -ffp-contract=off) or the engine's
// work flow (a prune/merge/selection decision). Neither may happen silently:
// recapture only with an explicit justification in the commit message.
//
// dp_stats::allocations and ::peak_terms are deliberately NOT hashed -- they
// describe memory behavior, which the bit-identity contract excludes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>

#include "core/statistical_dp.hpp"
#include "layout/process_model.hpp"
#include "timing/buffer_library.hpp"
#include "tree/benchmarks.hpp"
#include "solved_test_util.hpp"

namespace vabi::core {
namespace {

using testutil::solved;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t hash_double(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return fnv1a(h, &bits, sizeof bits);
}

std::uint64_t hash_result(const stat_result& r, std::size_t num_nodes) {
  std::uint64_t h = 1469598103934665603ull;
  h = hash_double(h, r.root_rat.nominal());
  for (const auto& t : r.root_rat.terms()) {
    h = fnv1a(h, &t.id, sizeof t.id);
    h = hash_double(h, t.coeff);
  }
  for (tree::node_id n = 0; n < num_nodes; ++n) {
    const unsigned char has = r.assignment.has_buffer(n) ? 1 : 0;
    h = fnv1a(h, &has, 1);
    if (has) {
      const auto b = r.assignment.buffer(n);
      h = fnv1a(h, &b, sizeof b);
    }
    if (r.wires.num_nodes() == num_nodes) {
      const auto w = r.wires.width(n);
      h = fnv1a(h, &w, sizeof w);
    }
  }
  const std::uint64_t nb = r.num_buffers;
  h = fnv1a(h, &nb, sizeof nb);
  const std::uint64_t counters[4] = {r.stats.candidates_created,
                                     r.stats.candidates_pruned,
                                     r.stats.merge_pairs,
                                     r.stats.peak_list_size};
  h = fnv1a(h, counters, sizeof counters);
  return h;
}

struct golden {
  const char* name;
  pruning_kind rule;
  bool sizing;
  double pbar;
  std::uint64_t hash;
  std::size_t num_buffers;
};

// gtest prints a parameter it cannot format as its raw bytes, and `name` is a
// pointer, so the listed test name (ctest registers the listing verbatim)
// would change with every address-space layout. Print the case name instead.
void PrintTo(const golden& g, std::ostream* os) { *os << g.name; }

// Captured from the pre-arena engines; see the file comment.
constexpr golden kGoldens[] = {
    {"2p", pruning_kind::two_param, false, 0.5, 0x18913f9a9453df78ull, 28},
    {"4p", pruning_kind::four_param, false, 0.5, 0xcc894e49c73a36e0ull, 28},
    {"corner", pruning_kind::corner, false, 0.5, 0x51e39a632cbc5253ull, 28},
    {"2p_sized", pruning_kind::two_param, true, 0.5, 0x622efb0083153531ull,
     28},
    {"2p_p90", pruning_kind::two_param, false, 0.9, 0xd57a348d3f41c013ull,
     28},
};

class GoldenBitIdentity : public testing::TestWithParam<golden> {};

TEST_P(GoldenBitIdentity, MatchesPreArenaEngine) {
  const golden& g = GetParam();

  tree::benchmark_spec spec;
  spec.name = "golden";
  spec.sinks = 48;
  spec.die_side_um = 3000.0;
  spec.seed = 4242;
  const auto net = tree::build_benchmark(spec);

  layout::process_model_config pc;
  pc.mode = layout::wid_mode();
  pc.spatial.profile = layout::spatial_profile::heterogeneous;
  layout::process_model model{layout::square_die(spec.die_side_um), pc};

  stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  o.rule = g.rule;
  o.root_percentile = 0.05;
  o.selection_percentile = 0.05;
  if (g.sizing) o.wire_width_multipliers = {1.0, 2.0, 4.0};
  o.two_param.p_load = g.pbar;
  o.two_param.p_rat = g.pbar;

  const auto r = solved(solve_statistical_insertion(net, model, o));
  EXPECT_EQ(r.num_buffers, g.num_buffers) << g.name;
  EXPECT_EQ(hash_result(r, net.num_nodes()), g.hash)
      << g.name << ": bit-identity with the pre-arena engine broke -- see "
      << "the file comment before recapturing";
}

INSTANTIATE_TEST_SUITE_P(AllRules, GoldenBitIdentity,
                         testing::ValuesIn(kGoldens),
                         [](const testing::TestParamInfo<golden>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace vabi::core
