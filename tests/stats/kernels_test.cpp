// Dispatch suite for the runtime-dispatched SIMD kernels, plus the pooled
// merge counter and the aligned sigma^2 storage they stream.
//
// The kernels' bit-identity contract (kernels.hpp) is proven where they are
// used: tests/core/tiled_prune_test.cpp compares the plane reductions with
// the sparse linear_form passes and the batched row forms with the
// one-plane ones on every reachable ISA, and li_shi_test.cpp does the same
// for the buffered-key argmax.
#include "stats/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "stats/linear_form.hpp"
#include "stats/rng.hpp"
#include "stats/term_pool.hpp"
#include "stats/variation_space.hpp"

namespace vabi::stats {
namespace {

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

std::vector<kernels::kernel_isa> reachable_isas() {
  std::vector<kernels::kernel_isa> out{kernels::kernel_isa::scalar};
  if (kernels::isa_available(kernels::kernel_isa::avx2)) {
    out.push_back(kernels::kernel_isa::avx2);
  }
  return out;
}

variation_space make_space(std::size_t num_sources, std::uint64_t seed) {
  variation_space space;
  auto rng = make_rng(seed * 977 + 13);
  std::uniform_real_distribution<double> sigma(0.25, 2.0);
  for (std::size_t i = 0; i < num_sources; ++i) {
    space.add_source(source_kind::random_device, sigma(rng));
  }
  return space;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---------------------------------------------------------------------------
// Dispatch and override hooks.
// ---------------------------------------------------------------------------

TEST(KernelsDispatch, ForcedIsaInstallsRequestedTable) {
  for (const auto isa : reachable_isas()) {
    const auto installed = kernels::set_forced_isa(kernels::to_string(isa));
    EXPECT_EQ(installed, isa);
    EXPECT_EQ(kernels::active_isa(), isa);
    EXPECT_EQ(kernels::active().isa, isa);
    EXPECT_EQ(kernels::table_for(isa).isa, isa);
  }
  kernels::set_forced_isa(nullptr);
}

TEST(KernelsDispatch, UnavailableIsaClampsToBestAvailable) {
#if defined(__x86_64__) || defined(_M_X64)
  const auto got = kernels::set_forced_isa("neon");
  EXPECT_EQ(got, kernels::set_forced_isa("avx2"));
  EXPECT_TRUE(kernels::isa_available(got));
#else
  const auto got = kernels::set_forced_isa("avx2");
  EXPECT_NE(got, kernels::kernel_isa::avx2);
  EXPECT_TRUE(kernels::isa_available(got));
#endif
  kernels::set_forced_isa(nullptr);
}

TEST(KernelsDispatch, KernelEnvOverrideHonored) {
  // set_forced_isa(nullptr) re-resolves from VABI_FORCE_KERNEL, which is how
  // the CI scalar job pins the whole suite.
  ::setenv("VABI_FORCE_KERNEL", "scalar", 1);
  kernels::set_forced_isa(nullptr);
  EXPECT_EQ(kernels::active_isa(), kernels::kernel_isa::scalar);
  ::unsetenv("VABI_FORCE_KERNEL");
  kernels::set_forced_isa(nullptr);
  EXPECT_TRUE(kernels::isa_available(kernels::active_isa()));
}

TEST(KernelsCounters, MergeCountersAdvance) {
  // Overlapping supports, a on ids [0, 24) and b on [8, 32): the counter
  // advances by the sparse union (32 terms), not by the operands' sum (48).
  linear_form a{1.0};
  linear_form b{-2.0};
  for (source_id id = 0; id < 24; ++id) a.add_term(id, 0.5 + id);
  for (source_id id = 8; id < 32; ++id) b.add_term(id, 0.25 - id);
  term_pool pool;
  const std::size_t terms0 = pooled_terms_merged();
  const linear_form sum = pooled_add(a, b, pool);
  EXPECT_EQ(pooled_terms_merged() - terms0, 32u);
  EXPECT_EQ(sum.num_terms(), 32u);
}

// ---------------------------------------------------------------------------
// aligned_doubles (the per-space sigma^2 table's storage).
// ---------------------------------------------------------------------------

TEST(AlignedDoubles, GrowsCopiesAndStaysAligned) {
  kernels::aligned_doubles v;
  for (int i = 0; i < 100; ++i) v.push_back(0.5 * i);
  ASSERT_EQ(v.size(), 100u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  kernels::aligned_doubles c = v;  // copy
  ASSERT_EQ(c.size(), 100u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % 64, 0u);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.data()[i], 0.5 * static_cast<double>(i));
  }
  kernels::aligned_doubles m = std::move(c);  // move steals the buffer
  ASSERT_EQ(m.size(), 100u);
  EXPECT_EQ(m.data()[99], 0.5 * 99);
  c = m;  // copy-assign back over the moved-from object
  ASSERT_EQ(c.size(), 100u);
  EXPECT_EQ(c.data()[42], 21.0);
}

TEST(AlignedDoubles, SigmaTableMatchesVariance) {
  const variation_space space = make_space(50, 77);
  const double* s2 = space.sigma2_data();
  for (source_id id = 0; id < 50; ++id) {
    EXPECT_EQ(bits(s2[id]), bits(space.variance(id)));
  }
}

}  // namespace
}  // namespace vabi::stats
