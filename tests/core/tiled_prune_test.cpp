// Differential suite for the tiled dominance engine (core/pruning.cpp).
//
// The contract under test (pruning.hpp "Sweep-implementation policy"): the
// tiled sweep -- SoA candidate planes + batched one-vs-many moment kernels +
// the batched interval prefilter -- produces *bit-identical* results to the
// seed's pairwise sweep: the same surviving candidates in the same order with
// the same form bits, the same candidates_pruned, on every reachable ISA.
// Which sweep ran may only move organization counters (tiled_prunes /
// tile_prefilter_hits / pairs_batched vs dominance_prefilter_hits).
//
// Layers:
//   1. kernel: the one-plane reductions match the sparse linear_form
//      passes, and the one-vs-many entries match their one-plane
//      counterparts row for row, bit for bit, on every reachable ISA;
//      prefilter verdicts implement the exact scalar branch order (NaN falls
//      through to 2).
//   2. prune: randomized lists through prune_two_param under forced
//      pairwise vs forced tiled, including lists sparse in a wide space,
//      whose planes span only the columns the list carries. The 4P prune
//      has no tiled path: forcing tiled must leave it bit-identical and
//      untiled.
//   3. engine: full serial + parallel solves (threads x li_shi) under both
//      modes compare root RAT bits, assignments and work counters.
#include "core/pruning.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "core/statistical_dp.hpp"
#include "layout/process_model.hpp"
#include "stats/candidate_plane.hpp"
#include "stats/kernels.hpp"
#include "stats/linear_form.hpp"
#include "stats/rng.hpp"
#include "stats/variation_space.hpp"
#include "timing/buffer_library.hpp"
#include "tree/benchmarks.hpp"
#include "solved_test_util.hpp"

namespace vabi::core {
namespace {

using testutil::prune_guard;
using testutil::solved;

namespace kernels = stats::kernels;

// ---------------------------------------------------------------------------
// Guards (mirror tests/stats/kernels_test.cpp).
// ---------------------------------------------------------------------------

struct isa_guard {
  explicit isa_guard(kernels::kernel_isa isa) {
    kernels::set_forced_isa(kernels::to_string(isa));
  }
  ~isa_guard() { kernels::set_forced_isa(nullptr); }
};

std::vector<kernels::kernel_isa> reachable_isas() {
  std::vector<kernels::kernel_isa> out{kernels::kernel_isa::scalar};
  if (kernels::isa_available(kernels::kernel_isa::avx2)) {
    out.push_back(kernels::kernel_isa::avx2);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Random fixtures.
// ---------------------------------------------------------------------------

stats::variation_space make_space(std::size_t num_sources,
                                  std::uint64_t seed) {
  stats::variation_space space;
  auto rng = stats::make_rng(seed * 977 + 13);
  std::uniform_real_distribution<double> sigma(0.25, 2.0);
  for (std::size_t i = 0; i < num_sources; ++i) {
    space.add_source(stats::source_kind::random_device, sigma(rng));
  }
  return space;
}

stats::linear_form random_form(std::mt19937_64& rng, std::size_t num_sources,
                               double density, double mean_lo,
                               double mean_hi) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> coeff(-0.05, 0.05);
  std::uniform_real_distribution<double> mean(mean_lo, mean_hi);
  stats::linear_form f{mean(rng)};
  for (std::size_t id = 0; id < num_sources; ++id) {
    if (unit(rng) >= density) continue;
    double c = coeff(rng);
    if (unit(rng) < 0.05) c = 0.0;  // present-with-zero vs absent corner
    f.add_term(static_cast<stats::source_id>(id), c);
  }
  return f;
}

/// A candidate list with enough mean overlap that both sweeps prune some
/// candidates and keep others at p > 0.5.
std::vector<stat_candidate> random_list(std::size_t k,
                                        std::size_t num_sources,
                                        std::uint64_t seed) {
  auto rng = stats::make_rng(seed);
  std::vector<stat_candidate> list;
  list.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    list.push_back({random_form(rng, num_sources, 0.6, 0.0, 2.0),
                    random_form(rng, num_sources, 0.6, -100.0, 100.0),
                    nullptr});
  }
  // A few identical-form ties (shared load / duplicated candidate): the tie
  // convention is the branchiest corner of both sweeps.
  if (k >= 8) {
    list[3].load = list[2].load;
    list[5] = {list[4].load, list[4].rat, nullptr};
  }
  return list;
}

/// Width of the spaces the column-limited cases gather from: wide enough
/// that a list's forms touch few of its ids, as under WID, where every
/// buffer brings a private source.
constexpr std::size_t kWideSpace = 4096;

/// `count` distinct ids drawn from `pool`, ascending.
std::vector<stats::source_id> draw_ids(std::mt19937_64& rng,
                                       std::vector<stats::source_id> pool,
                                       std::size_t count) {
  std::shuffle(pool.begin(), pool.end(), rng);
  pool.resize(count);
  std::sort(pool.begin(), pool.end());
  return pool;
}

/// A form carrying exactly `ids`, coefficients uniform in [-scale, scale].
/// The explicit-terms constructor keeps zero coefficients present.
stats::linear_form form_over(std::mt19937_64& rng,
                             const std::vector<stats::source_id>& ids,
                             double mean_lo, double mean_hi, double scale) {
  const double mean = std::uniform_real_distribution<double>(mean_lo,
                                                             mean_hi)(rng);
  std::uniform_real_distribution<double> coeff(-scale, scale);
  std::vector<stats::lf_term> terms;
  terms.reserve(ids.size());
  for (const auto id : ids) terms.push_back({id, coeff(rng)});
  return stats::linear_form{mean, std::move(terms)};
}

/// `f` with term `index` set to `coeff` (kept present, also when zero).
stats::linear_form with_coeff(const stats::linear_form& f, std::size_t index,
                              double coeff) {
  std::vector<stats::lf_term> terms(f.terms().begin(), f.terms().end());
  terms[index].coeff = coeff;
  return stats::linear_form{f.mean(), std::move(terms)};
}

/// `f` plus a term on `id` (absent from `f`) with coefficient `coeff`.
stats::linear_form with_term(const stats::linear_form& f, stats::source_id id,
                             double coeff) {
  std::vector<stats::lf_term> terms(f.terms().begin(), f.terms().end());
  terms.push_back({id, coeff});
  return stats::linear_form{f.mean(), std::move(terms)};
}

/// An id outside every sparse_list pool: only a corner puts it on a form.
constexpr stats::source_id kLoneId = 2049;

/// A confidence_net-shaped list (k ~ 60 forms of ~60 terms in a space of
/// thousands): every form carries `per_form` ids of one list-wide pool of
/// `pool_size` ids scattered over the wide space. The pool always holds ids
/// 0 and size() - 1, and candidate 0 carries the whole pool. Corners:
///   - identical-form ties: candidate 3 shares 2's load, 5 duplicates 4;
///   - -0.0 coefficients: on a pooled id of candidate 6's load, and on
///     kLoneId, which only candidate 6's RAT form carries;
///   - NaN coefficients, in candidate 7's RAT form. normal_exceedance
///     asserts sigma >= 0, so a NaN reaching an exact pass would abort a
///     Debug build on either sweep; candidate 7's load therefore carries a
///     sigma in the hundreds, which lets the prefilter decide every load
///     condition it takes part in from the moments alone. Its RAT form is
///     still gathered, and its variance batch-filled, by the tiled sweep.
std::vector<stat_candidate> sparse_list(std::size_t k, std::size_t pool_size,
                                        std::size_t per_form,
                                        std::uint64_t seed) {
  auto rng = stats::make_rng(seed);
  std::vector<stats::source_id> inner;
  for (stats::source_id id = 1; id + 1 < kWideSpace; ++id) {
    if (id != kLoneId) inner.push_back(id);
  }
  auto pool = draw_ids(rng, inner, pool_size - 2);
  pool.insert(pool.begin(), 0);
  pool.push_back(static_cast<stats::source_id>(kWideSpace - 1));

  std::vector<stat_candidate> list;
  list.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto load_ids = i == 0 ? pool : draw_ids(rng, pool, per_form);
    const auto rat_ids = i == 0 ? pool : draw_ids(rng, pool, per_form);
    list.push_back({form_over(rng, load_ids, 0.0, 2.0, 0.05),
                    form_over(rng, rat_ids, -100.0, 100.0, 0.05), nullptr});
  }
  list[3].load = list[2].load;
  list[5] = {list[4].load, list[4].rat, nullptr};
  list[6].load = with_coeff(list[6].load, 1, -0.0);
  list[6].rat = with_term(list[6].rat, kLoneId, -0.0);
  list[7].load = form_over(rng, draw_ids(rng, pool, per_form), 0.0, 2.0, 50.0);
  list[7].rat = with_coeff(list[7].rat, 0,
                           std::numeric_limits<double>::quiet_NaN());
  list[7].rat = with_coeff(list[7].rat, per_form - 1,
                           std::numeric_limits<double>::quiet_NaN());
  return list;
}

/// The ids some `c.*form` of `list` carries.
std::set<stats::source_id> carried_ids(
    const std::vector<stat_candidate>& list,
    stats::linear_form stat_candidate::*form) {
  std::set<stats::source_id> ids;
  for (const auto& c : list) {
    for (const auto& t : (c.*form).terms()) ids.insert(t.id);
  }
  return ids;
}

/// Canonical (id, coefficient-bits) list of a form.
struct form_bits {
  std::uint64_t nominal = 0;
  std::vector<std::pair<stats::source_id, std::uint64_t>> terms;

  bool operator==(const form_bits&) const = default;
};

form_bits bits_of(const stats::linear_form& f) {
  stats::linear_form c = f;
  c.own_terms();
  form_bits out;
  out.nominal = std::bit_cast<std::uint64_t>(c.mean());
  for (const auto& t : c.terms()) {
    out.terms.emplace_back(t.id, std::bit_cast<std::uint64_t>(t.coeff));
  }
  return out;
}

void expect_lists_bitwise_equal(const std::vector<stat_candidate>& a,
                                const std::vector<stat_candidate>& b,
                                const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits_of(a[i].load), bits_of(b[i].load)) << what << " load " << i;
    EXPECT_EQ(bits_of(a[i].rat), bits_of(b[i].rat)) << what << " rat " << i;
  }
}

// ---------------------------------------------------------------------------
// 1. Kernel layer.
// ---------------------------------------------------------------------------

TEST(TiledKernels, BatchedReductionsMatchOnePlaneBitwise) {
  const std::size_t num_sources = 100;  // not a multiple of 4: tail columns
  const auto space = make_space(num_sources, 31);
  auto rng = stats::make_rng(77);

  stats::candidate_plane plane;
  plane.reset(space);
  const std::size_t m = 37;  // not a multiple of 4: remainder rows
  for (std::size_t i = 0; i < m; ++i) {
    plane.add_row(random_form(rng, num_sources, 0.5, -1.0, 1.0));
  }
  stats::candidate_plane xp;
  xp.reset(space);
  xp.add_row(random_form(rng, num_sources, 0.5, -1.0, 1.0));

  std::vector<const double*> rows(m);
  for (std::size_t i = 0; i < m; ++i) rows[i] = plane.row(i);
  const double* s2 = space.sigma2_data();

  for (const auto isa : reachable_isas()) {
    isa_guard guard{isa};
    const auto& kt = kernels::active();
    std::vector<double> out(m);

    kt.variance_rows(rows.data(), m, s2, num_sources, out.data());
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                std::bit_cast<std::uint64_t>(
                    kt.variance_plane(rows[j], s2, num_sources)))
          << "variance " << kernels::to_string(isa) << " row " << j;
    }

    kt.sigma_diff_sq_row_tile(xp.row(0), rows.data(), m, s2, num_sources,
                              out.data());
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                std::bit_cast<std::uint64_t>(kt.sigma_diff_sq_planes(
                    xp.row(0), rows[j], s2, num_sources)))
          << "sigma_diff_sq " << kernels::to_string(isa) << " row " << j;
    }
  }
}

TEST(TiledKernels, PlaneReductionsMatchSparseFormsBitwise) {
  // A gathered row holds exactly 0.0 in absent slots, so the one-plane
  // reductions must reproduce the sparse passes over the forms' terms bit
  // for bit: variance against linear_form::variance, and the
  // sigma-of-difference sum against sigma_of_difference after its sqrt.
  const std::size_t num_sources = 70;  // not a multiple of 8: tail columns
  const auto space = make_space(num_sources, 13);
  auto rng = stats::make_rng(41);
  std::vector<stats::linear_form> forms;
  for (std::size_t i = 0; i < 12; ++i) {
    forms.push_back(
        random_form(rng, num_sources, i % 2 == 0 ? 0.3 : 0.9, -1.0, 1.0));
  }
  // Explicit signed zeros (which add_term would skip) and denormals: present
  // terms whose contributions round to zero, next to absent slots.
  const double tiny = std::numeric_limits<double>::denorm_min();
  forms.emplace_back(0.25, std::vector<stats::lf_term>{{0, 0.0},
                                                       {3, -0.0},
                                                       {5, tiny},
                                                       {6, -tiny},
                                                       {9, 0.03},
                                                       {64, -0.0},
                                                       {69, 1e-310}});

  stats::candidate_plane plane;
  plane.reset(space);
  for (const auto& f : forms) plane.add_row(f);
  const double* s2 = space.sigma2_data();

  for (const auto isa : reachable_isas()) {
    const auto& kt = kernels::table_for(isa);
    for (std::size_t i = 0; i < forms.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    kt.variance_plane(plane.row(i), s2, num_sources)),
                std::bit_cast<std::uint64_t>(forms[i].variance(space)))
          << "variance " << kernels::to_string(isa) << " form " << i;
      for (std::size_t j = 0; j < forms.size(); ++j) {
        const double sq = kt.sigma_diff_sq_planes(plane.row(i), plane.row(j),
                                                  s2, num_sources);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(std::sqrt(std::max(sq, 0.0))),
                  std::bit_cast<std::uint64_t>(
                      stats::sigma_of_difference(forms[i], forms[j], space)))
            << "sigma_diff " << kernels::to_string(isa) << " forms " << i
            << ", " << j;
      }
    }
  }
}

TEST(TiledKernels, BatchedReductionsMatchScalarAcrossIsas) {
  const std::size_t num_sources = 67;
  const auto space = make_space(num_sources, 5);
  auto rng = stats::make_rng(6);
  stats::candidate_plane plane;
  plane.reset(space);
  const std::size_t m = 19;
  for (std::size_t i = 0; i < m; ++i) {
    plane.add_row(random_form(rng, num_sources, 0.7, -1.0, 1.0));
  }
  std::vector<const double*> rows(m);
  for (std::size_t i = 0; i < m; ++i) rows[i] = plane.row(i);

  std::vector<double> ref(m);
  {
    isa_guard guard{kernels::kernel_isa::scalar};
    kernels::active().variance_rows(rows.data(), m, space.sigma2_data(),
                                    num_sources, ref.data());
  }
  for (const auto isa : reachable_isas()) {
    isa_guard guard{isa};
    std::vector<double> out(m);
    kernels::active().variance_rows(rows.data(), m, space.sigma2_data(),
                                    num_sources, out.data());
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                std::bit_cast<std::uint64_t>(ref[j]))
          << kernels::to_string(isa) << " row " << j;
    }
  }
}

TEST(TiledKernels, CarriedColumnsMatchFullWidthBitwise) {
  // A carried-column gather drops only the columns every row is absent
  // from and keeps id order, so the batched reductions over it must
  // reproduce the full-width gather's outputs bit for bit -- NaN, -0.0,
  // ids 0 and size() - 1, and a row with no terms included. The planes are
  // reused for a second list over other ids, as a worker's scratch is:
  // its columns must be that list's own.
  const auto space = make_space(kWideSpace, 19);
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (std::bit_cast<std::uint64_t>(a[j]) !=
          std::bit_cast<std::uint64_t>(b[j])) {
        return false;
      }
    }
    return true;
  };
  stats::candidate_plane full;
  stats::candidate_plane limited;
  for (const std::uint64_t seed : {5u, 6u}) {
    const auto list = sparse_list(37, 80, 60, seed);
    const stats::linear_form constant{1.5};
    std::vector<const stats::linear_form*> forms;
    for (const auto& c : list) {
      forms.push_back(&c.load);
      forms.push_back(&c.rat);
    }
    forms.push_back(&constant);
    std::set<stats::source_id> carried;
    for (const auto* f : forms) {
      for (const auto& t : f->terms()) carried.insert(t.id);
    }
    ASSERT_TRUE(carried.count(0) == 1 && carried.count(kWideSpace - 1) == 1);

    full.reset(space);
    for (const auto* f : forms) full.add_row(*f);
    limited.gather(space, forms);
    ASSERT_EQ(full.columns(), kWideSpace);
    ASSERT_EQ(limited.columns(), carried.size()) << "seed " << seed;
    const std::size_t m = forms.size();
    std::vector<const double*> full_rows(m);
    std::vector<const double*> limited_rows(m);
    for (std::size_t i = 0; i < m; ++i) {
      full_rows[i] = full.row(i);
      limited_rows[i] = limited.row(i);
    }

    for (const auto isa : reachable_isas()) {
      const auto& kt = kernels::table_for(isa);
      std::vector<double> want(m);
      std::vector<double> got(m);
      kt.variance_rows(full_rows.data(), m, full.sigma2(), full.columns(),
                       want.data());
      kt.variance_rows(limited_rows.data(), m, limited.sigma2(),
                       limited.columns(), got.data());
      EXPECT_TRUE(same_bits(want, got))
          << "variance_rows " << kernels::to_string(isa) << " seed " << seed;
      for (std::size_t x = 0; x < m; ++x) {
        kt.sigma_diff_sq_row_tile(full.row(x), full_rows.data(), m,
                                  full.sigma2(), full.columns(), want.data());
        kt.sigma_diff_sq_row_tile(limited.row(x), limited_rows.data(), m,
                                  limited.sigma2(), limited.columns(),
                                  got.data());
        EXPECT_TRUE(same_bits(want, got))
            << "sigma_diff_sq_row_tile " << kernels::to_string(isa)
            << " seed " << seed << " x " << x;
      }
    }
  }
}

TEST(TiledKernels, PrefilterVerdictsFollowScalarBranchOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // z thresholds for p ~ 0.9: z_p ~ 1.2816, pre-widened by kappa.
  const double z_hi = 1.2816 + 1e-6;
  const double z_lo = 1.2816 - 1e-6;
  const double mu_d[] = {
      10.0,   // far above z_hi * (1 + 1) -> definitely true
      -0.5,   // negative mean difference -> definitely false
      0.1,    // below z_lo * |2 - 0.25| -> definitely false
      2.56,   // between the bounds for sigmas (1, 1) -> undecided
      nan,    // NaN mean -> fails every comparison -> undecided
      1.0,    // NaN sigma -> undecided
  };
  const double sx[] = {1.0, 1.0, 2.0, 1.0, 1.0, nan};
  const double sy[] = {1.0, 1.0, 0.25, 1.0, 1.0, 1.0};
  const std::uint8_t want[] = {1, 0, 0, 2, 2, 2};
  for (const auto isa : reachable_isas()) {
    isa_guard guard{isa};
    std::uint8_t verdict[6] = {9, 9, 9, 9, 9, 9};
    kernels::active().prefilter_row_tile(mu_d, sx, sy, 6, z_hi, z_lo, verdict);
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(verdict[j], want[j]) << kernels::to_string(isa) << " " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Prune layer: forced pairwise vs forced tiled.
// ---------------------------------------------------------------------------

TEST(TiledPolicy, ThresholdsAndOverrides) {
  {
    prune_guard guard{0};  // adaptive
    EXPECT_TRUE(use_tiled_prune(32, 16));
    EXPECT_FALSE(use_tiled_prune(31, 16));
    EXPECT_FALSE(use_tiled_prune(32, 15));
  }
  {
    prune_guard guard{1};
    EXPECT_TRUE(use_tiled_prune(2, 1));
  }
  {
    prune_guard guard{-1};
    EXPECT_FALSE(use_tiled_prune(1000, 1000));
  }
}

class TiledDifferential : public ::testing::TestWithParam<double> {};

TEST_P(TiledDifferential, TwoParamMatchesPairwiseBitwise) {
  const double p = GetParam();
  two_param_rule rule;
  rule.p_load = p;
  rule.p_rat = p;
  for (const std::size_t num_sources : {24u, 64u}) {
    const auto space = make_space(num_sources, num_sources);
    for (const std::size_t k : {40u, 160u}) {
      const auto base = random_list(k, num_sources, k * 31 + num_sources);
      for (const auto isa : reachable_isas()) {
        isa_guard ig{isa};
        auto a = base;
        auto b = base;
        dp_stats sa, sb;
        {
          prune_guard guard{-1};
          prune_two_param(rule, a, space, sa);
        }
        {
          prune_guard guard{1};
          prune_two_param(rule, b, space, sb);
        }
        EXPECT_EQ(sa.tiled_prunes, 0u);
        EXPECT_EQ(sb.tiled_prunes, 1u);
        EXPECT_GT(sb.pairs_batched, 0u);
        EXPECT_EQ(sa.candidates_pruned, sb.candidates_pruned)
            << "p=" << p << " k=" << k << " sources=" << num_sources;
        expect_lists_bitwise_equal(a, b, kernels::to_string(isa));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Confidence, TiledDifferential,
                         ::testing::Values(0.6, 0.8, 0.95),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "p" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

TEST(TiledDifferentialFourParam, MatchesPairwiseBitwise) {
  // VABI_FORCE_PRUNE pins only the 2P sweep: a forced-tiled 4P prune runs
  // the same corner loop as a forced-pairwise one on every ISA.
  const four_param_rule rule;
  for (const std::size_t num_sources : {24u, 64u}) {
    const auto space = make_space(num_sources, num_sources + 1);
    const auto base = random_list(120, num_sources, num_sources * 7);
    for (const auto isa : reachable_isas()) {
      isa_guard ig{isa};
      auto a = base;
      auto b = base;
      dp_stats sa, sb;
      {
        prune_guard guard{-1};
        prune_four_param(rule, a, space, sa);
      }
      {
        prune_guard guard{1};
        prune_four_param(rule, b, space, sb);
      }
      EXPECT_EQ(sa.tiled_prunes, 0u);
      EXPECT_EQ(sb.tiled_prunes, 0u);
      EXPECT_EQ(sb.pairs_batched, 0u);
      EXPECT_EQ(sa.candidates_pruned, sb.candidates_pruned);
      expect_lists_bitwise_equal(a, b, kernels::to_string(isa));
    }
  }
}

TEST(TiledDifferential, MeanRuleNeverTiles) {
  const two_param_rule rule;  // p = 0.5
  ASSERT_TRUE(rule.is_mean_rule());
  const auto space = make_space(32, 1);
  auto list = random_list(128, 32, 17);
  dp_stats s;
  prune_guard guard{1};  // even under forced tiled
  prune_two_param(rule, list, space, s);
  EXPECT_EQ(s.tiled_prunes, 0u);
  EXPECT_EQ(s.pairs_batched, 0u);
}

TEST(TiledDifferential, SurvivorsAreMutuallyNonDominated) {
  // Property check on the tiled survivors directly (not just equality with
  // pairwise). The 2P sweep at p > 0.5 is the paper's *window-local*
  // linearization -- survivors farther than sweep_window apart may still
  // dominate -- so the 2P invariant is: no survivor is dominated by any of
  // the `window` survivors kept immediately before it. The 4P prune is the
  // full O(n^2) pass, so there the global property holds.
  two_param_rule rule2;
  rule2.p_load = 0.8;
  rule2.p_rat = 0.8;
  const four_param_rule rule4;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto space = make_space(32, seed);
    prune_guard guard{1};
    {
      auto list = random_list(80, 32, seed * 101);
      dp_stats s;
      prune_two_param(rule2, list, space, s);
      EXPECT_FALSE(list.empty());
      const std::size_t window = rule2.sweep_window;
      for (std::size_t i = 0; i < list.size(); ++i) {
        for (std::size_t k = 1; k <= window && k <= i; ++k) {
          EXPECT_FALSE(dominates(rule2, list[i - k], list[i], space))
              << "2P seed " << seed << " pair (" << i - k << ", " << i << ")";
        }
      }
    }
    {
      auto list = random_list(80, 32, seed * 103);
      dp_stats s;
      prune_four_param(rule4, list, space, s);
      EXPECT_FALSE(list.empty());
      EXPECT_TRUE(is_mutually_non_dominated(rule4, list, space))
          << "4P seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Column-limited planes: lists sparse in a wide space.
// ---------------------------------------------------------------------------

/// Prunes `base` forced pairwise and forced tiled on every reachable ISA and
/// requires bit-identical survivors. Returns the tiled run's load and RAT
/// plane widths.
std::pair<std::size_t, std::size_t> expect_tiled_matches_pairwise(
    const two_param_rule& rule, const std::vector<stat_candidate>& base,
    const stats::variation_space& space, const char* what) {
  std::pair<std::size_t, std::size_t> widths{0, 0};
  for (const auto isa : reachable_isas()) {
    isa_guard ig{isa};
    auto a = base;
    auto b = base;
    dp_stats sa, sb;
    prune_scratch scratch;
    {
      prune_guard guard{-1};
      prune_two_param(rule, a, space, sa);
    }
    {
      prune_guard guard{1};
      prune_two_param(rule, b, space, sb, &scratch);
    }
    EXPECT_EQ(sb.tiled_prunes, 1u) << what;
    EXPECT_GT(sa.candidates_pruned, 0u) << what;
    EXPECT_EQ(sa.candidates_pruned, sb.candidates_pruned)
        << what << " " << kernels::to_string(isa);
    expect_lists_bitwise_equal(a, b, what);
    widths = {scratch.load_planes.columns(), scratch.rat_planes.columns()};
  }
  return widths;
}

TEST(TiledSparseDifferential, TwoParamMatchesPairwiseBitwise) {
  // confidence_net's shape: ~60-term forms from a pool of ~80 ids in a
  // space of thousands. The planes span the carried ids only.
  const auto space = make_space(kWideSpace, 11);
  for (const double p : {0.6, 0.9}) {
    two_param_rule rule;
    rule.p_load = p;
    rule.p_rat = p;
    for (const std::size_t k : {37u, 128u}) {
      const auto base = sparse_list(k, 80, 60, k * 7 + 1);
      const auto [load_cols, rat_cols] =
          expect_tiled_matches_pairwise(rule, base, space, "sparse");
      EXPECT_EQ(load_cols, carried_ids(base, &stat_candidate::load).size());
      EXPECT_EQ(rat_cols, carried_ids(base, &stat_candidate::rat).size());
      EXPECT_LT(load_cols, 100u);
    }
  }
}

TEST(TiledSparseDifferential, IdentityRuleSidesMatchPairwiseBitwise) {
  // A plane takes the identity map once its forms' terms cover the space,
  // 2 * terms >= k * space.size(). Two lists straddle that boundary by one
  // term; neither carries ids 0-2 and 2049, so the identity map is wider
  // than the carried columns and the plane widths tell the sides apart.
  const std::size_t k = 32;
  const std::size_t per_form = kWideSpace / 2;
  const auto space = make_space(kWideSpace, 23);
  std::vector<stats::source_id> pool;
  for (stats::source_id id = 3; id < kWideSpace; ++id) {
    if (id != kLoneId) pool.push_back(id);
  }
  auto rng = stats::make_rng(29);
  const double scale = 0.05 * std::sqrt(60.0 / per_form);
  std::vector<stat_candidate> at_rule;
  for (std::size_t i = 0; i < k; ++i) {
    at_rule.push_back(
        {form_over(rng, draw_ids(rng, pool, per_form), 0.0, 2.0, scale),
         form_over(rng, draw_ids(rng, pool, per_form), -100.0, 100.0, scale),
         nullptr});
  }
  at_rule[3].load = at_rule[2].load;
  at_rule[5] = {at_rule[4].load, at_rule[4].rat, nullptr};
  auto below_rule = at_rule;
  for (auto* f : {&below_rule[9].load, &below_rule[9].rat}) {
    std::vector<stats::lf_term> terms(f->terms().begin() + 1, f->terms().end());
    *f = stats::linear_form{f->mean(), std::move(terms)};
  }

  two_param_rule rule;
  rule.p_load = 0.8;
  rule.p_rat = 0.8;
  const auto identity =
      expect_tiled_matches_pairwise(rule, at_rule, space, "at rule");
  EXPECT_EQ(identity.first, kWideSpace);
  EXPECT_EQ(identity.second, kWideSpace);
  const auto carried =
      expect_tiled_matches_pairwise(rule, below_rule, space, "below rule");
  EXPECT_LT(carried.first, kWideSpace);
  EXPECT_LT(carried.second, kWideSpace);
}

TEST(TiledSparseDifferential, PoolWorkersMatchSerial) {
  // Tiled prunes on pool workers, the way the engine runs them: every task
  // sweeps all lists, in its own order, through one scratch it owns (or
  // the thread-local fallback), so column maps are reused across lists of
  // different columns while other workers gather theirs. Each result must
  // equal the serial pairwise sweep's.
  two_param_rule rule;
  rule.p_load = 0.9;
  rule.p_rat = 0.9;
  const auto space = make_space(kWideSpace, 31);
  constexpr std::size_t kLists = 6;
  std::vector<std::vector<stat_candidate>> bases;
  std::vector<std::vector<stat_candidate>> want;
  for (std::size_t i = 0; i < kLists; ++i) {
    bases.push_back(sparse_list(48 + 8 * i, 60 + 10 * i, 50, 101 + i));
    want.push_back(bases.back());
    dp_stats s;
    prune_guard guard{-1};
    prune_two_param(rule, want.back(), space, s);
  }

  constexpr std::size_t kTasks = 4;
  std::vector<std::vector<std::vector<stat_candidate>>> got(kTasks);
  {
    prune_guard guard{1};
    thread_pool pool{kTasks};
    std::vector<std::future<void>> done;
    for (std::size_t t = 0; t < kTasks; ++t) {
      auto task = std::make_shared<std::packaged_task<void()>>([&, t] {
        prune_scratch own;
        got[t].resize(kLists);
        for (std::size_t j = 0; j < kLists; ++j) {
          const std::size_t i = (j + t) % kLists;
          got[t][i] = bases[i];
          dp_stats s;
          prune_two_param(rule, got[t][i], space, s,
                          t % 2 == 0 ? &own : nullptr);
        }
      });
      done.push_back(task->get_future());
      pool.submit([task] { (*task)(); });
    }
    for (auto& f : done) f.get();
  }
  for (std::size_t t = 0; t < kTasks; ++t) {
    for (std::size_t i = 0; i < kLists; ++i) {
      expect_lists_bitwise_equal(want[i], got[t][i], "pool worker");
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Engine layer: full solves under both modes.
// ---------------------------------------------------------------------------

struct engine_case {
  const char* name;
  pruning_kind rule;
  double pbar;
  std::size_t threads;  ///< 0 = serial engine
  li_shi_mode li_shi;
};

// Without this gtest lists the case as its raw bytes, `name` pointer
// included, and the ctest name would change with the address-space layout.
void PrintTo(const engine_case& ec, std::ostream* os) { *os << ec.name; }

class TiledEngineDifferential : public ::testing::TestWithParam<engine_case> {
};

TEST_P(TiledEngineDifferential, SolveIsBitIdenticalAcrossPruneModes) {
  const engine_case& ec = GetParam();

  tree::benchmark_spec spec;
  spec.name = "tiled_diff";
  spec.sinks = 32;
  spec.die_side_um = 2500.0;
  spec.seed = 917;
  const auto net = tree::build_benchmark(spec);

  layout::process_model_config pc;
  pc.mode = layout::wid_mode();
  pc.spatial.profile = layout::spatial_profile::heterogeneous;

  stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  o.rule = ec.rule;
  o.root_percentile = 0.05;
  o.selection_percentile = 0.05;
  o.two_param.p_load = ec.pbar;
  o.two_param.p_rat = ec.pbar;
  o.li_shi = ec.li_shi;

  const auto solve = [&](int mode) {
    prune_guard guard{mode};
    layout::process_model model{layout::square_die(spec.die_side_um), pc};
    if (ec.threads == 0) {
      return solved(solve_statistical_insertion(net, model, o));
    }
    thread_pool pool{ec.threads};
    return solved(solve_parallel_insertion(net, model, o, pool));
  };

  const auto pairwise = solve(-1);
  const auto tiled = solve(1);
  ASSERT_TRUE(pairwise.ok()) << pairwise.stats.abort_reason;
  ASSERT_TRUE(tiled.ok()) << tiled.stats.abort_reason;

  EXPECT_EQ(pairwise.num_buffers, tiled.num_buffers);
  EXPECT_EQ(pairwise.stats.candidates_created, tiled.stats.candidates_created);
  EXPECT_EQ(pairwise.stats.candidates_pruned, tiled.stats.candidates_pruned);
  EXPECT_EQ(pairwise.stats.merge_pairs, tiled.stats.merge_pairs);
  EXPECT_EQ(bits_of(pairwise.root_rat), bits_of(tiled.root_rat));
  for (tree::node_id n = 0; n < net.num_nodes(); ++n) {
    ASSERT_EQ(pairwise.assignment.has_buffer(n), tiled.assignment.has_buffer(n));
    if (pairwise.assignment.has_buffer(n)) {
      EXPECT_EQ(pairwise.assignment.buffer(n), tiled.assignment.buffer(n));
    }
  }
  EXPECT_EQ(pairwise.stats.tiled_prunes, 0u);
  if (ec.rule == pruning_kind::four_param) {
    EXPECT_EQ(tiled.stats.tiled_prunes, 0u);  // the override is 2P-only
  }
}

constexpr engine_case kEngineCases[] = {
    {"serial_2p_p90", pruning_kind::two_param, 0.9, 0, li_shi_mode::never},
    {"serial_2p_p90_li_shi", pruning_kind::two_param, 0.9, 0,
     li_shi_mode::always},
    {"serial_4p", pruning_kind::four_param, 0.5, 0, li_shi_mode::never},
    {"t1_2p_p90", pruning_kind::two_param, 0.9, 1, li_shi_mode::never},
    {"t2_2p_p90", pruning_kind::two_param, 0.9, 2, li_shi_mode::never},
    {"t8_2p_p90", pruning_kind::two_param, 0.9, 8, li_shi_mode::never},
    {"t8_2p_p90_li_shi", pruning_kind::two_param, 0.9, 8,
     li_shi_mode::always},
    {"t2_4p", pruning_kind::four_param, 0.5, 2, li_shi_mode::never},
    {"t8_4p", pruning_kind::four_param, 0.5, 8, li_shi_mode::never},
};

INSTANTIATE_TEST_SUITE_P(RulesThreadsLiShi, TiledEngineDifferential,
                         ::testing::ValuesIn(kEngineCases),
                         [](const ::testing::TestParamInfo<engine_case>& i) {
                           return std::string(i.param.name);
                         });

}  // namespace
}  // namespace vabi::core
