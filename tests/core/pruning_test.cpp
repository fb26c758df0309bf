#include "core/pruning.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>

#include "stats/rng.hpp"

namespace vabi::core {
namespace {

stat_candidate make_cand(double load_mean, double rat_mean,
                         std::vector<stats::lf_term> load_terms = {},
                         std::vector<stats::lf_term> rat_terms = {}) {
  return {stats::linear_form{load_mean, std::move(load_terms)},
          stats::linear_form{rat_mean, std::move(rat_terms)}, nullptr};
}

// ---------------------------------------------------------------------------
// Deterministic rule.
// ---------------------------------------------------------------------------

TEST(DetPruning, KeepsParetoFrontSorted) {
  dp_stats s;
  std::vector<det_candidate> list{
      {0.3, 6.0, nullptr}, {0.1, 5.0, nullptr}, {0.2, 4.0, nullptr},
      {0.15, 5.5, nullptr}, {0.4, 7.0, nullptr}};
  prune_deterministic(list, s);
  // (0.2, 4.0) dominated by (0.1, 5.0); (0.3,6.0)? (0.15,5.5) doesn't beat it.
  ASSERT_EQ(list.size(), 4u);
  for (std::size_t i = 1; i < list.size(); ++i) {
    EXPECT_LT(list[i - 1].load_pf, list[i].load_pf);
    EXPECT_LT(list[i - 1].rat_ps, list[i].rat_ps);
  }
  EXPECT_EQ(s.candidates_pruned, 1u);
}

TEST(DetPruning, DeduplicatesEqualCandidates) {
  dp_stats s;
  std::vector<det_candidate> list{{0.1, 5.0, nullptr}, {0.1, 5.0, nullptr}};
  prune_deterministic(list, s);
  EXPECT_EQ(list.size(), 1u);
}

// ---------------------------------------------------------------------------
// Two-parameter rule.
// ---------------------------------------------------------------------------

class TwoParamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    x_ = space_.add_source(stats::source_kind::random_device, 1.0);
    y_ = space_.add_source(stats::source_kind::random_device, 1.0);
  }
  stats::variation_space space_;
  stats::source_id x_ = 0, y_ = 0;
};

TEST_F(TwoParamTest, MeanRuleComparesMeans) {
  const two_param_rule rule;  // p = 0.5
  const auto a = make_cand(0.1, 5.0, {{x_, 0.01}}, {{x_, 1.0}});
  const auto b = make_cand(0.2, 4.0, {{y_, 0.05}}, {{y_, 3.0}});
  EXPECT_TRUE(dominates(rule, a, b, space_));
  EXPECT_FALSE(dominates(rule, b, a, space_));
}

TEST_F(TwoParamTest, MeanRuleTieIsMutualDominance) {
  const two_param_rule rule;
  const auto a = make_cand(0.1, 5.0);
  const auto b = make_cand(0.1, 5.0, {{x_, 0.01}}, {{x_, 2.0}});
  // Equal means: each dominates the other (dedup semantics).
  EXPECT_TRUE(dominates(rule, a, b, space_));
  EXPECT_TRUE(dominates(rule, b, a, space_));
}

TEST_F(TwoParamTest, HigherConfidenceRequiresSeparation) {
  two_param_rule rule;
  rule.p_load = 0.9;
  rule.p_rat = 0.9;
  // Means barely separated, sigma large: probabilities near 0.5 -> no
  // dominance in either direction.
  const auto a = make_cand(0.10, 5.0, {{x_, 0.05}}, {{x_, 10.0}});
  const auto b = make_cand(0.11, 4.9, {{y_, 0.05}}, {{y_, 10.0}});
  EXPECT_FALSE(dominates(rule, a, b, space_));
  EXPECT_FALSE(dominates(rule, b, a, space_));
  // Widely separated means: dominance holds even at p = 0.9.
  const auto c = make_cand(0.10, 5.0, {{x_, 0.001}}, {{x_, 0.1}});
  const auto d = make_cand(0.50, -20.0, {{y_, 0.001}}, {{y_, 0.1}});
  EXPECT_TRUE(dominates(rule, c, d, space_));
}

TEST_F(TwoParamTest, IdenticalFormTieConventionAtHighP) {
  two_param_rule rule;
  rule.p_load = 0.9;
  rule.p_rat = 0.9;
  // Same load form (the shared-buffer case), clearly separated RATs.
  const stats::linear_form shared_load{0.1, {{x_, 0.01}}};
  stat_candidate a{shared_load, stats::linear_form{5.0, {{y_, 0.1}}}, nullptr};
  stat_candidate b{shared_load, stats::linear_form{0.0, {{y_, 0.1}}}, nullptr};
  EXPECT_TRUE(dominates(rule, a, b, space_));
  EXPECT_FALSE(dominates(rule, b, a, space_));
}

TEST_F(TwoParamTest, PruneKeepsMeanParetoFront) {
  const two_param_rule rule;
  dp_stats s;
  std::vector<stat_candidate> list;
  list.push_back(make_cand(0.3, 6.0));
  list.push_back(make_cand(0.1, 5.0, {{x_, 0.02}}, {{x_, 0.5}}));
  list.push_back(make_cand(0.2, 4.0));  // dominated
  list.push_back(make_cand(0.4, 7.0, {{y_, 0.02}}, {{y_, 0.5}}));
  prune_two_param(rule, list, space_, s);
  ASSERT_EQ(list.size(), 3u);
  for (std::size_t i = 1; i < list.size(); ++i) {
    EXPECT_LT(list[i - 1].load.mean(), list[i].load.mean());
    EXPECT_LT(list[i - 1].rat.mean(), list[i].rat.mean());
  }
  EXPECT_EQ(s.candidates_pruned, 1u);
  EXPECT_TRUE(is_mutually_non_dominated(rule, list, space_));
}

TEST_F(TwoParamTest, PruneExactAtMeanRule) {
  // Result contains exactly the non-dominated candidates (checked by brute
  // force on a random-ish fixed set).
  const two_param_rule rule;
  std::vector<stat_candidate> list;
  const double loads[] = {0.5, 0.2, 0.9, 0.2, 0.7, 0.1, 0.3};
  const double rats[] = {3.0, 1.0, 9.0, 2.0, 6.0, 1.0, 2.5};
  for (int i = 0; i < 7; ++i) list.push_back(make_cand(loads[i], rats[i]));
  std::vector<stat_candidate> copy = list;
  dp_stats s;
  prune_two_param(rule, list, space_, s);
  // Brute-force the expected survivor count.
  std::size_t expected = 0;
  for (std::size_t i = 0; i < copy.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < copy.size() && !dominated; ++j) {
      if (i != j) {
        const bool d = dominates(rule, copy[j], copy[i], space_);
        const bool rev = dominates(rule, copy[i], copy[j], space_);
        // Mutual (tie) dominance: the sweep keeps exactly one; count the
        // first index as the survivor.
        dominated = d && (!rev || j < i);
      }
    }
    if (!dominated) ++expected;
  }
  EXPECT_EQ(list.size(), expected);
}

// ---------------------------------------------------------------------------
// Four-parameter rule.
// ---------------------------------------------------------------------------

TEST_F(TwoParamTest, FourParamNeedsPercentileSeparation) {
  const four_param_rule rule;
  // Overlapping percentile intervals: no dominance either way.
  const auto a = make_cand(0.10, 5.0, {{x_, 0.02}}, {{x_, 2.0}});
  const auto b = make_cand(0.12, 4.5, {{y_, 0.02}}, {{y_, 2.0}});
  EXPECT_FALSE(dominates(rule, a, b, space_));
  EXPECT_FALSE(dominates(rule, b, a, space_));
  // Separated beyond the 5/95 percentiles: dominance.
  const auto c = make_cand(0.10, 5.0, {{x_, 0.001}}, {{x_, 0.1}});
  const auto d = make_cand(0.50, -10.0, {{y_, 0.001}}, {{y_, 0.1}});
  EXPECT_TRUE(dominates(rule, c, d, space_));
}

TEST_F(TwoParamTest, FourParamPruneRemovesOnlyDominated) {
  const four_param_rule rule;
  dp_stats s;
  std::vector<stat_candidate> list;
  list.push_back(make_cand(0.10, 5.0, {{x_, 0.001}}, {{x_, 0.1}}));
  list.push_back(make_cand(0.50, -10.0, {{y_, 0.001}}, {{y_, 0.1}}));  // dead
  list.push_back(make_cand(0.12, 4.9, {{y_, 0.02}}, {{y_, 2.0}}));    // kept
  prune_four_param(rule, list, space_, s);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(s.candidates_pruned, 1u);
  EXPECT_TRUE(is_mutually_non_dominated(rule, list, space_));
}

TEST_F(TwoParamTest, FourParamKeepsMoreThanTwoParam) {
  // The same cloud of near candidates: 2P mean rule collapses it, 4P keeps
  // everything whose percentile intervals overlap -- the capacity problem.
  std::vector<stat_candidate> for_2p;
  std::vector<stat_candidate> for_4p;
  for (int i = 0; i < 10; ++i) {
    auto c = make_cand(0.1 + 0.001 * i, 5.0 - 0.001 * i, {{x_, 0.02}},
                       {{y_, 2.0}});
    for_2p.push_back(c);
    for_4p.push_back(c);
  }
  dp_stats s2, s4;
  prune_two_param(two_param_rule{}, for_2p, space_, s2);
  prune_four_param(four_param_rule{}, for_4p, space_, s4);
  EXPECT_EQ(for_2p.size(), 1u);
  EXPECT_EQ(for_4p.size(), 10u);
}

// ---------------------------------------------------------------------------
// Corner rule.
// ---------------------------------------------------------------------------

TEST_F(TwoParamTest, CornerRuleProjectsAndCompares) {
  const corner_rule rule;  // q = 0.95
  // Same means, different sigma: the corner rule penalizes spread.
  const auto tight = make_cand(0.1, 5.0, {{x_, 0.001}}, {{x_, 0.1}});
  const auto wide = make_cand(0.1, 5.0, {{y_, 0.05}}, {{y_, 5.0}});
  EXPECT_TRUE(dominates(rule, tight, wide, space_));
  EXPECT_FALSE(dominates(rule, wide, tight, space_));
}

TEST_F(TwoParamTest, CornerPruneTotalOrder) {
  const corner_rule rule;
  dp_stats s;
  std::vector<stat_candidate> list;
  for (int i = 0; i < 6; ++i) {
    list.push_back(make_cand(0.1 + 0.05 * i, 5.0 - 1.0 * i));
  }
  prune_corner(rule, list, space_, s);
  EXPECT_EQ(list.size(), 1u);  // strictly worse in both -> collapse
}

// ---------------------------------------------------------------------------
// Prefilter / sigma-memo / moment-cache equivalence. The interval prefilter
// and the cached moments are pure accelerations: dominates() must return
// exactly what the direct probability formula returns, for every pair.
// ---------------------------------------------------------------------------

class PrefilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 6; ++i) {
      ids_[i] =
          space_.add_source(stats::source_kind::random_device, 0.4 + 0.3 * i);
    }
  }

  /// The 2P dominance condition written directly from eqs. (6)-(7), with the
  /// identical-form tie convention -- the definition dominates() accelerates.
  bool reference_dominates(const two_param_rule& rule, const stat_candidate& a,
                           const stat_candidate& b) const {
    const bool load_ok = a.load == b.load ||
                         stats::prob_greater(b.load, a.load, space_) >=
                             rule.p_load;
    const bool rat_ok =
        b.rat == a.rat ||
        stats::prob_greater(a.rat, b.rat, space_) >= rule.p_rat;
    return load_ok && rat_ok;
  }

  stat_candidate random_cand(stats::rng_engine& rng, double mean_span) const {
    std::uniform_real_distribution<double> mean(-mean_span, mean_span);
    std::uniform_real_distribution<double> coeff(-0.2, 0.2);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<stats::lf_term> lt, rt;
    for (const auto id : ids_) {
      if (unit(rng) < 0.7) lt.push_back({id, coeff(rng)});
      if (unit(rng) < 0.7) rt.push_back({id, 5.0 * coeff(rng)});
    }
    return make_cand(mean(rng), 10.0 * mean(rng), std::move(lt),
                     std::move(rt));
  }

  stats::variation_space space_;
  stats::source_id ids_[6] = {};
};

TEST_F(PrefilterTest, DominatesMatchesDirectFormula) {
  // mean_span sweeps the three prefilter regimes: tiny separations (always
  // fall through to the exact pass), comparable (mixed), and huge (almost
  // every pair resolves in the prefilter). In all of them the decision must
  // equal the direct formula.
  for (const double p : {0.6, 0.8, 0.99}) {
    const two_param_rule rule{p, p};
    for (const double mean_span : {0.01, 1.0, 100.0}) {
      auto rng = stats::make_rng(42, static_cast<std::uint64_t>(p * 100) +
                                         static_cast<std::uint64_t>(mean_span));
      std::vector<stat_candidate> cands;
      for (int i = 0; i < 24; ++i) cands.push_back(random_cand(rng, mean_span));
      cands.push_back(make_cand(0.0, 0.0));  // zero-sigma corner
      cands.push_back(cands.front());        // identical-form tie corner
      for (const auto& a : cands) {
        for (const auto& b : cands) {
          EXPECT_EQ(dominates(rule, a, b, space_),
                    reference_dominates(rule, a, b))
              << "p=" << p << " span=" << mean_span;
        }
      }
    }
  }
}

TEST_F(PrefilterTest, PrefilterHitsAreCountedOnSeparatedPairs) {
  // Far-separated means with small sigmas: every probability comparison is
  // decided by the mean +- k*sigma interval, so the sweep should record
  // prefilter hits and still keep exactly the Pareto front.
  const two_param_rule rule{0.9, 0.9};
  dp_stats s;
  std::vector<stat_candidate> list;
  for (int i = 0; i < 8; ++i) {
    list.push_back(make_cand(10.0 * i, 500.0 - 100.0 * i,
                             {{ids_[0], 0.01}}, {{ids_[1], 0.02}}));
  }
  list.push_back(make_cand(5.0, -1e4, {{ids_[2], 0.01}}, {{ids_[3], 0.02}}));
  prune_two_param(rule, list, space_, s);
  // The pairwise sweep records hits in dominance_prefilter_hits, the tiled
  // sweep in tile_prefilter_hits -- which one runs depends on the
  // VABI_FORCE_PRUNE policy, so accept either counter.
  EXPECT_GT(s.dominance_prefilter_hits + s.tile_prefilter_hits, 0u);
  EXPECT_TRUE(is_mutually_non_dominated(rule, list, space_));
}

TEST_F(PrefilterTest, SigmaDiffCacheIsSymmetricAndExact) {
  auto rng = stats::make_rng(7);
  const auto a = random_cand(rng, 1.0);
  const auto b = random_cand(rng, 1.0);
  sigma_diff_cache cache;
  const double xy = cache.get(a.load, b.load, space_);
  const double yx = cache.get(b.load, a.load, space_);
  const double direct = stats::sigma_of_difference(a.load, b.load, space_);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(xy),
            std::bit_cast<std::uint64_t>(direct));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(yx),
            std::bit_cast<std::uint64_t>(direct));
}

TEST_F(PrefilterTest, CachedDominatesMatchesUncached) {
  auto rng = stats::make_rng(11);
  const two_param_rule rule{0.75, 0.85};
  std::vector<stat_candidate> cands;
  for (int i = 0; i < 12; ++i) cands.push_back(random_cand(rng, 0.5));
  sigma_diff_cache cache;
  for (const auto& a : cands) {
    for (const auto& b : cands) {
      EXPECT_EQ(dominates(rule, a, b, space_, cache),
                dominates(rule, a, b, space_));
    }
  }
  EXPECT_EQ(is_mutually_non_dominated(rule, cands, space_),
            is_mutually_non_dominated<two_param_rule>(rule, cands, space_));
}

TEST_F(PrefilterTest, MomentCacheLazyAndInvalidates) {
  const auto c = make_cand(1.0, 2.0, {{ids_[0], 0.25}, {ids_[1], -0.5}},
                           {{ids_[2], 1.5}});
  const double direct_load = c.load.variance(space_);
  const double direct_rat = c.rat.variance(space_);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(c.load_variance(space_)),
            std::bit_cast<std::uint64_t>(direct_load));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(c.rat_variance(space_)),
            std::bit_cast<std::uint64_t>(direct_rat));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(c.load_stddev(space_)),
            std::bit_cast<std::uint64_t>(std::sqrt(direct_load)));
  // Cached bits survive repeat queries.
  EXPECT_EQ(c.load_variance(space_), direct_load);
  c.invalidate_load_moments();
  c.invalidate_rat_moments();
  EXPECT_EQ(c.load_variance(space_), direct_load);
  EXPECT_EQ(c.rat_variance(space_), direct_rat);
}

}  // namespace
}  // namespace vabi::core
