#include "stats/linear_form.hpp"

#include "stats/normal.hpp"

#include <random>

#include <gtest/gtest.h>

#include "stats/rng.hpp"

namespace vabi::stats {
namespace {

class LinearFormTest : public ::testing::Test {
 protected:
  void SetUp() override {
    x0_ = space_.add_source(source_kind::random_device, 1.0);
    x1_ = space_.add_source(source_kind::random_device, 2.0);
    x2_ = space_.add_source(source_kind::spatial, 0.5);
  }
  variation_space space_;
  source_id x0_ = 0, x1_ = 0, x2_ = 0;
};

TEST_F(LinearFormTest, DeterministicConstant) {
  linear_form f{3.5};
  EXPECT_DOUBLE_EQ(f.mean(), 3.5);
  EXPECT_TRUE(f.is_deterministic());
  EXPECT_DOUBLE_EQ(f.variance(space_), 0.0);
}

TEST_F(LinearFormTest, ConstructorSortsAndCoalesces) {
  linear_form f{1.0, {{x1_, 2.0}, {x0_, 1.0}, {x1_, 3.0}}};
  EXPECT_EQ(f.num_terms(), 2u);
  EXPECT_DOUBLE_EQ(f.coefficient(x0_), 1.0);
  EXPECT_DOUBLE_EQ(f.coefficient(x1_), 5.0);
  EXPECT_DOUBLE_EQ(f.coefficient(x2_), 0.0);
}

TEST_F(LinearFormTest, AddTermAccumulates) {
  linear_form f{0.0};
  f.add_term(x1_, 1.5);
  f.add_term(x0_, 2.0);
  f.add_term(x1_, 0.5);
  EXPECT_DOUBLE_EQ(f.coefficient(x1_), 2.0);
  EXPECT_DOUBLE_EQ(f.coefficient(x0_), 2.0);
  // terms stay sorted by id
  EXPECT_EQ(f.terms()[0].id, x0_);
  EXPECT_EQ(f.terms()[1].id, x1_);
}

TEST_F(LinearFormTest, VarianceSumsCoeffSquaredTimesSigmaSquared) {
  linear_form f{0.0, {{x0_, 3.0}, {x1_, 1.0}}};
  // 3^2*1^2 + 1^2*2^2 = 13
  EXPECT_DOUBLE_EQ(f.variance(space_), 13.0);
  EXPECT_DOUBLE_EQ(f.stddev(space_), std::sqrt(13.0));
}

TEST_F(LinearFormTest, AdditionMergesSparseTerms) {
  linear_form a{1.0, {{x0_, 1.0}, {x2_, 2.0}}};
  linear_form b{2.0, {{x1_, 3.0}, {x2_, -2.0}}};
  linear_form c = a + b;
  EXPECT_DOUBLE_EQ(c.mean(), 3.0);
  EXPECT_DOUBLE_EQ(c.coefficient(x0_), 1.0);
  EXPECT_DOUBLE_EQ(c.coefficient(x1_), 3.0);
  EXPECT_DOUBLE_EQ(c.coefficient(x2_), 0.0);
}

TEST_F(LinearFormTest, SubtractionCancelsSharedTerms) {
  linear_form a{5.0, {{x0_, 1.0}, {x1_, 2.0}}};
  linear_form b{2.0, {{x0_, 1.0}}};
  linear_form d = a - b;
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
  EXPECT_DOUBLE_EQ(d.coefficient(x0_), 0.0);
  EXPECT_DOUBLE_EQ(d.coefficient(x1_), 2.0);
}

TEST_F(LinearFormTest, ScalarOperations) {
  linear_form f{2.0, {{x0_, 1.0}}};
  f *= 3.0;
  EXPECT_DOUBLE_EQ(f.mean(), 6.0);
  EXPECT_DOUBLE_EQ(f.coefficient(x0_), 3.0);
  f += 1.0;
  EXPECT_DOUBLE_EQ(f.mean(), 7.0);
  f -= 2.0;
  EXPECT_DOUBLE_EQ(f.mean(), 5.0);
  f *= 0.0;
  EXPECT_TRUE(f.is_deterministic());
}

TEST_F(LinearFormTest, CovarianceOnlyCountsSharedSources) {
  linear_form a{0.0, {{x0_, 2.0}, {x1_, 1.0}}};
  linear_form b{0.0, {{x1_, 3.0}, {x2_, 5.0}}};
  // shared: x1 with sigma 2 -> 1*3*4 = 12
  EXPECT_DOUBLE_EQ(covariance(a, b, space_), 12.0);
}

TEST_F(LinearFormTest, CorrelationBounds) {
  linear_form a{0.0, {{x0_, 1.0}}};
  linear_form b{0.0, {{x0_, 2.0}}};
  EXPECT_NEAR(correlation(a, b, space_), 1.0, 1e-12);
  linear_form c{0.0, {{x0_, -1.0}}};
  EXPECT_NEAR(correlation(a, c, space_), -1.0, 1e-12);
  linear_form d{0.0, {{x1_, 1.0}}};
  EXPECT_DOUBLE_EQ(correlation(a, d, space_), 0.0);
  EXPECT_DOUBLE_EQ(correlation(a, linear_form{1.0}, space_), 0.0);
}

TEST_F(LinearFormTest, SigmaOfDifferenceMatchesExplicitSubtraction) {
  linear_form a{1.0, {{x0_, 2.0}, {x1_, 1.0}}};
  linear_form b{4.0, {{x1_, 3.0}, {x2_, 1.0}}};
  const linear_form d = a - b;
  EXPECT_NEAR(sigma_of_difference(a, b, space_), d.stddev(space_), 1e-12);
}

TEST_F(LinearFormTest, ProbGreaterMatchesPaperEq8) {
  // T1 ~ N(10, 1), T2 ~ N(8, 4) (via x1 with sigma 2), independent.
  linear_form t1{10.0, {{x0_, 1.0}}};
  linear_form t2{8.0, {{x1_, 1.0}}};
  // sigma_diff = sqrt(1 + 4) = sqrt(5); P = Phi(2/sqrt(5)).
  EXPECT_NEAR(prob_greater(t1, t2, space_), normal_cdf(2.0 / std::sqrt(5.0)),
              1e-12);
  EXPECT_NEAR(prob_greater(t1, t2, space_) + prob_greater(t2, t1, space_), 1.0,
              1e-12);
}

TEST_F(LinearFormTest, ProbGreaterDegenerate) {
  linear_form a{2.0};
  linear_form b{1.0};
  EXPECT_DOUBLE_EQ(prob_greater(a, b, space_), 1.0);
  EXPECT_DOUBLE_EQ(prob_greater(b, a, space_), 0.0);
  EXPECT_DOUBLE_EQ(prob_greater(a, a, space_), 0.5);
  // Perfectly correlated forms with equal coefficients: difference is const.
  linear_form c{3.0, {{x0_, 1.0}}};
  linear_form d{1.0, {{x0_, 1.0}}};
  EXPECT_DOUBLE_EQ(prob_greater(c, d, space_), 1.0);
}

TEST_F(LinearFormTest, EvaluateAtSample) {
  linear_form f{1.0, {{x0_, 2.0}, {x2_, -1.0}}};
  const std::vector<double> sample{0.5, 9.0, 2.0};
  EXPECT_DOUBLE_EQ(f.evaluate(sample), 1.0 + 2.0 * 0.5 - 1.0 * 2.0);
}

TEST_F(LinearFormTest, PercentileOfForm) {
  linear_form f{10.0, {{x0_, 2.0}}};  // N(10, 4)
  EXPECT_NEAR(percentile(f, space_, 0.5), 10.0, 1e-12);
  EXPECT_NEAR(percentile(f, space_, 0.975), 10.0 + 2.0 * 1.9599639845, 1e-6);
}

// Property test: variance of (a+b) equals Var a + Var b + 2 Cov over random
// sparse forms.
class LinearFormAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(LinearFormAlgebra, VarianceBilinearity) {
  variation_space space;
  for (int i = 0; i < 20; ++i) {
    space.add_source(source_kind::random_device, 0.1 * (i + 1));
  }
  auto rng = make_rng(77, static_cast<std::uint64_t>(GetParam()));
  std::uniform_int_distribution<int> pick(0, 19);
  std::uniform_real_distribution<double> coeff(-2.0, 2.0);
  linear_form a{coeff(rng)};
  linear_form b{coeff(rng)};
  for (int i = 0; i < 8; ++i) {
    a.add_term(static_cast<source_id>(pick(rng)), coeff(rng));
    b.add_term(static_cast<source_id>(pick(rng)), coeff(rng));
  }
  const linear_form s = a + b;
  EXPECT_NEAR(s.variance(space),
              a.variance(space) + b.variance(space) +
                  2.0 * covariance(a, b, space),
              1e-9);
  const linear_form d = a - b;
  EXPECT_NEAR(d.variance(space),
              a.variance(space) + b.variance(space) -
                  2.0 * covariance(a, b, space),
              1e-9);
  EXPECT_NEAR(sigma_of_difference(a, b, space), d.stddev(space), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Random, LinearFormAlgebra, ::testing::Range(0, 25));

}  // namespace
}  // namespace vabi::stats
