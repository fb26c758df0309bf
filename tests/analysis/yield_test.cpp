#include "analysis/yield.hpp"

#include <gtest/gtest.h>

#include "stats/normal.hpp"

namespace vabi::analysis {
namespace {

class YieldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    x_ = space_.add_source(stats::source_kind::random_device, 1.0);
  }
  stats::variation_space space_;
  stats::source_id x_ = 0;
};

TEST_F(YieldTest, YieldRatIsLowerQuantile) {
  // RAT ~ N(-1000, 100^2): 95%-yield RAT = -1000 - 1.6449*100.
  stats::linear_form rat{-1000.0, {{x_, 100.0}}};
  EXPECT_NEAR(yield_rat(rat, space_, 0.95), -1000.0 - 164.49, 0.1);
  EXPECT_NEAR(yield_rat(rat, space_, 0.5), -1000.0, 1e-9);
  EXPECT_THROW(yield_rat(rat, space_, 0.0), std::domain_error);
  EXPECT_THROW(yield_rat(rat, space_, 1.0), std::domain_error);
}

TEST_F(YieldTest, DeterministicRatYieldRatIsMean) {
  stats::linear_form rat{-500.0};
  EXPECT_DOUBLE_EQ(yield_rat(rat, space_, 0.95), -500.0);
}

TEST_F(YieldTest, TimingYieldMonotoneInTarget) {
  stats::linear_form rat{-1000.0, {{x_, 100.0}}};
  const double easy = timing_yield(rat, space_, -1300.0);
  const double hard = timing_yield(rat, space_, -900.0);
  EXPECT_GT(easy, 0.99);
  EXPECT_LT(hard, 0.20);
  EXPECT_NEAR(timing_yield(rat, space_, -1000.0), 0.5, 1e-12);
}

TEST_F(YieldTest, DegenerateTimingYieldIsStep) {
  stats::linear_form rat{-500.0};
  EXPECT_DOUBLE_EQ(timing_yield(rat, space_, -600.0), 1.0);
  EXPECT_DOUBLE_EQ(timing_yield(rat, space_, -400.0), 0.0);
}

TEST_F(YieldTest, EmpiricalVersionsAgreeWithModelOnNormalSamples) {
  stats::linear_form rat{-1000.0, {{x_, 100.0}}};
  std::vector<double> samples;
  // Deterministic normal grid via quantiles (avoids MC noise).
  for (int i = 1; i < 2000; ++i) {
    samples.push_back(-1000.0 +
                      100.0 * stats::normal_quantile(i / 2000.0));
  }
  stats::empirical_distribution dist{std::move(samples)};
  EXPECT_NEAR(timing_yield_empirical(dist, -1100.0),
              timing_yield(rat, space_, -1100.0), 0.01);
}

TEST(TargetRat, RelaxesNegativeRatByFraction) {
  EXPECT_DOUBLE_EQ(target_rat_from_mean(-2000.0, 0.10), -2200.0);
  EXPECT_DOUBLE_EQ(target_rat_from_mean(-2000.0, 0.0), -2000.0);
  // Positive RATs are tightened toward zero consistently (subtract fraction
  // of magnitude).
  EXPECT_DOUBLE_EQ(target_rat_from_mean(1000.0, 0.10), 900.0);
}

}  // namespace
}  // namespace vabi::analysis
