#include "stats/monte_carlo.hpp"

#include <gtest/gtest.h>

#include "stats/empirical.hpp"
#include "stats/linear_form.hpp"

namespace vabi::stats {
namespace {

TEST(MonteCarloSampler, SampleVectorSizedToSpace) {
  variation_space space;
  space.add_source(source_kind::random_device, 1.0);
  space.add_source(source_kind::spatial, 2.0);
  monte_carlo_sampler sampler{space, 1};
  std::vector<double> s;
  sampler.draw(s);
  EXPECT_EQ(s.size(), 2u);
}

TEST(MonteCarloSampler, ZeroSigmaSourceAlwaysZero) {
  variation_space space;
  space.add_source(source_kind::random_device, 0.0);
  monte_carlo_sampler sampler{space, 7};
  std::vector<double> s;
  for (int i = 0; i < 50; ++i) {
    sampler.draw(s);
    EXPECT_DOUBLE_EQ(s[0], 0.0);
  }
}

TEST(MonteCarloSampler, DeterministicInSeed) {
  variation_space space;
  space.add_source(source_kind::random_device, 1.0);
  monte_carlo_sampler a{space, 42};
  monte_carlo_sampler b{space, 42};
  std::vector<double> sa, sb;
  for (int i = 0; i < 10; ++i) {
    a.draw(sa);
    b.draw(sb);
    EXPECT_DOUBLE_EQ(sa[0], sb[0]);
  }
  monte_carlo_sampler c{space, 43};
  std::vector<double> sc;
  c.draw(sc);
  a.draw(sa);
  EXPECT_NE(sa[0], sc[0]);
}

TEST(MonteCarloSampler, EmpiricalMomentsMatchSigma) {
  variation_space space;
  space.add_source(source_kind::random_device, 3.0);
  monte_carlo_sampler sampler{space, 5};
  std::vector<double> values;
  std::vector<double> s;
  for (int i = 0; i < 20000; ++i) {
    sampler.draw(s);
    values.push_back(s[0]);
  }
  const auto m = compute_moments(values);
  EXPECT_NEAR(m.mean, 0.0, 0.08);
  EXPECT_NEAR(m.stddev, 3.0, 0.08);
}

TEST(MonteCarloSampler, LinearFormSampleMomentsMatchModel) {
  variation_space space;
  const auto x = space.add_source(source_kind::random_device, 1.0);
  const auto y = space.add_source(source_kind::spatial, 2.0);
  linear_form f{5.0, {{x, 2.0}, {y, -1.0}}};
  monte_carlo_sampler sampler{space, 11};
  std::vector<double> values;
  std::vector<double> s;
  for (int i = 0; i < 20000; ++i) {
    sampler.draw(s);
    values.push_back(f.evaluate(s));
  }
  const auto m = compute_moments(values);
  EXPECT_NEAR(m.mean, f.mean(), 0.08);
  EXPECT_NEAR(m.stddev, f.stddev(space), 0.08);
}

}  // namespace
}  // namespace vabi::stats
