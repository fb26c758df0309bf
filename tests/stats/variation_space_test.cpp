#include "stats/variation_space.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace vabi::stats {
namespace {

TEST(VariationSpace, StartsEmpty) {
  variation_space space;
  EXPECT_TRUE(space.empty());
  EXPECT_EQ(space.size(), 0u);
}

TEST(VariationSpace, IssuesDenseIds) {
  variation_space space;
  const auto a = space.add_source(source_kind::random_device, 1.0);
  const auto b = space.add_source(source_kind::spatial, 2.0);
  const auto c = space.add_source(source_kind::inter_die, 0.5);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(space.size(), 3u);
}

TEST(VariationSpace, StoresSigmaAndKind) {
  variation_space space;
  const auto id = space.add_source(source_kind::spatial, 2.5, "Y7");
  EXPECT_DOUBLE_EQ(space.sigma(id), 2.5);
  EXPECT_DOUBLE_EQ(space.variance(id), 6.25);
  EXPECT_EQ(space.kind(id), source_kind::spatial);
  EXPECT_EQ(space.name(id), "Y7");
}

TEST(VariationSpace, RejectsNegativeSigma) {
  variation_space space;
  EXPECT_THROW(space.add_source(source_kind::random_device, -1.0),
               std::invalid_argument);
}

TEST(VariationSpace, RejectsNanSigma) {
  // `sigma < 0` is false for NaN, so the contract sigma >= 0 needs its own
  // check; a rejected source must leave the space untouched.
  variation_space space;
  EXPECT_THROW(space.add_source(source_kind::random_device,
                                std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_TRUE(space.empty());
  EXPECT_TRUE(space.moderate_variances());
}

TEST(VariationSpace, AllowsZeroSigma) {
  variation_space space;
  const auto id = space.add_source(source_kind::parametric, 0.0);
  EXPECT_DOUBLE_EQ(space.variance(id), 0.0);
}

TEST(VariationSpace, CountsByKind) {
  variation_space space;
  space.add_source(source_kind::random_device, 1.0);
  space.add_source(source_kind::random_device, 1.0);
  space.add_source(source_kind::inter_die, 1.0);
  EXPECT_EQ(space.count(source_kind::random_device), 2u);
  EXPECT_EQ(space.count(source_kind::inter_die), 1u);
  EXPECT_EQ(space.count(source_kind::spatial), 0u);
}

TEST(VariationSpace, ToStringCoversAllKinds) {
  EXPECT_STREQ(to_string(source_kind::random_device), "random_device");
  EXPECT_STREQ(to_string(source_kind::spatial), "spatial");
  EXPECT_STREQ(to_string(source_kind::inter_die), "inter_die");
  EXPECT_STREQ(to_string(source_kind::parametric), "parametric");
}

}  // namespace
}  // namespace vabi::stats
