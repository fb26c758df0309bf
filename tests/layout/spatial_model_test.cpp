#include "layout/spatial_model.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/linear_form.hpp"
#include "stats/monte_carlo.hpp"

namespace vabi::layout {
namespace {

spatial_model_config default_config(spatial_profile profile =
                                        spatial_profile::homogeneous) {
  spatial_model_config c;
  c.cell_size_um = 500.0;
  c.range_um = 2000.0;
  c.profile = profile;
  return c;
}

/// The spatial field at `p` for a unit budget: profile_factor(p) times the
/// normalized weights, as a zero-mean form over the Y sources.
stats::linear_form spatial_field(const spatial_model& m, const point& p) {
  return stats::linear_form{0.0, m.normalized_weights(p)} *
         m.profile_factor(p);
}

TEST(SpatialModel, RegistersOneSourcePerCell) {
  stats::variation_space space;
  spatial_model m{square_die(2000.0), default_config(), space};
  EXPECT_EQ(space.size(), m.grid().num_cells());
  EXPECT_EQ(space.count(stats::source_kind::spatial), m.grid().num_cells());
}

TEST(SpatialModel, WeightsAreNormalized) {
  stats::variation_space space;
  spatial_model m{square_die(6000.0), default_config(), space};
  for (const point p : {point{100.0, 100.0}, point{3000.0, 3000.0},
                        point{5900.0, 400.0}}) {
    const auto w = m.normalized_weights(p);
    ASSERT_FALSE(w.empty());
    double sum_sq = 0.0;
    for (const auto& t : w) sum_sq += t.coeff * t.coeff;
    EXPECT_NEAR(sum_sq, 1.0, 1e-12);
  }
}

TEST(SpatialModel, WeightsAscendBySourceId) {
  // process_model::characterize appends these terms as they come, so the
  // form it builds is sorted only if they ascend.
  stats::variation_space space;
  spatial_model m{square_die(6000.0), default_config(), space};
  for (const point p : {point{0.0, 0.0}, point{3100.0, 2900.0},
                        point{6000.0, 6000.0}, point{-800.0, 7000.0}}) {
    const auto w = m.normalized_weights(p);
    for (std::size_t i = 1; i < w.size(); ++i) {
      EXPECT_LT(w[i - 1].id, w[i].id);
    }
  }
}

TEST(SpatialModel, NearbyCellDominatesWeights) {
  stats::variation_space space;
  spatial_model m{square_die(6000.0), default_config(), space};
  const point p{3250.0, 3250.0};  // a cell center
  const auto w = m.normalized_weights(p);
  const auto own = m.source_of(m.grid().cell_of(p));
  double own_w = 0.0;
  double max_other = 0.0;
  for (const auto& t : w) {
    if (t.id == own) {
      own_w = t.coeff;
    } else {
      max_other = std::max(max_other, t.coeff);
    }
  }
  EXPECT_GT(own_w, max_other);
}

TEST(SpatialModel, CorrelationDecaysWithDistance) {
  stats::variation_space space;
  spatial_model m{square_die(10000.0), default_config(), space};
  const point a{5000.0, 5000.0};
  const double c0 = m.location_correlation(a, a);
  const double c1 = m.location_correlation(a, {5400.0, 5000.0});
  const double c2 = m.location_correlation(a, {6600.0, 5000.0});
  const double c3 = m.location_correlation(a, {9500.0, 5000.0});
  EXPECT_NEAR(c0, 1.0, 1e-12);
  EXPECT_GT(c1, c2);
  EXPECT_GT(c2, c3);
  // Beyond the taper distance (paper: ~2 mm) the correlation is negligible --
  // the Fig. 4 "B1 and B5 share no regions" picture.
  EXPECT_LT(c3, 0.05);
}

TEST(SpatialModel, HomogeneousProfileIsFlat) {
  stats::variation_space space;
  spatial_model m{square_die(4000.0), default_config(), space};
  EXPECT_DOUBLE_EQ(m.profile_factor({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(m.profile_factor({4000.0, 4000.0}), 1.0);
}

TEST(SpatialModel, HeterogeneousProfileRampsSwToNe) {
  stats::variation_space space;
  spatial_model m{square_die(4000.0),
                  default_config(spatial_profile::heterogeneous), space};
  const double sw = m.profile_factor({0.0, 0.0});
  const double mid = m.profile_factor({2000.0, 2000.0});
  const double ne = m.profile_factor({4000.0, 4000.0});
  EXPECT_DOUBLE_EQ(sw, 0.0);
  EXPECT_DOUBLE_EQ(mid, 1.0);
  EXPECT_DOUBLE_EQ(ne, 2.0);
  // Off-diagonal points interpolate.
  EXPECT_GT(m.profile_factor({4000.0, 0.0}), sw);
  EXPECT_LT(m.profile_factor({4000.0, 0.0}), ne);
}

TEST(SpatialModel, HeterogeneousSigmaGrowsAcrossDie) {
  stats::variation_space space;
  spatial_model m{square_die(4000.0),
                  default_config(spatial_profile::heterogeneous), space};
  const stats::linear_form sw = spatial_field(m, {500.0, 500.0});
  const stats::linear_form ne = spatial_field(m, {3500.0, 3500.0});
  EXPECT_LT(sw.stddev(space), ne.stddev(space));
}

TEST(SpatialModel, EmpiricalCorrelationMatchesModel) {
  // Monte-Carlo the spatial field at two locations and compare the sample
  // correlation with location_correlation's closed form.
  stats::variation_space space;
  spatial_model m{square_die(6000.0), default_config(), space};
  const point a{2000.0, 3000.0};
  const point b{2800.0, 3200.0};
  const stats::linear_form fa = spatial_field(m, a);
  const stats::linear_form fb = spatial_field(m, b);
  const double model_rho = m.location_correlation(a, b);
  EXPECT_NEAR(stats::correlation(fa, fb, space), model_rho, 1e-12);

  stats::monte_carlo_sampler sampler{space, 17};
  std::vector<double> sample;
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sampler.draw(sample);
    const double va = fa.evaluate(sample);
    const double vb = fb.evaluate(sample);
    sab += va * vb;
    saa += va * va;
    sbb += vb * vb;
  }
  EXPECT_NEAR(sab / std::sqrt(saa * sbb), model_rho, 0.03);
}

TEST(SpatialModel, RejectsBadRange) {
  stats::variation_space space;
  spatial_model_config c = default_config();
  c.range_um = 0.0;
  EXPECT_THROW(spatial_model(square_die(1000.0), c, space),
               std::invalid_argument);
}

TEST(SpatialModel, ProfileToString) {
  EXPECT_STREQ(to_string(spatial_profile::homogeneous), "homogeneous");
  EXPECT_STREQ(to_string(spatial_profile::heterogeneous), "heterogeneous");
}

}  // namespace
}  // namespace vabi::layout
