#include "layout/process_model.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stats/term_pool.hpp"

namespace vabi::layout {
namespace {

process_model_config make_config(variation_mode mode) {
  process_model_config c;
  c.mode = mode;
  return c;
}

/// Eqs. (19)-(24) built term by term with linear_form::add_term: the private
/// X first, then the spatial Y terms from normalized_weights, then G. This
/// registers the same fresh X in `m` as characterize does.
device_variation add_term_characterize(process_model& m, const point& loc,
                                       double cap0, double delay0) {
  const variation_budgets& b = m.config().budgets;
  const variation_mode& mode = m.mode();
  device_variation dv;
  dv.cap = stats::linear_form{cap0};
  dv.delay = stats::linear_form{delay0};
  if (mode.random_device && b.random_device.enabled()) {
    dv.random_source =
        m.space().add_source(stats::source_kind::random_device, 1.0);
    dv.cap.add_term(*dv.random_source, b.random_device.cap * cap0);
    dv.delay.add_term(*dv.random_source, b.random_device.delay * delay0);
  }
  if (mode.spatial && b.spatial.enabled()) {
    const double g = m.spatial().profile_factor(loc);
    const std::pair<stats::linear_form*, double> parts[] = {
        {&dv.cap, b.spatial.cap * cap0}, {&dv.delay, b.spatial.delay * delay0}};
    for (const auto& [form, sigma_budget] : parts) {
      const double sigma_local = sigma_budget * g;
      if (sigma_local == 0.0) continue;
      for (const auto& w : m.spatial().normalized_weights(loc)) {
        form->add_term(w.id, sigma_local * w.coeff);
      }
    }
  }
  if (mode.inter_die && b.inter_die.enabled()) {
    dv.cap.add_term(m.inter_die_source(), b.inter_die.cap * cap0);
    dv.delay.add_term(m.inter_die_source(), b.inter_die.delay * delay0);
  }
  return dv;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const stats::linear_form& got,
                      const stats::linear_form& want) {
  EXPECT_EQ(bits(got.nominal()), bits(want.nominal()));
  ASSERT_EQ(got.num_terms(), want.num_terms());
  const auto g = got.terms();
  const auto w = want.terms();
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g[i].id, w[i].id) << "term " << i;
    EXPECT_EQ(bits(g[i].coeff), bits(w[i].coeff)) << "term " << i;
  }
}

struct device_nominals {
  double cap0;
  double delay0;
};

// The three sizes of timing::standard_library(): C_b [pF], T_b [ps].
constexpr device_nominals k_types[] = {{0.020, 40.0}, {0.040, 36.0},
                                       {0.080, 33.0}};

/// Characterizes every type at each location of `path` on two fresh models
/// of `config` -- one through characterize, one through the add_term
/// replay -- and compares every form, source id and random source bitwise.
/// Repeated locations exercise the location memo; each call must still
/// register a fresh X.
void expect_bit_identical(const process_model_config& config,
                          const std::vector<point>& path) {
  const bbox die = square_die(4000.0);
  process_model got_model{die, config};
  process_model want_model{die, config};
  std::vector<stats::source_id> xs;
  for (const point& loc : path) {
    for (const auto& t : k_types) {
      SCOPED_TRACE(::testing::Message()
                   << "loc (" << loc.x << ", " << loc.y << ") cap0 " << t.cap0);
      const device_variation got =
          got_model.characterize(loc, t.cap0, t.delay0);
      const device_variation want =
          add_term_characterize(want_model, loc, t.cap0, t.delay0);
      expect_same_bits(got.cap, want.cap);
      expect_same_bits(got.delay, want.delay);
      EXPECT_TRUE(got.cap.owns_terms());
      EXPECT_TRUE(got.delay.owns_terms());
      ASSERT_EQ(got.random_source, want.random_source);
      EXPECT_EQ(got_model.space().size(), want_model.space().size());
      if (got.random_source.has_value()) {
        EXPECT_EQ(*got.random_source, got_model.space().size() - 1);
        xs.push_back(*got.random_source);
      }
    }
  }
  for (std::size_t i = 1; i < xs.size(); ++i) EXPECT_LT(xs[i - 1], xs[i]);
}

// Memo hits and misses: A, A, A, B, A -- plus the SW corner (profile factor
// 0 under the heterogeneous profile), a point outside the die, and one so
// far outside that every weight underflows and normalizes to NaN (the
// heterogeneous profile clamps it to the SW corner, where no Y term may
// appear).
const std::vector<point> k_path = {
    {1000.0, 1500.0}, {1000.0, 1500.0}, {1000.0, 1500.0}, {2600.0, 900.0},
    {1000.0, 1500.0}, {0.0, 0.0},       {-1200.0, 5300.0}, {0.0, 0.0},
    {-1.0e6, -1.0e6}};

TEST(VariationMode, Names) {
  EXPECT_STREQ(to_string(nom_mode()), "NOM");
  EXPECT_STREQ(to_string(d2d_mode()), "D2D");
  EXPECT_STREQ(to_string(wid_mode()), "WID");
  EXPECT_STREQ(to_string(variation_mode{true, false, false}), "custom");
}

TEST(ProcessModel, NomIsDeterministic) {
  process_model m{square_die(4000.0), make_config(nom_mode())};
  EXPECT_TRUE(m.is_deterministic());
  const auto dv = m.characterize({1000.0, 1000.0}, 0.02, 30.0);
  EXPECT_TRUE(dv.cap.is_deterministic());
  EXPECT_TRUE(dv.delay.is_deterministic());
  EXPECT_FALSE(dv.random_source.has_value());
  EXPECT_DOUBLE_EQ(dv.cap.mean(), 0.02);
  EXPECT_DOUBLE_EQ(dv.delay.mean(), 30.0);
}

TEST(ProcessModel, D2dHasRandomAndInterDieOnly) {
  process_model m{square_die(4000.0), make_config(d2d_mode())};
  const auto dv = m.characterize({1000.0, 1000.0}, 0.02, 30.0);
  ASSERT_TRUE(dv.random_source.has_value());
  // 5% random + 5% inter-die, no spatial: sigma = nominal*sqrt(2)*0.05.
  EXPECT_NEAR(dv.delay.stddev(m.space()), 30.0 * 0.05 * std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(dv.cap.stddev(m.space()), 0.02 * 0.05 * std::sqrt(2.0), 1e-12);
}

TEST(ProcessModel, WidAddsSpatialBudget) {
  process_model m{square_die(4000.0), make_config(wid_mode())};
  const auto dv = m.characterize({2000.0, 2000.0}, 0.02, 30.0);
  // Homogeneous spatial adds another 5%: sigma = nominal*0.05*sqrt(3).
  EXPECT_NEAR(dv.delay.stddev(m.space()), 30.0 * 0.05 * std::sqrt(3.0), 1e-9);
}

TEST(ProcessModel, CapAndDelayOfOneDeviceAreFullyCorrelated) {
  process_model m{square_die(4000.0), make_config(wid_mode())};
  const auto dv = m.characterize({1500.0, 2500.0}, 0.02, 30.0);
  // Same sources with proportional coefficients -> correlation 1.
  EXPECT_NEAR(stats::correlation(dv.cap, dv.delay, m.space()), 1.0, 1e-12);
}

TEST(ProcessModel, DistinctDevicesGetDistinctRandomSources) {
  process_model m{square_die(4000.0), make_config(d2d_mode())};
  const auto a = m.characterize({100.0, 100.0}, 0.02, 30.0);
  const auto b = m.characterize({100.0, 100.0}, 0.02, 30.0);
  ASSERT_TRUE(a.random_source.has_value());
  ASSERT_TRUE(b.random_source.has_value());
  EXPECT_NE(*a.random_source, *b.random_source);
}

TEST(ProcessModel, InterDieCorrelatesAllDevices) {
  process_model_config c = make_config({false, true, false});
  process_model m{square_die(4000.0), c};
  const auto a = m.characterize({100.0, 100.0}, 0.02, 30.0);
  const auto b = m.characterize({3900.0, 3900.0}, 0.02, 30.0);
  // Only the shared global G: delays perfectly correlated.
  EXPECT_NEAR(stats::correlation(a.delay, b.delay, m.space()), 1.0, 1e-12);
}

TEST(ProcessModel, SpatialCorrelationDecaysWithDistance) {
  process_model_config c = make_config({false, false, true});
  process_model m{square_die(10000.0), c};
  const auto a = m.characterize({5000.0, 5000.0}, 0.02, 30.0);
  const auto near = m.characterize({5300.0, 5000.0}, 0.02, 30.0);
  const auto far = m.characterize({9800.0, 5000.0}, 0.02, 30.0);
  const double rho_near = stats::correlation(a.delay, near.delay, m.space());
  const double rho_far = stats::correlation(a.delay, far.delay, m.space());
  EXPECT_GT(rho_near, 0.5);
  EXPECT_LT(rho_far, 0.05);
}

TEST(ProcessModel, HeterogeneousProfileAffectsSigma) {
  process_model_config c = make_config(wid_mode());
  c.spatial.profile = spatial_profile::heterogeneous;
  process_model m{square_die(4000.0), c};
  const auto sw = m.characterize({200.0, 200.0}, 0.02, 30.0);
  const auto ne = m.characterize({3800.0, 3800.0}, 0.02, 30.0);
  EXPECT_LT(sw.delay.stddev(m.space()), ne.delay.stddev(m.space()));
}

TEST(ProcessModel, SpatialOnlyGivesBudgetSigma) {
  process_model_config c = make_config({false, false, true});
  c.budgets.spatial = {0.05, 0.05};
  process_model m{square_die(4000.0), c};
  const auto dv = m.characterize({2000.0, 2000.0}, 10.0, 30.0);
  EXPECT_NEAR(dv.cap.stddev(m.space()), 0.5, 1e-12);
  EXPECT_NEAR(dv.delay.stddev(m.space()), 1.5, 1e-12);
  EXPECT_DOUBLE_EQ(dv.cap.mean(), 10.0);
  EXPECT_FALSE(dv.random_source.has_value());
}

TEST(ProcessModel, CharacterizeMatchesAddTermReplayBitwise) {
  for (const variation_mode mode : {nom_mode(), d2d_mode(), wid_mode(),
                                    variation_mode{true, false, true}}) {
    for (const spatial_profile profile :
         {spatial_profile::homogeneous, spatial_profile::heterogeneous}) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(mode) << " " << to_string(profile));
      process_model_config c = make_config(mode);
      c.spatial.profile = profile;
      c.budgets.random_device = {0.05, 0.105};
      expect_bit_identical(c, k_path);
    }
  }
}

TEST(ProcessModel, CharacterizeMatchesAddTermReplayWithZeroCapBudget) {
  // cap = 0 with delay > 0 in every class: the class stays enabled, the cap
  // forms get no term from it, and X is still registered.
  process_model_config c = make_config(wid_mode());
  c.spatial.profile = spatial_profile::heterogeneous;
  c.budgets = {{0.0, 0.1}, {0.0, 0.05}, {0.0, 0.05}};
  expect_bit_identical(c, k_path);
  process_model m{square_die(4000.0), c};
  const auto dv = m.characterize({1000.0, 1500.0}, 0.02, 30.0);
  EXPECT_TRUE(dv.cap.is_deterministic());
  EXPECT_TRUE(dv.random_source.has_value());
  EXPECT_GT(dv.delay.num_terms(), 2u);
}

TEST(ProcessModel, SouthWestCornerHasNoSpatialTerms) {
  process_model_config c = make_config(wid_mode());
  c.spatial.profile = spatial_profile::heterogeneous;
  process_model m{square_die(4000.0), c};
  ASSERT_EQ(m.spatial().profile_factor({0.0, 0.0}), 0.0);
  // Characterize elsewhere first so the corner is a memo miss after a
  // location that does carry Y terms.
  EXPECT_GT(m.characterize({2000.0, 2000.0}, 0.02, 30.0).delay.num_terms(),
            2u);
  const auto dv = m.characterize({0.0, 0.0}, 0.02, 30.0);
  for (const auto* f : {&dv.cap, &dv.delay}) {
    ASSERT_EQ(f->num_terms(), 2u);  // G and X only
    EXPECT_EQ(f->terms()[0].id, m.inter_die_source());
    EXPECT_EQ(f->terms()[1].id, *dv.random_source);
  }
}

TEST(ProcessModel, OneHeapAllocationPerWideForm) {
  process_model m{square_die(4000.0), make_config(wid_mode())};
  const std::size_t before = stats::term_heap_allocations();
  const auto dv = m.characterize({2000.0, 2000.0}, 0.02, 30.0);
  ASSERT_GT(dv.cap.num_terms(), stats::linear_form::inline_capacity);
  ASSERT_GT(dv.delay.num_terms(), stats::linear_form::inline_capacity);
  EXPECT_EQ(stats::term_heap_allocations() - before, 2u);
}

TEST(ProcessModel, ZeroBudgetAddsNoTerms) {
  process_model_config c = make_config(wid_mode());
  c.budgets = {{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}};
  process_model m{square_die(4000.0), c};
  const auto dv = m.characterize({1000.0, 1000.0}, 0.02, 30.0);
  EXPECT_TRUE(dv.cap.is_deterministic());
  EXPECT_TRUE(dv.delay.is_deterministic());
}

}  // namespace
}  // namespace vabi::layout
