#include "analysis/yield.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/normal.hpp"

namespace vabi::analysis {

double yield_rat(const stats::linear_form& rat,
                 const stats::variation_space& space, double yield) {
  if (!(yield > 0.0 && yield < 1.0)) {
    throw std::domain_error("yield_rat: yield must be in (0, 1)");
  }
  return stats::percentile(rat, space, 1.0 - yield);
}

double timing_yield(const stats::linear_form& rat,
                    const stats::variation_space& space, double target_ps) {
  return stats::normal_exceedance(rat.mean(), rat.stddev(space), target_ps);
}

double timing_yield_empirical(const stats::empirical_distribution& rat_samples,
                              double target_ps) {
  return 1.0 - rat_samples.cdf(target_ps);
}

double target_rat_from_mean(double wid_mean_rat_ps, double fraction) {
  // RATs in these experiments are negative (sink RATs are 0, so the root RAT
  // is minus the critical delay); "10% reduction" relaxes the requirement by
  // 10% of the magnitude.
  return wid_mean_rat_ps - fraction * std::abs(wid_mean_rat_ps);
}

}  // namespace vabi::analysis
