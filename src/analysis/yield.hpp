// Timing-yield figures of merit (paper Section 5.3).
//
// Two metrics compare the NOM / D2D / WID designs:
//   - the y-yield RAT: the (1-y) quantile of the root RAT distribution; the
//     paper reports the 95% timing-yield RAT, i.e. the 5th percentile, "such
//     that the final RAT has 95% chances of being larger";
//   - the timing yield at a target: P(RAT >= target). The paper sets the
//     target to the WID mean RAT degraded by 10% and reports the resulting
//     yield of every design.
#pragma once

#include <span>

#include "stats/empirical.hpp"
#include "stats/linear_form.hpp"
#include "stats/variation_space.hpp"

namespace vabi::analysis {

/// The y-yield RAT of a (normal) canonical-form RAT: its (1 - y) quantile.
double yield_rat(const stats::linear_form& rat,
                 const stats::variation_space& space, double yield = 0.95);

/// P(RAT >= target) under the canonical-form model.
double timing_yield(const stats::linear_form& rat,
                    const stats::variation_space& space, double target_ps);

/// Empirical counterpart of timing_yield from Monte-Carlo samples of the RAT.
double timing_yield_empirical(const stats::empirical_distribution& rat_samples,
                              double target_ps);

/// The paper's target-RAT convention: the WID design's mean RAT relaxed by
/// `fraction` of its magnitude (10% in Section 5.3).
double target_rat_from_mean(double wid_mean_rat_ps, double fraction = 0.10);

}  // namespace vabi::analysis
