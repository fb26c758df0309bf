// Intra-die spatially correlated variation model (paper Section 3.2, Fig. 4).
//
// One independent unit-variance source Y_i is registered per die-grid region.
// A device at location p is influenced by the regions within the correlation
// range; the contribution weights follow an isotropic stationary Gaussian
// taper (Section 5.1: grid side 500 um, taper ~2 mm). Weights are normalized
// so that the total spatial standard deviation seen by the device equals the
// *local* spatial budget sigma(p):
//
//   spatial part of V  =  sigma(p) * sum_i w_hat_i * Y_i,  sum_i w_hat_i^2 = 1.
//
// Two devices at distance d then have spatial correlation equal to the
// overlap of their normalized weight vectors, which decays smoothly from 1 at
// d = 0 to 0 beyond the correlation range -- exactly the qualitative picture
// of the paper's Fig. 4 (B1/B2 share regions, B1/B5 share none).
//
// The local budget sigma(p) realizes the two experimental profiles of
// Section 5.1:
//   - homogeneous:    sigma(p) = sigma_budget everywhere;
//   - heterogeneous:  sigma(p) grows linearly from the south-west corner to
//                     the north-east corner, averaging sigma_budget.
#pragma once

#include <vector>

#include "layout/grid.hpp"
#include "stats/linear_form.hpp"
#include "stats/variation_space.hpp"

namespace vabi::layout {

/// Spatial-budget profile across the die.
enum class spatial_profile {
  homogeneous,    ///< uniform budget
  heterogeneous,  ///< linear SW -> NE ramp, same die-average budget
};

const char* to_string(spatial_profile profile);

struct spatial_model_config {
  double cell_size_um = 500.0;   ///< region side (paper Section 5.1)
  double range_um = 2000.0;      ///< distance at which weights taper off
  spatial_profile profile = spatial_profile::homogeneous;
};

class spatial_model {
 public:
  /// Registers one unit-sigma spatial source per region of `die` in `space`.
  /// `space` must outlive the model.
  spatial_model(bbox die, const spatial_model_config& config,
                stats::variation_space& space);

  const die_grid& grid() const { return grid_; }
  const spatial_model_config& config() const { return config_; }

  /// Source id of region `c`'s variable Y_c.
  stats::source_id source_of(cell_index c) const { return sources_[c]; }

  /// The normalized weight vector of location `p`: pairs (source id, w_hat)
  /// with sum of squares == 1. Never empty (the containing cell always
  /// contributes).
  std::vector<stats::lf_term> normalized_weights(const point& p) const;

  /// Relative budget multiplier g(p) of the profile; die-average is 1.
  double profile_factor(const point& p) const;

  /// Spatial correlation between two die locations: the inner product of
  /// their normalized weight vectors (in [0, 1] for this isotropic kernel).
  double location_correlation(const point& a, const point& b) const;

 private:
  die_grid grid_;
  spatial_model_config config_;
  std::vector<stats::source_id> sources_;  // per cell
  double gauss_scale_ = 0.0;               // kernel length scale
};

}  // namespace vabi::layout
