// Monte-Carlo sampling over a variation_space.
//
// Used to (a) validate the canonical-form model against "ground truth"
// simulation (paper Fig. 6), and (b) characterize nonlinear device models
// (paper Fig. 3). A sample assigns one drawn value to every source id; linear
// forms are then evaluated against the sample vector.
#pragma once

#include <span>
#include <vector>

#include "stats/rng.hpp"
#include "stats/variation_space.hpp"

namespace vabi::stats {

/// Draws independent N(0, sigma_i^2) samples for every source of a space.
class monte_carlo_sampler {
 public:
  monte_carlo_sampler(const variation_space& space, std::uint64_t seed);

  /// Draws one sample of the whole space; `out` is resized to space.size()
  /// and out[id] holds the value of source id.
  void draw(std::vector<double>& out);

  const variation_space& space() const { return space_; }

 private:
  const variation_space& space_;
  rng_engine rng_;
  std::normal_distribution<double> unit_normal_{0.0, 1.0};
};

}  // namespace vabi::stats
