#include "layout/spatial_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace vabi::layout {

const char* to_string(spatial_profile profile) {
  switch (profile) {
    case spatial_profile::homogeneous:
      return "homogeneous";
    case spatial_profile::heterogeneous:
      return "heterogeneous";
  }
  return "unknown";
}

spatial_model::spatial_model(bbox die, const spatial_model_config& config,
                             stats::variation_space& space)
    : grid_(die, config.cell_size_um), config_(config) {
  if (config.range_um <= 0.0) {
    throw std::invalid_argument("spatial_model: range must be > 0");
  }
  // Gaussian kernel length scale: weight falls to exp(-2) ~ 0.135 at the
  // configured taper range, matching "tapers off at a distance about 2 mm".
  gauss_scale_ = config.range_um / 2.0;
  sources_.reserve(grid_.num_cells());
  for (cell_index c = 0; c < grid_.num_cells(); ++c) {
    std::string label = "Y";
    label += std::to_string(c);
    sources_.push_back(
        space.add_source(stats::source_kind::spatial, 1.0, label));
  }
}

std::vector<stats::lf_term> spatial_model::normalized_weights(
    const point& p) const {
  std::vector<cell_index> cells = grid_.cells_within(p, config_.range_um);
  if (cells.empty()) cells.push_back(grid_.cell_of(p));
  std::vector<stats::lf_term> terms;
  terms.reserve(cells.size());
  double sum_sq = 0.0;
  for (cell_index c : cells) {
    const double d = euclidean_distance(grid_.cell_center(c), p);
    const double w = std::exp(-0.5 * (d / gauss_scale_) * (d / gauss_scale_));
    terms.push_back({sources_[c], w});
    sum_sq += w * w;
  }
  const double inv_norm = 1.0 / std::sqrt(sum_sq);
  for (auto& t : terms) t.coeff *= inv_norm;
  return terms;
}

double spatial_model::profile_factor(const point& p) const {
  if (config_.profile == spatial_profile::homogeneous) return 1.0;
  // Linear ramp along the SW->NE diagonal, zero at SW, 2 at NE; the
  // die-average multiplier is 1 so the total budget matches the homogeneous
  // case on average (paper Section 5.1).
  const bbox& die = grid_.die();
  const point q = die.clamp(p);
  const double u =
      ((q.x - die.lo.x) + (q.y - die.lo.y)) / (die.width() + die.height());
  return 2.0 * u;
}

double spatial_model::location_correlation(const point& a,
                                           const point& b) const {
  const auto wa = normalized_weights(a);
  const auto wb = normalized_weights(b);
  double dot = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  // Both vectors are sorted by cell scan order from cells_within; sort-merge
  // on source id (ids are issued in cell order, hence ascending).
  while (i < wa.size() && j < wb.size()) {
    if (wa[i].id < wb[j].id) {
      ++i;
    } else if (wa[i].id > wb[j].id) {
      ++j;
    } else {
      dot += wa[i].coeff * wb[j].coeff;
      ++i;
      ++j;
    }
  }
  return dot;
}

}  // namespace vabi::layout
