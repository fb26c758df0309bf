#include "stats/candidate_plane.hpp"

#include <cassert>
#include <cstring>

namespace vabi::stats {

void candidate_plane::reset(std::size_t extent) {
  extent_ = extent;
  stride_ = (extent + 7) & ~std::size_t{7};
  rows_ = 0;
  coeffs_.clear();
  means_.clear();
}

std::size_t candidate_plane::add_row(const linear_form& f) {
  double* row = coeffs_.grow(stride_);
  std::memset(row, 0, stride_ * sizeof(double));
  for (const auto& t : f.terms()) {
    assert(t.id < extent_);
    row[t.id] = t.coeff;
  }
  means_.push_back(f.mean());
  return rows_++;
}

}  // namespace vabi::stats
