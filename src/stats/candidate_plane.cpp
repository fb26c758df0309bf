#include "stats/candidate_plane.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace vabi::stats {

namespace {

std::size_t padded(std::size_t columns) {
  return (columns + 7) & ~std::size_t{7};
}

}  // namespace

void candidate_plane::gather(const variation_space& space,
                             std::span<const linear_form* const> forms) {
  std::size_t terms = 0;
  for (const linear_form* f : forms) terms += f->num_terms();
  if (2 * terms >= forms.size() * space.size()) {
    reset(space);
  } else {
    reset_carried(space, forms);
  }
  for (const linear_form* f : forms) add_row(*f);
}

void candidate_plane::reset(const variation_space& space) {
  identity_ = true;
  columns_ = space.size();
  stride_ = padded(columns_);
  sigma2_ = space.sigma2_data();
  rows_ = 0;
  coeffs_.clear();
}

void candidate_plane::reset_carried(const variation_space& space,
                                    std::span<const linear_form* const> forms) {
  const std::size_t extent = space.size();
  // Whole words of marks, so the scan below can read eight at a time; the
  // bytes past `extent` are never marked.
  if (marks_.size() < extent) {
    marks_.resize(padded(extent), 0);
    column_of_.resize(padded(extent));
  }
  std::uint8_t* marks = marks_.data();
  for (const linear_form* f : forms) {
    for (const auto& t : f->terms()) marks[t.id] = 1;
  }
  const double* s2 = space.sigma2_data();
  gathered_sigma2_.clear();
  double* g = gathered_sigma2_.grow(extent);
  std::size_t n = 0;
  // Marks are sparse: skip unmarked runs a word at a time.
  for (std::size_t base = 0; base < extent; base += 8) {
    std::uint64_t word;
    std::memcpy(&word, marks + base, sizeof word);
    if (word == 0) continue;
    for (std::size_t id = base; id < base + 8; ++id) {
      if (marks[id] == 0) continue;
      marks[id] = 0;
      column_of_[id] = static_cast<std::uint32_t>(n);
      g[n++] = s2[id];
    }
  }
  identity_ = false;
  columns_ = n;
  stride_ = padded(n);
  sigma2_ = g;
  rows_ = 0;
  coeffs_.clear();
}

std::size_t candidate_plane::add_row(const linear_form& f) {
  double* row = coeffs_.grow(stride_);
  std::fill_n(row, stride_, 0.0);
  if (identity_) {
    for (const auto& t : f.terms()) {
      assert(t.id < columns_);
      row[t.id] = t.coeff;
    }
  } else {
    for (const auto& t : f.terms()) {
      assert(t.id < column_of_.size() && column_of_[t.id] < columns_);
      row[column_of_[t.id]] = t.coeff;
    }
  }
  return rows_++;
}

}  // namespace vabi::stats
