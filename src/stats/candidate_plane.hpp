// Structure-of-arrays gather of a candidate list's canonical forms.
//
// The tiled dominance engine (core/pruning.cpp) answers one-candidate-vs-a-
// whole-tile questions with the one-vs-many kernels (kernels.hpp). Those
// kernels want each form as a contiguous coefficient plane indexed by
// source id; this class packs the k forms of one per-node candidate list
// into a row-per-candidate matrix (row stride padded to a 64-byte boundary,
// so every row is vector-aligned).
//
// Bit-identity: a gathered row holds exactly 0.0 in absent slots, so every
// reduction over it (variance, sigma-of-difference against another row)
// interleaves exact +0.0 no-op adds into the same left-to-right chain the
// sparse pass over the form's terms produces.
//
// Lifetime: a candidate_plane is per-prune-call scratch. It copies
// coefficients out of the forms at gather time and holds no pointers into
// them, so sealed-slab adoption, term relocation, or list reallocation after
// the gather cannot invalidate it (and it must be re-gathered per call).
#pragma once

#include <cstddef>
#include <vector>

#include "stats/kernels.hpp"
#include "stats/linear_form.hpp"

namespace vabi::stats {

class candidate_plane {
 public:
  /// Rewinds to an empty matrix of rows over `extent` sources (the issuing
  /// variation_space's size, so rows line up with its sigma^2 table).
  /// Storage is retained across calls: steady state re-gathers allocate
  /// nothing once the high-water mark is reached.
  void reset(std::size_t extent);

  /// Scatters `f` into the next row (absent slots exactly 0.0) and records
  /// its mean. Every term of `f` must have id < extent. Returns the row
  /// index.
  std::size_t add_row(const linear_form& f);

  std::size_t rows() const { return rows_; }
  std::size_t extent() const { return extent_; }

  const double* row(std::size_t i) const { return coeffs_.data() + i * stride_; }
  double mean(std::size_t i) const { return means_[i]; }

 private:
  kernels::aligned_doubles coeffs_;
  std::vector<double> means_;
  std::size_t extent_ = 0;
  std::size_t stride_ = 0;  ///< extent rounded up to 8 doubles (64 bytes)
  std::size_t rows_ = 0;
};

}  // namespace vabi::stats
