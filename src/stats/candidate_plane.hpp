// Structure-of-arrays gather of a candidate list's canonical forms.
//
// The tiled dominance engine (core/pruning.cpp) answers one-candidate-vs-a-
// whole-tile questions with the one-vs-many kernels (kernels.hpp). Those
// kernels want each form as a contiguous coefficient row; this class packs
// the k forms of one per-node candidate list into a row-per-candidate matrix
// (row stride padded to a 64-byte boundary, so every row is vector-aligned).
//
// Columns. Under WID every buffer brings a private X source, so the
// variation space grows with the net while each form stays sparse in it. A
// row therefore spans the plane's *columns*, not the whole space:
//
//   - carried columns: the source ids some gathered form carries, in
//     ascending id order, with sigma^2 gathered over the same columns. The
//     column set is built in O(terms + space size): a byte per source is
//     marked by plain stores, then one ascending scan numbers the marked
//     ids and clears the marks. No sort, no bitmap.
//   - identity columns: every source id, column i being source i, with the
//     space's own sigma^2 table -- the direct scatter. gather() takes it
//     when the forms' terms cover the space (2 * terms >= k * space size):
//     their union would drop few columns, and building it costs a pass over
//     the space that the direct scatter skips.
//
// Bit-identity: a gathered row holds exactly 0.0 in absent slots, and a
// column only drops out when every row is absent there, so every reduction
// over the rows runs the sparse pass's left-to-right chain in id order with
// exact +0.0 no-op adds interleaved -- the same bits over either column map.
//
// Lifetime: a candidate_plane is per-prune-call scratch. It copies
// coefficients out of the forms at gather time and holds no pointers into
// them, so sealed-slab adoption, term relocation, or list reallocation after
// the gather cannot invalidate it (and it must be re-gathered per call). An
// identity-column plane reads the space's sigma^2 table in place: the space
// must not grow while the plane is in use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stats/kernels.hpp"
#include "stats/linear_form.hpp"
#include "stats/variation_space.hpp"

namespace vabi::stats {

class candidate_plane {
 public:
  /// Gathers `*forms[i]` into row i over the carried or the identity
  /// columns (see the file comment). Storage is retained across calls:
  /// steady state re-gathers allocate nothing once the high-water mark is
  /// reached.
  void gather(const variation_space& space,
              std::span<const linear_form* const> forms);

  /// Rewinds to an empty matrix over the identity columns of `space`, for
  /// rows added one at a time by add_row.
  void reset(const variation_space& space);

  /// Scatters `f` into the next row (absent slots exactly 0.0). Every term
  /// of `f` must lie on a column. Returns the row index.
  std::size_t add_row(const linear_form& f);

  std::size_t rows() const { return rows_; }
  /// The row length `n` the kernels take.
  std::size_t columns() const { return columns_; }

  const double* row(std::size_t i) const { return coeffs_.data() + i * stride_; }
  /// sigma^2 of each column, aligned with the rows.
  const double* sigma2() const { return sigma2_; }

 private:
  /// Rewinds to an empty matrix over the columns `forms` carry.
  void reset_carried(const variation_space& space,
                     std::span<const linear_form* const> forms);

  kernels::aligned_doubles coeffs_;
  kernels::aligned_doubles gathered_sigma2_;  ///< carried columns only
  std::vector<std::uint8_t> marks_;     ///< per source id; all 0 between calls
  std::vector<std::uint32_t> column_of_;  ///< source id -> column (carried)
  const double* sigma2_ = nullptr;
  bool identity_ = true;
  std::size_t columns_ = 0;
  std::size_t stride_ = 0;  ///< columns rounded up to 8 doubles (64 bytes)
  std::size_t rows_ = 0;
};

}  // namespace vabi::stats
