// Li-Shi O(bn^2) candidate organization for multi-type buffer libraries
// (Li & Shi, "An O(bn^2) Time Algorithm for Optimal Buffer Insertion with b
// Buffer Types", arXiv:0710.4691; PAPERS.md entry 1).
//
// Van Ginneken-style DP pays O(b * |list|) at every buffer position: each of
// the b library types scans the whole candidate list for the candidate that
// maximizes the post-buffer RAT  q_k - T_b - R_b * L_k.  With per-position
// lists of size Theta(b * n) that is the O(b^2 n^2) blow-up which caps
// realistic libraries at a handful of repeaters.
//
// Li-Shi remove the b^2 factor by organizing candidates per buffer type and
// probing only the per-type best. This module implements that organization
// for the total-order regimes of this repo (deterministic rule; 2P mean
// rule, whose P-order equals mean order by Lemma 4 of the source paper):
//
//   * the candidate list is kept sorted by (load asc, rat asc) -- exactly
//     the post-prune invariant of prune_deterministic / prune_two_param, so
//     the per-type sorted lists are interleaved views of one totally
//     ordered list rather than separate containers;
//   * buffer types are pre-sorted once per run by driving resistance
//     descending (the per-type frontier order);
//   * the per-type best candidates are found together by monotone
//     divide-and-conquer over that type order.
//
// The divide-and-conquer rests on a decreasing-differences argument: for
// loads L_0 < L_1 < ... and resistances R_i >= R_j, the *leftmost* argmax of
// q_k - T_b - R_b * L_k is non-decreasing as R decreases (exchange argument;
// equal-R types differ by the constant T_b only and share the argmax). Each
// row is still evaluated with the bitwise-identical scan expression and the
// seed engines' strictly-greater / leftmost tie rule, so the selected
// candidate -- and therefore the emitted buffered candidate -- matches the
// O(b * |list|) reference scan exactly. (The monotonicity proof is in real
// arithmetic; an adversarial sub-ulp rounding tie could in principle select
// a same-valued different candidate, which the differential suite in
// tests/core/li_shi_test.cpp watches across engines, library sizes and
// thread counts.)
//
// Cost per position: O(|list| + b log b) instead of O(b * |list|), which is
// the paper's b-factor removal -- O(bn^2) overall for both the deterministic
// engine and the 2P statistical engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "timing/buffer_library.hpp"

namespace vabi::stats::kernels {
struct kernel_table;
}

namespace vabi::core {

/// Whether an engine uses the Li-Shi per-type frontier.
enum class li_shi_mode : std::uint8_t {
  automatic,  ///< on when the library has more than 2 types (see below)
  always,     ///< frontier whenever the active rule's order is total
  never,      ///< seed scan path (the O(b^2 n^2) reference)
};

const char* to_string(li_shi_mode mode);

/// automatic keeps the historical scan for b <= 2: tiny libraries gain
/// nothing from the frontier, and the seed-era golden hashes are pinned on
/// that path byte for byte.
bool li_shi_enabled(li_shi_mode mode, std::size_t num_types);

/// "No candidate selected" sentinel of buffer_frontier::best_per_type (every
/// key in the probed range was NaN or -inf -- the degenerate case the seed
/// scans also fail to select in).
inline constexpr std::size_t li_shi_npos =
    std::numeric_limits<std::size_t>::max();

/// Buffer types sorted by output resistance descending (ties keep library
/// order, so the result is deterministic for any library).
std::vector<timing::buffer_index> type_order_by_resistance(
    const timing::buffer_library& library);

/// The per-type frontier: the type order plus the monotone divide-and-conquer
/// that locates every type's best candidate. Built once per run (O(b log b)),
/// read-only afterwards -- safe to share across the parallel engine's
/// workers.
class buffer_frontier {
 public:
  buffer_frontier() = default;
  explicit buffer_frontier(const timing::buffer_library& library)
      : order_(type_order_by_resistance(library)) {}

  std::size_t num_types() const { return order_.size(); }
  const std::vector<timing::buffer_index>& type_order() const {
    return order_;
  }

  /// Fills best[b] with the index of the candidate maximizing the key of
  /// (type b, candidate k),  rats[k] - delays[b] - res[b] * loads[k],  over
  /// k in [0, num_cands), for every type b. All four arrays are contiguous
  /// (loads/rats have num_cands entries; delays/res are indexed by the
  /// *original* type index). Each probed row runs through the SIMD-dispatched
  /// argmax_buffered_row kernel (stats/kernels.hpp), whose per-lane
  /// evaluation and (max value, min index) reduction reproduce the scalar
  /// scan's leftmost / strictly-greater rule bit for bit. best[b] is
  /// li_shi_npos when no key compares greater than -infinity (all NaN /
  /// -inf).
  ///
  /// Precondition: candidates are sorted by strictly increasing load (the
  /// post-prune invariant of the total-order rules).
  void best_per_type(std::size_t num_cands, const double* loads,
                     const double* rats, const double* delays,
                     const double* res, std::vector<std::size_t>& best) const;

 private:
  /// Rows are positions in order_ (resistance descending); columns are
  /// candidate indices. Solves rows [rlo, rhi) knowing every leftmost argmax
  /// lies in [klo, khi).
  void solve_rows_packed(std::size_t rlo, std::size_t rhi, std::size_t klo,
                         std::size_t khi, const double* loads,
                         const double* rats, const double* delays,
                         const double* res,
                         const stats::kernels::kernel_table& kt,
                         std::vector<std::size_t>& best) const;

  std::vector<timing::buffer_index> order_;
};

}  // namespace vabi::core
