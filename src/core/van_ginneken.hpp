// Deterministic van Ginneken buffer insertion (paper Section 2.1; [4], [10]).
//
// Bottom-up DP over the routing tree: candidate (L, T) lists are propagated
// through wires (eqs. 25-26), merged at branches with the classic linear
// merge (Fig. 1), pruned with the dominance rule, and extended with one
// buffered candidate per library type (eqs. 27-28). With the Li-Shi
// per-type frontier (li_shi.hpp, on by default for B > 2) the buffered step
// probes only the per-type best, for O(B * N^2) overall; the classic scan
// path (li_shi_mode::never) is the O(B^2 * N^2) reference. This is the
// paper's "NOM" optimizer and the structural template the statistical
// engine follows.
//
// Cost-bounded insertion (cost_bounded.hpp) runs on the same recursion in
// van_ginneken.cpp, which owns the leaf, the wire step with the width
// fan-out of [8], the children's lists, peak_list_size and the thread's
// decision arena. Each engine supplies its edge prune, merge and buffered
// step as compile-time hooks and selects its own root.
#pragma once

#include <optional>
#include <vector>

#include "core/li_shi.hpp"
#include "core/solution.hpp"
#include "core/solve_status.hpp"
#include "timing/buffer_library.hpp"
#include "timing/elmore.hpp"
#include "timing/wire_model.hpp"
#include "tree/routing_tree.hpp"

namespace vabi::core {

struct det_options {
  timing::wire_model wire;
  timing::buffer_library library;
  /// Output resistance of the source driver; its delay r_d * L_root is
  /// charged when selecting the winning root candidate.
  double driver_res_ohm = 100.0;
  /// Wire-width menu for simultaneous buffer insertion and wire sizing (the
  /// extension of [8]): every edge picks one multiplier (r/m, c*m). A single
  /// entry disables sizing and adds no overhead.
  std::vector<double> wire_width_multipliers = {1.0};

  /// Li-Shi per-type frontier for the buffered-candidate step (li_shi.hpp):
  /// O(|list| + b log b) per position instead of the classic O(b * |list|)
  /// scan. `automatic` engages it for libraries of more than 2 types;
  /// results match the scan path candidate for candidate either way.
  li_shi_mode li_shi = li_shi_mode::automatic;
};

struct det_result {
  double root_rat_ps = 0.0;  ///< RAT at the source of the winning solution
  timing::buffer_assignment assignment;
  timing::wire_assignment wires;  ///< meaningful when sizing is enabled
  std::size_t num_buffers = 0;
  dp_stats stats;
};

/// Validates the options and the tree (non-finite sink loads, RATs or wire
/// lengths are nonfinite_value) and maps every failure into the solve_code
/// taxonomy instead of throwing.
solve_outcome<det_result> solve_van_ginneken(const tree::routing_tree& tree,
                                             const det_options& options);

namespace detail {

/// Option validation shared by the deterministic entry points (van Ginneken,
/// cost-bounded): an empty library or an unusable wire / width menu is
/// invalid_options naming the field.
std::optional<solve_error> check_det_options(const det_options& options);

}  // namespace detail

}  // namespace vabi::core
