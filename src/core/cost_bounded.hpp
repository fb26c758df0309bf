// Cost-bounded buffer insertion (paper reference [9], Lillis/Cheng/Lin).
//
// Van Ginneken maximizes the root RAT regardless of how many buffers it
// spends; the low-power formulation of [9] instead asks for the *cheapest*
// buffering that still meets a required arrival time. Candidates carry a
// third coordinate -- the buffer cost spent in their subtree -- and the
// dominance rule becomes three-dimensional: (L1, T1, W1) prunes (L2, T2, W2)
// iff L1 <= L2, T1 >= T2 and W1 <= W2. The DP keeps, per cost level, the 2-D
// Pareto front; complexity grows by the number of distinct reachable cost
// levels (<= total buffer count), as in [9].
//
// The cost of a buffer type defaults to 1 (count), but can be set to area or
// leakage units via buffer_costs.
//
// The engine runs van Ginneken's recursion (van_ginneken.cpp) with its own
// hooks: the 3-D prune after every wire step, a cross-product merge filtered
// by max_cost, and every candidate buffered with every type.
#pragma once

#include <optional>
#include <vector>

#include "core/van_ginneken.hpp"

namespace vabi::core {

struct cost_bounded_options {
  det_options base;
  /// Cost per library type; empty = every buffer costs 1.
  std::vector<double> buffer_costs;
  /// Candidates with cost beyond this bound are pruned outright
  /// (0 = unbounded). Tightening it speeds the run when a target is known to
  /// be achievable cheaply.
  double max_cost = 0.0;
};

/// One point of the root cost/RAT trade-off curve.
struct cost_rat_point {
  double cost = 0.0;
  double root_rat_ps = 0.0;
  timing::buffer_assignment assignment;
  timing::wire_assignment wires;
};

struct cost_bounded_result {
  /// Strictly increasing in cost, strictly increasing in RAT: the Pareto
  /// frontier of achievable (cost, root RAT) pairs.
  std::vector<cost_rat_point> frontier;
  dp_stats stats;

  /// The cheapest frontier point meeting `target_rat_ps` (nullopt if even
  /// the RAT-optimal solution misses the target).
  std::optional<cost_rat_point> cheapest_meeting(double target_rat_ps) const;
};

/// Computes the full cost/RAT frontier at the root. Validates the tree and
/// options (buffer_costs must be empty or one cost >= 0 per library type,
/// max_cost >= 0) and maps every failure into the solve_code taxonomy
/// instead of throwing.
solve_outcome<cost_bounded_result> solve_cost_bounded_insertion(
    const tree::routing_tree& tree, const cost_bounded_options& options);

}  // namespace vabi::core
