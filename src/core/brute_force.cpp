#include "core/brute_force.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace vabi::core {

det_result brute_force_insertion(const tree::routing_tree& tree,
                                 const det_options& options) {
  const std::size_t positions = tree.num_buffer_positions();
  const std::size_t choices = options.library.size() + 1;
  if (positions > brute_force_max_positions ||
      std::pow(static_cast<double>(choices), static_cast<double>(positions)) >
          2e7) {
    throw std::invalid_argument("brute_force_insertion: tree too large");
  }

  // Positions are all nodes except the source (node 0).
  std::vector<tree::node_id> pos;
  pos.reserve(positions);
  for (tree::node_id id = 1; id < tree.num_nodes(); ++id) pos.push_back(id);

  std::vector<std::size_t> choice(positions, 0);  // 0 = none, k = type k-1
  det_result best;
  best.root_rat_ps = -std::numeric_limits<double>::infinity();
  best.assignment = timing::buffer_assignment(tree.num_nodes());

  // One assignment reused across the whole enumeration: every odometer step
  // rewrites exactly the changed positions (below we clear all, cheap and
  // branch-free, still allocation-free).
  timing::buffer_assignment assignment(tree.num_nodes());
  const timing::wire_menu wire{options.wire};
  while (true) {
    for (std::size_t i = 0; i < positions; ++i) {
      if (choice[i] != 0) {
        assignment.place(pos[i],
                         static_cast<timing::buffer_index>(choice[i] - 1));
      } else {
        assignment.remove(pos[i]);
      }
    }
    const auto eval = timing::evaluate_buffered_tree(
        tree, wire, timing::wire_assignment{}, options.library, assignment,
        options.driver_res_ohm);
    ++best.stats.candidates_created;
    if (eval.root_rat_ps > best.root_rat_ps) {
      best.root_rat_ps = eval.root_rat_ps;
      best.assignment = assignment;
    }

    // Odometer increment over the mixed-radix choice vector.
    std::size_t i = 0;
    while (i < positions && ++choice[i] == choices) {
      choice[i] = 0;
      ++i;
    }
    if (i == positions) break;
  }
  best.num_buffers = best.assignment.count();
  return best;
}

}  // namespace vabi::core
