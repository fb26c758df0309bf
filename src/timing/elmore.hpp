// Elmore evaluation of a *fixed* buffered tree.
//
// This is the ground-truth engine: given a routing tree, a concrete buffer
// assignment, and (optionally) per-instance device values -- e.g. one
// Monte-Carlo draw of every buffer's C_b / T_b -- it computes the exact
// Elmore required arrival time at the root by one bottom-up pass, applying
// the same recurrences as the DP key operations (eqs. 25-30).
//
// The variation-aware experiments use it two ways:
//   - with nominal device values, to verify the DP's bookkeeping;
//   - with sampled device values, to validate the canonical-form RAT PDF
//     against Monte Carlo (paper Fig. 6) and to measure timing yield of a
//     design under the full variation model.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "timing/buffer_library.hpp"
#include "timing/wire_model.hpp"
#include "timing/wire_sizing.hpp"
#include "tree/routing_tree.hpp"

namespace vabi::timing {

/// Which buffer (if any) is placed at each tree node. A buffer at node t
/// drives t's subtree and presents its input capacitance upstream.
class buffer_assignment {
 public:
  buffer_assignment() = default;
  explicit buffer_assignment(std::size_t num_nodes)
      : buffer_at_(num_nodes, no_buffer) {}

  static constexpr std::int32_t no_buffer = -1;

  bool has_buffer(tree::node_id n) const {
    return buffer_at_[n] != no_buffer;
  }
  buffer_index buffer(tree::node_id n) const {
    return static_cast<buffer_index>(buffer_at_[n]);
  }
  void place(tree::node_id n, buffer_index b) {
    buffer_at_[n] = static_cast<std::int32_t>(b);
  }
  void remove(tree::node_id n) { buffer_at_[n] = no_buffer; }

  std::size_t num_nodes() const { return buffer_at_.size(); }
  std::size_t count() const;
  bool operator==(const buffer_assignment&) const = default;

 private:
  std::vector<std::int32_t> buffer_at_;
};

/// Concrete characteristics of one buffer instance (one MC draw or nominal).
struct device_values {
  double cap_pf = 0.0;
  double delay_ps = 0.0;
  double res_ohm = 0.0;
};

/// Callback supplying the instance values of the buffer at node `n` of type
/// `b`. Used to inject Monte-Carlo draws.
using device_value_fn =
    std::function<device_values(tree::node_id n, buffer_index b)>;

struct elmore_result {
  double root_rat_ps = 0.0;   ///< RAT at the source, after the driver
  double root_load_pf = 0.0;  ///< load presented to the driver
};

/// Evaluates the buffered tree bottom-up. Each edge uses the wire variant
/// selected by `widths` from `menu` (edges beyond widths.num_nodes() use
/// variant 0, so `wire_menu{wire}` with an empty `wire_assignment` evaluates
/// every edge on `wire`). `driver_res_ohm` is the source driver's output
/// resistance (its delay r_d * load is charged against the root RAT). If
/// `devices` is null, nominal library values are used.
elmore_result evaluate_buffered_tree(const tree::routing_tree& tree,
                                     const wire_menu& menu,
                                     const wire_assignment& widths,
                                     const buffer_library& library,
                                     const buffer_assignment& assignment,
                                     double driver_res_ohm,
                                     const device_value_fn& devices = nullptr);

}  // namespace vabi::timing
