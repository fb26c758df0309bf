// Wire sizing support.
//
// Reference [8] of the paper (He, Kahng, Tam, Xiong, ISPD'05) extends the
// same DP to *simultaneous buffer insertion and wire sizing*: every wire may
// pick a width from a discrete menu, trading resistance (narrower = more R)
// against capacitance (wider = more C). This module provides the width menu
// and the per-edge width assignment; the DP engines enumerate widths during
// wire propagation exactly as they enumerate buffer types at positions.
//
// Width w scales the base wire as r/w and c*w (plus an optional constant
// fringe term that does not scale), which is the standard first-order model.
#pragma once

#include <cstdint>
#include <vector>

#include "timing/wire_model.hpp"
#include "tree/routing_tree.hpp"

namespace vabi::timing {

/// Index into a wire-width menu.
using width_index = std::uint32_t;

/// Discrete menu of wire variants derived from a base wire model.
class wire_menu {
 public:
  /// Single-width menu (no sizing): just the base wire.
  explicit wire_menu(const wire_model& base);

  /// Menu with one variant per width multiplier. Multipliers must be > 0;
  /// `fringe_cap_per_um` is added to every variant unscaled.
  wire_menu(const wire_model& base, const std::vector<double>& multipliers,
            double fringe_cap_per_um = 0.0);

  std::size_t size() const { return variants_.size(); }
  bool sizing_enabled() const { return variants_.size() > 1; }
  const wire_model& operator[](width_index w) const { return variants_[w]; }
  double multiplier(width_index w) const { return multipliers_[w]; }

 private:
  std::vector<wire_model> variants_;
  std::vector<double> multipliers_;
};

/// The menu a solver's wire_width_multipliers imply: one variant per
/// multiplier, or just the base wire (sizing off) for a single entry or none.
wire_menu make_wire_menu(const wire_model& base,
                         const std::vector<double>& multipliers);

/// Chosen width per tree edge (indexed by the edge's child node id).
class wire_assignment {
 public:
  wire_assignment() = default;
  explicit wire_assignment(std::size_t num_nodes) : width_at_(num_nodes, 0) {}

  width_index width(tree::node_id n) const {
    return n < width_at_.size() ? width_at_[n] : 0;
  }
  void set(tree::node_id n, width_index w) { width_at_[n] = w; }
  std::size_t num_nodes() const { return width_at_.size(); }
  bool operator==(const wire_assignment&) const = default;

  /// Number of edges assigned a non-default (non-zero-index) width.
  std::size_t count_nondefault() const;

 private:
  std::vector<width_index> width_at_;
};

}  // namespace vabi::timing
