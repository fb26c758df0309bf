// Routing-tree data structure.
//
// The input of the buffer-insertion problem (paper Section 2.1): a tree
// rooted at the signal source, with capacitive sinks at the leaves carrying
// required arrival times, wires of known length on the edges, and a set of
// legal buffer positions. Following the benchmarks of Table 1 (where
// positions = 2 * sinks - 1), every node except the source is a legal buffer
// position: inserting a buffer "at node t" places it at t, driving t's
// subtree (eqs. 27-28).
//
// Nodes carry a die location so that the spatial variation model can
// correlate nearby buffers; wire lengths default to the Manhattan distance
// between the edge endpoints but may be set explicitly.
//
// ECO support: every node carries a lazily maintained *subtree content hash*
// (FNV-1a over the node's kind, geometry and sink data, combined with each
// child's edge length and subtree hash in child order). `apply_edit` mutates
// the tree through a typed edit list and rehashes only the edited node's
// root path, so an incremental solver can cheaply identify the subtrees an
// edit left untouched. Pruned subtrees stay in the node array as *detached*
// nodes (ids are stable) until grafted back.
//
// A tree also remembers that it was checked: `checked()` holds once the tree
// passed `validate()` and a finiteness scan of every node's solve inputs
// (detached nodes included), and only `apply_edit` edits that wrote finite
// values have changed it since. The solvers' entry policy skips its two
// whole-tree scans while that holds, so a warm ECO solve pays O(depth), not
// O(n), for its entry checks.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "layout/geometry.hpp"

namespace vabi::tree {

using node_id = std::uint32_t;
inline constexpr node_id invalid_node = std::numeric_limits<node_id>::max();

enum class node_kind : std::uint8_t {
  source,   ///< the root driver; exactly one per tree; not a buffer position
  sink,     ///< leaf with load capacitance and required arrival time
  steiner,  ///< internal branching / candidate point
};

const char* to_string(node_kind kind);

struct tree_node {
  node_id id = invalid_node;
  node_kind kind = node_kind::steiner;
  layout::point location;
  node_id parent = invalid_node;
  double parent_wire_um = 0.0;  ///< length of the wire to the parent
  std::vector<node_id> children;
  double sink_cap_pf = 0.0;  ///< sink only
  double sink_rat_ps = 0.0;  ///< sink only
  bool detached = false;     ///< member of a pruned (ECO-detached) subtree

  bool is_sink() const { return kind == node_kind::sink; }
  bool is_source() const { return kind == node_kind::source; }
  /// The solve inputs this node carries are finite: the wire above it and,
  /// for a sink, its load and RAT.
  bool inputs_finite() const {
    return std::isfinite(parent_wire_um) &&
           (!is_sink() || (std::isfinite(sink_cap_pf) &&
                           std::isfinite(sink_rat_ps)));
  }
};

/// One structural ECO edit. Build with the static factories; apply with
/// `routing_tree::apply_edit`, which validates, mutates, and incrementally
/// rehashes only the affected root path.
struct tree_edit {
  enum class op_kind : std::uint8_t {
    move_sink,      ///< relocate a sink; its parent wire follows
    retarget_rat,   ///< change a sink's required arrival time
    resize_wire,    ///< change the length of the wire above `node`
    prune_subtree,  ///< detach `node`'s subtree from its parent
    graft_subtree,  ///< re-attach a detached subtree under `new_parent`
  };

  op_kind op = op_kind::retarget_rat;
  node_id node = invalid_node;
  layout::point location;              ///< move_sink: new location
  double value = 0.0;                  ///< retarget_rat: ps; resize_wire: um
  node_id new_parent = invalid_node;   ///< graft_subtree
  double wire_um = -1.0;  ///< move_sink/graft_subtree: <0 means Manhattan

  static tree_edit move_sink(node_id sink, layout::point loc,
                             double wire_um = -1.0) {
    tree_edit e;
    e.op = op_kind::move_sink;
    e.node = sink;
    e.location = loc;
    e.wire_um = wire_um;
    return e;
  }
  static tree_edit retarget_rat(node_id sink, double rat_ps) {
    tree_edit e;
    e.op = op_kind::retarget_rat;
    e.node = sink;
    e.value = rat_ps;
    return e;
  }
  static tree_edit resize_wire(node_id node, double wire_um) {
    tree_edit e;
    e.op = op_kind::resize_wire;
    e.node = node;
    e.value = wire_um;
    return e;
  }
  static tree_edit prune_subtree(node_id node) {
    tree_edit e;
    e.op = op_kind::prune_subtree;
    e.node = node;
    return e;
  }
  static tree_edit graft_subtree(node_id node, node_id new_parent,
                                 double wire_um = -1.0) {
    tree_edit e;
    e.op = op_kind::graft_subtree;
    e.node = node;
    e.new_parent = new_parent;
    e.wire_um = wire_um;
    return e;
  }
};

class routing_tree {
 public:
  /// Creates the tree with its source (root) node at `loc`.
  explicit routing_tree(layout::point source_loc = {});

  node_id root() const { return 0; }

  /// Adds a sink under `parent`. Wire length defaults to Manhattan distance.
  node_id add_sink(node_id parent, layout::point loc, double cap_pf,
                   double rat_ps,
                   double wire_um = -1.0);

  /// Adds an internal (Steiner / candidate) node under `parent`.
  node_id add_steiner(node_id parent, layout::point loc, double wire_um = -1.0);

  std::size_t num_nodes() const { return nodes_.size(); }
  /// Attached sinks only; pruned sinks drop out until grafted back.
  std::size_t num_sinks() const { return num_sinks_; }
  /// Legal buffer positions = every attached node except the source.
  std::size_t num_buffer_positions() const {
    return nodes_.size() - 1 - num_detached_;
  }
  /// Number of nodes currently inside pruned (detached) subtrees.
  std::size_t num_detached() const { return num_detached_; }
  bool has_detached() const { return num_detached_ != 0; }
  /// Number of prune_subtree / graft_subtree edits applied so far, modulo
  /// 2^32; no other edit changes a node's ancestors.
  std::uint32_t topology_edits() const { return topology_edits_; }

  const tree_node& node(node_id id) const { return nodes_[id]; }
  /// Mutable node access invalidates the cached subtree hashes and clears
  /// `checked()` (the caller may change anything); prefer `apply_edit`,
  /// which rehashes incrementally and keeps the tree checked. The reference
  /// must not be written after a later `apply_edit`, which would not see it.
  tree_node& node(node_id id) {
    hashes_valid_ = false;
    checked_.set = false;
    return nodes_[id];
  }
  const std::vector<tree_node>& nodes() const { return nodes_; }

  /// Applies one ECO edit. Validates the edit (throws std::logic_error /
  /// std::invalid_argument on a malformed one, before mutating anything),
  /// mutates the tree, and incrementally recomputes subtree hashes along the
  /// affected root path only -- O(depth + subtree) instead of O(n). On a tree
  /// that is not `checked()` it first runs the full check once (O(n)) and
  /// sets the bit if the tree passes; an edit that writes a non-finite value
  /// (a RAT, a wire length, or a moved or grafted node's Manhattan wire)
  /// clears it. Every other edit keeps what `validate()` checks, except that
  /// a prune can leave the tree without an attached sink.
  void apply_edit(const tree_edit& edit);

  /// True when the tree passed `validate()` and every node, detached ones
  /// included, held finite solve inputs (`tree_node::inputs_finite`), and
  /// it has changed since only through `apply_edit` edits that wrote finite
  /// values. Then `validate()` passes unless no attached sink is left. Set
  /// only by `apply_edit`; cleared by the non-const `node()`, `add_sink`,
  /// `add_steiner` and a non-finite edit. A copy keeps it, a moved-from
  /// tree does not.
  bool checked() const { return checked_.set; }

  /// Content hash of the subtree rooted at `id` (see file comment for the
  /// recipe). Lazily computed; O(1) when the cache is warm.
  std::uint64_t subtree_hash(node_id id) const {
    ensure_subtree_hashes();
    return hashes_[id];
  }

  /// Forces the full hash pass now. Call before reading `subtree_hash`
  /// concurrently: once warm, const reads race-free until the next mutation.
  void ensure_subtree_hashes() const;

  /// Number of nodes in the subtree rooted at `id` (including `id`).
  std::size_t subtree_size(node_id id) const;

  /// Node ids in postorder (children before parents; root last). Computed
  /// iteratively, so arbitrarily deep trees are safe. Detached subtrees are
  /// unreachable from the root and therefore excluded.
  std::vector<node_id> postorder() const;

  /// All attached sink ids, in id order.
  std::vector<node_id> sinks() const;

  /// Sum of all attached wire lengths, um.
  double total_wire_um() const;

  /// Smallest bbox containing every attached node location.
  layout::bbox bounding_box() const;

  /// Checks structural invariants (single root; parent/child consistency
  /// both ways: each node's parent lists it, and every children entry is in
  /// range, names a node whose parent is this node and appears once; sinks
  /// are leaves, no cycles, wire lengths >= 0, detached subtrees are
  /// internally consistent, at least one attached sink). Throws
  /// std::logic_error with a description on violation. O(n); never writes
  /// the tree, so concurrent calls on one tree are safe.
  void validate() const;

 private:
  /// The `checked()` bit. Copies keep it; moving from a tree clears the
  /// source's, since its nodes are gone and `validate()` would reject it.
  struct check_bit {
    bool set = false;
    check_bit() = default;
    check_bit(const check_bit&) = default;
    check_bit& operator=(const check_bit&) = default;
    check_bit(check_bit&& other) noexcept : set(other.set) {
      other.set = false;
    }
    check_bit& operator=(check_bit&& other) noexcept {
      set = other.set;
      other.set = false;
      return *this;
    }
  };

  node_id add_node(node_kind kind, node_id parent, layout::point loc,
                   double wire_um);
  std::uint64_t compute_subtree_hash(node_id id) const;
  void rehash_upward(node_id id) const;
  /// What `validate()` throws, or nullptr when the tree passes.
  const char* structure_error() const;

  std::vector<tree_node> nodes_;
  std::size_t num_sinks_ = 0;
  std::size_t num_detached_ = 0;
  mutable std::vector<std::uint64_t> hashes_;
  mutable bool hashes_valid_ = false;
  // checked_ and topology_edits_ sit in the padding after hashes_valid_:
  // with the tree grown by 8 bytes, perfbench confidence_net's setup (100
  // tree builds) measured up to a quarter slower.
  check_bit checked_;
  std::uint32_t topology_edits_ = 0;
};

}  // namespace vabi::tree
