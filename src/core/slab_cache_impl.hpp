// Internal state of a solve_session, shared between slab_cache.cpp (cache
// bookkeeping, the session solve) and statistical_dp.cpp (run_serial stores
// each re-solved node's sealed list). Not installed; not part of the public
// surface.
#pragma once

#include <cstdint>
#include <vector>

#include "core/dp_engine.hpp"
#include "core/slab_cache.hpp"

namespace vabi::core::detail {

/// One node's cached list as its parent consumes it: carried up through the
/// node's parent wire and pruned there. It serves a later solve only if
/// both the subtree hash and that wire are unchanged (the hash covers the
/// wires below the node, not the one above it).
struct cache_entry {
  std::uint64_t hash = 0;
  double wire_um = 0.0;  ///< the node's parent_wire_um the list went through
  bool valid = false;
  node_list list;
};

struct session_state {
  layout::process_model* model = nullptr;

  // Content-addressed survivor-slab cache, indexed by node id.
  std::vector<cache_entry> entries;
  std::uint64_t options_fp = 0;
  bool has_options_fp = false;
  std::uint64_t library_fp = 0;
  bool has_library_fp = false;

  // Device memo: characterized forms per (node, type), guarded by the
  // node's location. Filled in serial lazy postorder order so the session's
  // source-id allocation matches the one-shot serial engine's. Invariant:
  // every node under a valid entry's subtree holds the forms that entry was
  // built with (DESIGN.md, "Memo/entry invariant"; refresh_devices and
  // track_placements keep it).
  struct device_entry {
    layout::device_variation dv;
    layout::point loc;
    bool valid = false;
  };
  std::vector<device_entry> devices;
  std::size_t memo_lib = 0;

  // Each node's place -- parent and child slot -- as of the last solve that
  // ran, and routing_tree::topology_edits() then. The content hash ignores
  // node ids, so this is what tells two nodes of equal content apart when
  // prune/graft edits swap them. (The count wraps at 2^32, so a move is
  // missed only if exactly a multiple of 2^32 prunes and grafts separate
  // two solves on a tree of unchanged size.)
  struct placement {
    tree::node_id parent = tree::invalid_node;
    std::uint32_t slot = 0;
    bool operator==(const placement&) const = default;
  };
  std::vector<placement> placed;
  std::uint32_t placed_topology = 0;

  // Session-owned storage backing cached candidates' decision chains.
  decision_arena arena;
  worker_arena mem;
  // The last completed warm solve's design and the decisions behind it;
  // never fed by solve_cold, aborted solves or degraded retries.
  design_memo design;

  // Per-solve tables kept across solves: the nodes a solve re-solves (in
  // postorder, filled by mark) and the lists it works on, indexed by node
  // id. A solve empties again every list it filled (clear_lists), however
  // it ends.
  std::vector<tree::node_id> order;
  std::vector<node_list> lists;

  /// Refreshes fingerprints (flushing on change), sizes the entry, list and
  /// device tables, and tracks node placements (track_placements). Call
  /// before mark().
  void prepare(const tree::routing_tree& tree, const stat_options& options);

  /// When the tree's topology or size moved since the last scan, compares
  /// every node's parent and child slot with `placed` and invalidates the
  /// root paths of both the old and the new parent of each node that moved:
  /// the entries whose subtrees gained, lost or reordered a node, which a
  /// content hash may not see.
  void track_placements(const tree::routing_tree& tree);

  /// Top-down pass from the root: subtrees whose hash and parent wire match
  /// their cached entry are adopted (`lists` borrows the entry's candidates
  /// and slab) and not descended into; everything else goes into `order`
  /// for re-solving. With use_cache false every attached node is marked.
  /// Walks the postorder's own stack discipline, so `order` ends up as
  /// tree.postorder() restricted to the marked nodes. Returns the number
  /// of adopted subtree roots.
  std::size_t mark(const tree::routing_tree& tree, bool use_cache);

  /// Fills the device memo of every node in `order` (non-source) whose
  /// forms are missing or whose location moved, in postorder, types
  /// ascending, and invalidates the root path of each node it
  /// re-characterizes: the entries built with the replaced forms (an entry
  /// that held the node under a former parent went when track_placements
  /// saw the move). Unmarked nodes sit under adopted entries, whose forms
  /// the invariant above keeps current. Call after mark().
  void refresh_devices(const tree::routing_tree& tree,
                       const stat_options& options);

  /// Moves a freshly sealed list for `id` into the cache, keyed by the
  /// node's subtree hash and parent wire, and returns the view the solve
  /// continues with: its own copy of the candidates, borrowing the entry's
  /// slab.
  node_list store(const tree::routing_tree& tree, tree::node_id id,
                  node_list&& solved);

  /// Empties every list a solve filled: the root's, the marked nodes' and
  /// their children's (an adopted subtree root is the root or a marked
  /// node's child), then clears `order`.
  void clear_lists(const tree::routing_tree& tree);

  const layout::device_variation& device(tree::node_id id,
                                         timing::buffer_index b) const {
    return devices[static_cast<std::size_t>(id) * memo_lib + b].dv;
  }

  /// Invalidates the entries of `id` and of every ancestor.
  void invalidate_path(const tree::routing_tree& tree, tree::node_id id);
  void flush_entries();
  void reset_all();
};

}  // namespace vabi::core::detail
