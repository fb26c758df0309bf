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

struct cache_entry {
  std::uint64_t hash = 0;
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
  // built with (DESIGN.md, "Memo/entry invariant"; refresh_devices keeps
  // it).
  struct device_entry {
    layout::device_variation dv;
    layout::point loc;
    bool valid = false;
  };
  std::vector<device_entry> devices;
  std::size_t memo_lib = 0;

  // routing_tree::topology_edits() when every entry was last invalidated
  // for a re-characterization; entries stored since were built on the
  // topology of that count or a later one. (The count wraps at 2^32, so a
  // flush is missed only if exactly a multiple of 2^32 prunes and grafts
  // separate two re-characterizations.)
  std::uint32_t flushed_topology = 0;

  // Session-owned storage backing cached candidates' decision chains.
  decision_arena arena;
  worker_arena mem;

  /// Refreshes fingerprints (flushing on change) and sizes the entry table
  /// and the device memo. Call before mark().
  void prepare(const tree::routing_tree& tree, const stat_options& options);

  struct mark_result {
    std::vector<tree::node_id> order;  ///< nodes to re-solve, in postorder
    std::size_t hits = 0;              ///< adopted subtree roots
  };

  /// Top-down pass from the root: subtrees whose hash matches their cached
  /// entry are adopted (`lists` borrows the entry's candidates and slab) and
  /// not descended into; everything else is marked for re-solving. With
  /// use_cache false every attached node is marked. Walks the postorder's
  /// own stack discipline, so the reversed visit order of the marked nodes
  /// is tree.postorder() restricted to them.
  mark_result mark(const tree::routing_tree& tree,
                   std::vector<node_list>& lists, bool use_cache) const;

  /// Fills the device memo of every marked non-source node whose forms are
  /// missing or whose location moved, in `order` (postorder, types
  /// ascending), and invalidates the entries built with a re-characterized
  /// node: its root path, or every entry when the tree's topology changed
  /// since the last such flush (an older entry may hold the node under a
  /// former parent, and a graft-back restores that entry's hash). Unmarked
  /// nodes sit under adopted entries, whose forms the invariant above keeps
  /// current. Call after mark().
  void refresh_devices(const tree::routing_tree& tree,
                       const stat_options& options,
                       const std::vector<tree::node_id>& order);

  /// Moves a freshly sealed list for `id` into the cache and returns the
  /// view the solve continues with: its own copy of the candidates,
  /// borrowing the entry's slab.
  node_list store(tree::node_id id, std::uint64_t hash, node_list&& solved);

  const layout::device_variation& device(tree::node_id id,
                                         timing::buffer_index b) const {
    return devices[static_cast<std::size_t>(id) * memo_lib + b].dv;
  }

  void flush_entries();
  void reset_all();
};

}  // namespace vabi::core::detail
