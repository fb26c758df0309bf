// Internal state of a solve_session, shared between slab_cache.cpp (serial
// solves, cache bookkeeping) and parallel.cpp (the pool-scheduled solve,
// which must reuse the file-local parallel runner there). Not installed; not
// part of the public surface.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dp_engine.hpp"
#include "core/slab_cache.hpp"

namespace vabi::core::detail {

struct cache_entry {
  std::uint64_t hash = 0;
  bool valid = false;
  node_list list;
};

/// Arenas of one parallel-session worker; owned by the session (never reset
/// while cached `why` chains point into them), lent to the pool's workers
/// for the duration of one solve.
struct session_worker {
  decision_arena arena;
  worker_arena mem;
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
  // built with -- re-characterizing a node invalidates its current root
  // path (DESIGN.md, "Memo/entry invariant", names what that misses).
  struct device_entry {
    layout::device_variation dv;
    layout::point loc;
    bool valid = false;
  };
  std::vector<device_entry> devices;
  std::size_t memo_lib = 0;

  // Session-owned storage backing cached candidates' decision chains.
  decision_arena arena;  ///< serial solves
  worker_arena mem;      ///< serial solves
  std::vector<std::unique_ptr<session_worker>> workers;  ///< parallel solves

  /// Refreshes fingerprints (flushing on change), sizes the entry table and
  /// the device memo, and warms the tree's subtree hashes. Serial; call
  /// before mark().
  void prepare(const tree::routing_tree& tree, const stat_options& options);

  struct mark_result {
    std::vector<std::uint8_t> marked;  ///< nodes the solve must visit
    std::vector<tree::node_id> order;  ///< the marked nodes, in postorder
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
  /// ascending), and invalidates the entries on each re-characterized
  /// node's root path. Unmarked nodes sit under adopted entries, whose
  /// forms the invariant above keeps current. Serial; call after mark().
  void refresh_devices(const tree::routing_tree& tree,
                       const stat_options& options,
                       const std::vector<tree::node_id>& order);

  /// Moves a freshly sealed list for `id` into the cache and returns the
  /// view the solve continues with: its own copy of the candidates,
  /// borrowing the entry's slab. Safe to call concurrently for distinct ids
  /// once `entries` is sized and the tree's hashes are warm.
  node_list store(tree::node_id id, std::uint64_t hash, node_list&& solved);

  const layout::device_variation& device(tree::node_id id,
                                         timing::buffer_index b) const {
    return devices[static_cast<std::size_t>(id) * memo_lib + b].dv;
  }

  void flush_entries();
  void reset_all();
};

/// One session solve (slab_cache.cpp): refreshes the fingerprints and device
/// memo, adopts every cached subtree (none with use_cache false, the
/// solve_cold reference path), and solves the rest -- serially through
/// run_serial, or with `pool` through session_solve_parallel.
stat_result session_solve(session_state& ss, const tree::routing_tree& tree,
                          const stat_options& options, thread_pool* pool,
                          const cancel_token* cancel, bool use_cache);

/// Pool-scheduled part of a session solve (parallel.cpp): solves the nodes
/// `pass` marks into `lists` on the session's per-worker arenas;
/// bit-identical to the serial session solve.
stat_result session_solve_parallel(const session_pass& pass,
                                   const tree::routing_tree& tree,
                                   const stat_options& options,
                                   thread_pool& pool,
                                   const cancel_token* cancel,
                                   std::vector<node_list>&& lists,
                                   dp_clock::time_point t_start);

}  // namespace vabi::core::detail
