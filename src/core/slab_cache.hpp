// Session-oriented incremental re-solve (ECO mode).
//
// The one-shot entry points (solve_statistical_insertion,
// solve_parallel_insertion, solve_van_ginneken) re-solve every node of the
// tree on every call.
// Production buffering is iterative: an ECO moves one sink or resizes one
// wire, and only the edited node's root path actually changes. A
// solve_session keeps, across solves:
//
//   - a *slab cache*: every solved node's sealed survivor list (candidates +
//     the term slab their canonical forms borrow), keyed by the node's
//     subtree content hash (tree/routing_tree.hpp) and guarded by a
//     fingerprint over every solver-relevant option;
//   - a *device memo*: the characterized device forms per (node, type),
//     guarded by the node's location, so re-solves reuse the same variation
//     source ids (the precondition for bit-identical re-solves);
//   - the decision arenas backing the cached candidates' `why` chains
//     (never reset while the session lives, so cached backpointers stay
//     valid).
//
// A warm solve adopts every subtree whose hash is unchanged and re-solves
// only the rest: after a single-sink edit that is the root path. It walks
// only that path: the device memo is refreshed for the re-solved nodes
// alone, and no slab is copied -- an adopted subtree's list is a shallow
// copy of the entry's candidates borrowing the entry's slab, and a
// re-solved node's sealed list moves into its entry while the parent
// consumes the same kind of view. Refreshing only the re-solved nodes is
// sound because re-characterizing a node invalidates every entry on its
// root path, so a valid entry's subtree holds the device forms the entry
// was built with (the current root path only: DESIGN.md names the one
// prune/graft sequence this misses). Because the cached lists are the
// sealed outputs of the very same DP, and device forms come from the shared
// memo, a warm solve is bit-identical to solve_cold() (same session, cache
// bypassed) by construction -- the differential tests and the nightly
// edit-script fuzzer pin this across 2P/4P/corner x threads x li_shi_mode.
//
// Interplay with the rest of the engine:
//   - resource_guard trips: an aborted solve stores nothing for the tripped
//     node or its never-solved ancestors; entries sealed before the trip
//     are complete lists and stay valid. The trip itself invalidates no
//     entry: the path's older entries are adopted again only when their
//     subtree hash matches again (an undo) and no node under them was
//     re-characterized since, whichever solve -- warm, cold or aborted --
//     did the re-characterizing.
//   - degrade policies: a degraded retry runs the corner rule through the
//     non-cached serial engine; the cache keeps serving the primary rule.
//   - any option change (rule parameters, caps, li_shi, percentiles, ...)
//     changes the fingerprint and flushes the cache; a library change also
//     flushes the device memo.
#pragma once

#include <cstdint>
#include <memory>

#include "core/solve_status.hpp"
#include "core/statistical_dp.hpp"
#include "core/van_ginneken.hpp"

namespace vabi::core {

class thread_pool;

namespace detail {
struct session_state;
struct det_session_state;
}  // namespace detail

/// FNV-1a hash over a sparse canonical form: the nominal value plus every
/// (source id, coefficient) term in order. Two forms hash equal iff they are
/// bit-identical, which is what the ECO bench and the incremental-consistency
/// fuzzer assert about warm vs cold root RATs.
std::uint64_t form_hash(const stats::linear_form& f);

/// A statistical-solver session: solve -> edit the tree -> solve again, with
/// unchanged subtrees adopted from the cache. One session per net and per
/// process_model; the model must outlive the session. Not thread-safe --
/// solves are issued one at a time (solve_parallel fans one solve across a
/// caller-owned pool internally).
class solve_session {
 public:
  explicit solve_session(layout::process_model& model);
  ~solve_session();
  solve_session(solve_session&&) noexcept;
  solve_session& operator=(solve_session&&) noexcept;
  solve_session(const solve_session&) = delete;
  solve_session& operator=(const solve_session&) = delete;

  /// Incremental serial solve: consults and updates the slab cache.
  solve_outcome<stat_result> solve(const tree::routing_tree& tree,
                                   const stat_options& options,
                                   const cancel_token* cancel = nullptr);

  /// Incremental solve with per-node tasks on `pool` (bit-identical to the
  /// serial solve, like solve_parallel_insertion is to the serial engine).
  solve_outcome<stat_result> solve_parallel(const tree::routing_tree& tree,
                                            const stat_options& options,
                                            thread_pool& pool,
                                            const cancel_token* cancel =
                                                nullptr);

  /// Reference solve: bypasses the cache entirely (adopts nothing, stores
  /// nothing) but shares the session's device memo, so its result is
  /// bit-identical to what a warm solve of the same tree must produce.
  solve_outcome<stat_result> solve_cold(const tree::routing_tree& tree,
                                        const stat_options& options,
                                        const cancel_token* cancel = nullptr);

  /// Drops every cached entry, the device memo, and the decision arenas.
  void reset();

  /// Number of nodes with a valid cached survivor list.
  std::size_t cached_nodes() const;

  layout::process_model& model();

 private:
  std::unique_ptr<detail::session_state> state_;
};

/// The deterministic (van Ginneken) counterpart of solve_session: candidate
/// lists are plain (load, RAT) doubles, so entries are cached by value with
/// no slab machinery, keyed by the same subtree hashes.
class det_session {
 public:
  det_session();
  ~det_session();
  det_session(det_session&&) noexcept;
  det_session& operator=(det_session&&) noexcept;
  det_session(const det_session&) = delete;
  det_session& operator=(const det_session&) = delete;

  /// Incremental solve: consults and updates the cache.
  solve_outcome<det_result> solve(const tree::routing_tree& tree,
                                  const det_options& options);

  /// Cache-bypassing reference solve inside this session.
  solve_outcome<det_result> solve_cold(const tree::routing_tree& tree,
                                       const det_options& options);

  void reset();
  std::size_t cached_nodes() const;

 private:
  std::unique_ptr<detail::det_session_state> state_;
};

}  // namespace vabi::core
