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
//     the term slab their canonical forms borrow) as its parent consumes
//     it, carried up through the node's parent wire, keyed by the node's
//     subtree content hash (tree/routing_tree.hpp) and that wire's length,
//     and guarded by a fingerprint over every solver-relevant option;
//   - a *device memo*: the characterized device forms per (node, type),
//     guarded by the node's location, so re-solves reuse the same variation
//     source ids (the precondition for bit-identical re-solves);
//   - each node's parent and child slot as of the last solve, which tell
//     apart nodes of equal content that prune/graft edits moved;
//   - the decision arena backing the cached candidates' `why` chains (never
//     reset while the session lives, so cached backpointers stay valid),
//     and a design memo: the last warm winner's design and the decisions
//     behind it, so the next warm design walks only the decisions that
//     differ (core/solution.hpp, design_memo).
//
// Every session solve runs on the serial engine (run_serial): after an edit
// the re-solved nodes form one root path, each waiting for its child, so
// there is nothing to schedule in parallel.
//
// A warm solve adopts every subtree whose key is unchanged and re-solves
// only the rest: after a single-sink edit that is the root path, after a
// resize_wire also the node under the wire. It walks only that path: the
// device memo is refreshed for the re-solved nodes alone, no slab is
// copied -- an adopted subtree's list is a shallow copy of the entry's
// candidates borrowing the entry's slab, and a re-solved node's sealed list
// moves into its entry while the parent consumes the same kind of view --
// and the session's lists table is emptied again node by node. Refreshing
// only the re-solved nodes is sound because re-characterizing a node
// invalidates every entry on its root path, and a node that changed parent
// or slot invalidates the root paths of its old and new parent, so a valid
// entry's subtree holds the device forms the entry was built with. Because
// the cached lists are the sealed outputs of the very same DP, and device
// forms come from the shared memo, a warm solve is bit-identical to
// solve_cold() (same session, cache bypassed) by construction -- the
// differential tests and the edit-script fuzzer (eco_fuzz) pin this, on
// the whole design, across 2P/4P/corner x li_shi_mode x prune mode.
//
// Interplay with the rest of the engine:
//   - resource_guard trips: an aborted solve stores nothing for the tripped
//     node or its never-solved ancestors; entries sealed before the trip
//     are complete lists and stay valid. The trip itself invalidates no
//     entry: the path's older entries are adopted again only when their
//     key matches again (an undo) and no node under them was
//     re-characterized or moved since, whichever solve -- warm, cold or
//     aborted -- saw it. Only a completed warm solve feeds the design memo.
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

namespace vabi::core {

namespace detail {
struct session_state;
}  // namespace detail

/// FNV-1a hash over a sparse canonical form: the nominal value plus every
/// (source id, coefficient) term in order. Two forms hash equal iff they are
/// bit-identical, which is what the ECO bench and the incremental-consistency
/// fuzzer assert about warm vs cold root RATs.
std::uint64_t form_hash(const stats::linear_form& f);

/// A statistical-solver session: solve -> edit the tree -> solve again, with
/// unchanged subtrees adopted from the cache. One session per net and per
/// process_model; the model must outlive the session. Not thread-safe --
/// solves are issued one at a time.
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

  /// Reference solve: bypasses the cache entirely (adopts nothing, stores
  /// nothing) but shares the session's device memo, so its result is
  /// bit-identical to what a warm solve of the same tree must produce.
  solve_outcome<stat_result> solve_cold(const tree::routing_tree& tree,
                                        const stat_options& options,
                                        const cancel_token* cancel = nullptr);

  /// Drops every cached entry, the device memo, the decision arena and the
  /// design memo.
  void reset();

  /// Number of nodes with a valid cached survivor list.
  std::size_t cached_nodes() const;

 private:
  std::unique_ptr<detail::session_state> state_;
};

}  // namespace vabi::core
