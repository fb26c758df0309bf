// Candidate solutions of the buffer-insertion DP, and the decision arena
// used to backtrack the chosen optimum into a concrete buffer assignment.
//
// A candidate at node t is the pair (L_t, T_t) of paper Section 2.1:
// deterministic doubles for van Ginneken, canonical linear forms for the
// variation-aware engines. Every candidate carries an immutable pointer into
// a decision DAG recording how it was built (buffer inserted here / merge of
// two subtree candidates); wires do not create decisions since they are
// implied by the tree structure.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/solve_status.hpp"
#include "stats/linear_form.hpp"
#include "timing/buffer_library.hpp"
#include "timing/elmore.hpp"
#include "timing/wire_sizing.hpp"
#include "tree/routing_tree.hpp"

namespace vabi::core {

/// One construction step of a candidate. Nodes form a DAG (shared subtrees
/// are common after merging), allocated from a decision_arena.
struct decision {
  enum class kind : std::uint8_t { leaf, buffer, merge, wire };

  kind what = kind::leaf;
  tree::node_id node = tree::invalid_node;      ///< buffer/wire: which node/edge
  timing::buffer_index buffer = 0;              ///< buffer: type; wire: width
  const decision* left = nullptr;               ///< buffer/wire: prior; merge: a
  const decision* right = nullptr;              ///< merge: b
};

/// Stable-address arena for decisions: chunked slabs bumped in order, the
/// same scheme as stats::term_pool. reset() rewinds in O(1) keeping the
/// slabs, so one arena amortizes to zero allocations when reused across runs
/// (the serial driver keeps one per thread; see statistical_dp.cpp).
class decision_arena {
 public:
  decision_arena() = default;
  decision_arena(const decision_arena&) = delete;
  decision_arena& operator=(const decision_arena&) = delete;

  const decision* leaf() {
    return push(decision{decision::kind::leaf, tree::invalid_node, 0, nullptr,
                         nullptr});
  }
  const decision* buffered(tree::node_id node, timing::buffer_index b,
                           const decision* prior) {
    return push(decision{decision::kind::buffer, node, b, prior, nullptr});
  }
  const decision* merged(const decision* a, const decision* b) {
    return push(decision{decision::kind::merge, tree::invalid_node, 0, a, b});
  }
  /// Width choice for the edge above `node` (only recorded when wire sizing
  /// is enabled; width is stored in the `buffer` slot).
  const decision* wire_sized(tree::node_id node, timing::width_index width,
                             const decision* prior) {
    return push(decision{decision::kind::wire, node,
                         static_cast<timing::buffer_index>(width), prior,
                         nullptr});
  }

  std::size_t size() const { return size_; }

  /// Rewinds the arena to empty, keeping the slabs. Every decision pointer
  /// handed out becomes invalid; callers must have extracted their designs.
  void reset() {
    chunk_idx_ = 0;
    used_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t chunk_cap = 1024;

  const decision* push(const decision& d) {
    if (chunk_idx_ < chunks_.size() && used_ == chunk_cap) {
      ++chunk_idx_;
      used_ = 0;
    }
    if (chunk_idx_ == chunks_.size()) {
      chunks_.push_back(std::make_unique<decision[]>(chunk_cap));
      used_ = 0;
    }
    decision* slot = chunks_[chunk_idx_].get() + used_;
    *slot = d;
    ++used_;
    ++size_;
    return slot;
  }

  std::vector<std::unique_ptr<decision[]>> chunks_;
  std::size_t chunk_idx_ = 0;
  std::size_t used_ = 0;
  std::size_t size_ = 0;
};

/// Walks a decision DAG and records every buffer placement into an
/// assignment sized for `num_nodes` tree nodes.
timing::buffer_assignment extract_assignment(const decision* root,
                                             std::size_t num_nodes);

/// Buffers and wire widths of one complete solution.
struct design_choice {
  timing::buffer_assignment buffers;
  timing::wire_assignment wires;
};

/// Like extract_assignment, but also recovers per-edge wire widths (edges
/// without a wire decision keep width index 0).
design_choice extract_design(const decision* root, std::size_t num_nodes);

/// Deterministic candidate (van Ginneken).
struct det_candidate {
  double load_pf = 0.0;
  double rat_ps = 0.0;
  const decision* why = nullptr;
};

/// Variation-aware candidate: L and T as canonical forms over the shared
/// variation space (paper eqs. 31-32).
///
/// Carries lazily cached second moments (Var(L), Var(T)) so the dominance
/// rules stop recomputing per-pair variances: the 2P interval prefilter and
/// the 4P/corner percentile projections all read the cache. The cache is
/// keyed by nothing -- a candidate's forms live against one variation space
/// for their whole life -- and uses -1 as the "unset" sentinel (variances are
/// never negative). Engines must call invalidate_rat_moments() /
/// invalidate_load_moments() when they reassign a form's stochastic part;
/// nominal-only shifts (`form += constant`) preserve the variance and keep
/// the cache valid.
struct stat_candidate {
  stats::linear_form load;  ///< pF
  stats::linear_form rat;   ///< ps
  const decision* why = nullptr;

  mutable double var_load = -1.0;  ///< cached Var(load); -1 = unset
  mutable double var_rat = -1.0;   ///< cached Var(rat); -1 = unset

  double load_variance(const stats::variation_space& space) const {
    if (var_load < 0.0) var_load = load.variance(space);
    return var_load;
  }
  double rat_variance(const stats::variation_space& space) const {
    if (var_rat < 0.0) var_rat = rat.variance(space);
    return var_rat;
  }
  /// Bit-identical to load.stddev(space): same sqrt over the same variance.
  double load_stddev(const stats::variation_space& space) const {
    return std::sqrt(load_variance(space));
  }
  double rat_stddev(const stats::variation_space& space) const {
    return std::sqrt(rat_variance(space));
  }
  void invalidate_load_moments() const { var_load = -1.0; }
  void invalidate_rat_moments() const { var_rat = -1.0; }
};

/// Instrumentation accumulated by the DP engines. The runtime / capacity
/// comparison of Table 2 and the scalability study of Fig. 5 read these.
struct dp_stats {
  /// Candidates created by the key operations. The buffered step counts
  /// every scored (candidate, type) pair, whether it was built or its key
  /// bound ruled it out (see selection_bounded).
  std::size_t candidates_created = 0;
  std::size_t candidates_pruned = 0;   ///< discarded by the dominance rule
  std::size_t merge_pairs = 0;         ///< pair combinations evaluated
  std::size_t peak_list_size = 0;      ///< largest per-node candidate list
  /// Heap allocations attributable to form/term storage while solving nodes:
  /// scratch-pool chunk growth + sealed-slab growth + owning linear_form
  /// spills. Steady state (recycled arenas) is ~0 per node. Scheduling-
  /// dependent in parallel runs (chunk growth depends on which worker solves
  /// which node), so it is excluded from the bit-identity guarantee.
  std::size_t allocations = 0;
  /// High-water mark of live scratch-pool terms over any single node solve.
  std::size_t peak_terms = 0;
  /// Always 0: canonical forms have one (sparse) representation. Kept only
  /// because the repo benchmark (perfbench/) still reads it; it goes when
  /// the benchmark's stats.dense_forms metric does.
  std::size_t dense_forms = 0;
  /// Terms written by pooled merge/blend operations (the union size of each
  /// merge).
  std::size_t terms_merged = 0;
  /// 2P dominance tests decided by the cached-moment interval prefilter,
  /// skipping the exact per-pair sigma-of-difference pass.
  std::size_t dominance_prefilter_hits = 0;
  /// Buffer positions whose buffered-candidate step used the Li-Shi
  /// per-type frontier (li_shi.hpp) instead of the per-type full scan.
  /// An organization counter: never part of the bit-identity contract (the
  /// selected candidates are identical).
  std::size_t li_shi_nodes = 0;
  /// Scored buffered-candidate selections of the general rules (every rule
  /// but the 2P mean rule, which takes the mean fast path or the Li-Shi
  /// frontier), one per (position, type) whose list holds two or more
  /// candidates; a one-candidate list scores nothing and counts in neither.
  /// selection_bounded counts types the moment bounds decided: a single
  /// survivor, built without its key. selection_exact counts types that
  /// built two or more survivors and compared their exact keys, or had a
  /// non-finite bound. Organization counters like li_shi_nodes: the
  /// selected candidates are identical either way.
  std::size_t selection_bounded = 0;
  std::size_t selection_exact = 0;
  /// Slab-cache traffic (session-oriented solves only; the one-shot entry
  /// points never consult the cache and leave all three at 0). Hits count
  /// subtree roots adopted wholesale from the cache, misses count nodes the
  /// session actually re-solved, and nodes_reused counts every node under an
  /// adopted root (the work the cache saved). These are organization
  /// counters: the selected candidates are bit-identical with or without
  /// the cache.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t nodes_reused = 0;
  /// Tiled dominance engine traffic (core/pruning.cpp). tiled_prunes counts
  /// prune calls that took the tiled sweep; tile_prefilter_hits counts pair
  /// conditions the batched interval prefilter decided without an exact
  /// sigma pass; pairs_batched counts rows that flowed through the
  /// one-vs-many kernels (variance fills, prefilter rows, exact fallbacks).
  /// Organization counters: they depend on the VABI_FORCE_PRUNE policy and
  /// thresholds, never on results (the surviving candidates are
  /// bit-identical; candidates_pruned matches across modes).
  std::size_t tiled_prunes = 0;
  std::size_t tile_prefilter_hits = 0;
  std::size_t pairs_batched = 0;
  double wall_seconds = 0.0;
  bool aborted = false;                ///< a resource cap fired (4P runs)
  std::string abort_reason;
  /// Typed classification of the abort (solve_code::ok when !aborted) and
  /// the node boundary where the guard fired (invalid_node when unknown).
  solve_code abort_code = solve_code::ok;
  tree::node_id abort_node = tree::invalid_node;
};

}  // namespace vabi::core
