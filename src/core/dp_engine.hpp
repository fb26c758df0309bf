// Internal engine of the variation-aware DP (shared by the serial and the
// parallel drivers -- see statistical_dp.cpp and parallel.cpp).
//
// The per-node computation of every statistical solve lives here as
// dp_worker::solve_node: given the (already solved) candidate lists of a
// node's children it produces the node's own pruned candidate list. A sealed
// list is the subtree as seen from above its parent wire: the wire step
// (eqs. 33-34) and its prune run at the end of the child's own solve, so a
// parent only merges (eqs. 37-38), buffers and prunes. The serial driver
// (run_serial) calls it in postorder on one thread; the parallel driver
// schedules one task per node on a work-stealing pool, which is sound
// because a node's list depends only on its children's lists and the
// statistical merge is a pure function of the two inputs.
//
// Bit-identical parallelism rests on three invariants kept here:
//   1. child lists are merged in the tree's child order (never in completion
//      order), so the floating-point operation sequence per node is fixed;
//   2. device forms come from a device_fn whose source-id allocation order
//      matches the serial engine's lazy characterization order (see
//      device_cache in parallel.hpp);
//   3. all mutable state (decision arena, dp_stats, list recycling) is owned
//      per worker and only reduced commutatively (sums / maxes) at the join.
//
// Memory architecture (see also DESIGN.md). Every canonical form built while
// solving one node lives in the worker's scratch term_pool; candidates only
// *borrow* those terms. When the node's final list is known it is *sealed*:
// the surviving forms' terms are copied (verbatim, so bit-identity is
// trivial) into one exactly-sized term_block owned by the returned node_list,
// and the scratch pool rewinds. Child lists consumed mid-node retire their
// blocks into the worker arena, which recycles them only at end_node() --
// candidates legitimately borrow child storage until then (e.g. a lone
// child's candidates, which the node keeps as they are). Net effect:
// steady-state node solving performs no heap allocation, lists can migrate
// across threads (a block is a plain heap slab with single ownership), and
// live memory stays proportional to the surviving lists exactly as in the
// pre-arena engine.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/solution.hpp"
#include "core/solve_status.hpp"
#include "core/statistical_dp.hpp"
#include "stats/normal.hpp"
#include "testing/fault_injection.hpp"

namespace vabi::core::detail {

using cand_list = std::vector<stat_candidate>;
using dp_clock = std::chrono::steady_clock;

/// A solved node's candidate list: the candidates plus the sealed slab that
/// owns the terms of their wider-than-inline forms. Self-contained (moves,
/// including across threads, never invalidate the borrowed spans).
struct node_list {
  cand_list cands;
  stats::term_block slab;
};

/// Per-worker scratch of the buffered-candidate step (eqs. 35-36): the
/// position's gathered devices, which every selection path reads, and the
/// tables of the bounded selection (dp_worker::select_buffered). Like the
/// term pool it keeps its high-water storage across nodes and runs; the
/// source-id slots are returned to zero by touched index before each use.
struct selection_scratch {
  struct id_slot {
    double load = 0.0;      ///< sigma^2 * L_k coefficient, candidate in flight
    std::uint32_t row = 0;  ///< this id's delay-table row, 0 = none
  };
  std::vector<layout::device_variation> devices;  ///< the position's, by type
  std::vector<id_slot> slots;                      ///< indexed by source id
  std::vector<stats::source_id> touched;           ///< ids holding a row
  /// Row-major [row][type]: sigma^2 * the T_b coefficient of the row's id;
  /// row 0 is all zeros.
  std::vector<double> rows;
  std::vector<double> var_delay;         ///< per type: Var(T_b)
  std::vector<std::size_t> delay_terms;  ///< per type: terms of T_b
  std::vector<double> var_rat;           ///< per candidate: Var(T_k)
  std::vector<double> var_load;          ///< per candidate: Var(L_k)
  std::vector<double> cov_rat_load;      ///< per candidate: Cov(T_k, L_k)
  std::vector<std::size_t> terms;        ///< per candidate: terms of T_k, L_k
  std::vector<double> cov_rat;   ///< [candidate][type]: Cov(T_k, T_b)
  std::vector<double> cov_load;  ///< [candidate][type]: Cov(L_k, T_b)
  std::vector<double> lo;        ///< per candidate: the type's key bounds
  std::vector<double> hi;
};

/// Per-worker memory arena of the DP: recycled candidate-list buffers, the
/// scratch term_pool all per-node form math writes into, and recycled sealed
/// slabs. Never shared across threads; blocks may *arrive* from other
/// workers' arenas (a parent consumes a child list solved elsewhere), which
/// is safe because a term_block is a plain heap slab with single ownership.
class worker_arena {
 public:
  /// Scratch storage for every form built while solving the current node.
  /// Rewound by end_node(); see linear_form's pooled operations.
  stats::term_pool& scratch() { return scratch_; }

  /// Per-worker scratch for the tiled dominance engine (gathered candidate
  /// planes + batch buffers). Like the term pool it is never shared across
  /// threads and keeps its high-water storage across nodes and runs.
  prune_scratch& pruning_scratch() { return prune_scratch_; }

  /// Per-worker scratch of the buffered-candidate step.
  selection_scratch& selection() { return selection_; }

  cand_list acquire() {
    if (free_lists_.empty()) return {};
    cand_list list = std::move(free_lists_.back());
    free_lists_.pop_back();
    list.clear();
    return list;
  }

  void release(cand_list&& list) {
    if (list.capacity() > 0 && free_lists_.size() < max_pooled) {
      free_lists_.push_back(std::move(list));
    }
  }

  /// Parks a consumed child list's slab until end_node(): candidates of the
  /// node in flight may still borrow its terms (e.g. a lone child's
  /// candidates, which the node keeps as they are).
  void retire_block(stats::term_block&& block) {
    if (!block.empty()) retired_.push_back(std::move(block));
  }

  /// Seals `working` into a self-contained node_list: every form still
  /// borrowing scratch or a child slab re-homes its terms (inline when they
  /// fit, else into one recycled block). Pure byte copies -- the forms'
  /// values are untouched. An `exact` seal (a list the slab cache will keep)
  /// takes a fresh block of exactly the sealed size instead: a recycled
  /// block may be larger, and the cache would hold on to the slack.
  node_list seal(cand_list&& working, bool exact) {
    std::size_t total = 0;
    for (const auto& c : working) {
      if (!c.load.owns_terms() &&
          c.load.num_terms() > stats::linear_form::inline_capacity) {
        total += c.load.num_terms();
      }
      if (!c.rat.owns_terms() &&
          c.rat.num_terms() > stats::linear_form::inline_capacity) {
        total += c.rat.num_terms();
      }
    }
    node_list out;
    stats::lf_term* cursor = nullptr;
    if (total != 0) {
      if (!exact && !free_blocks_.empty()) {
        out.slab = std::move(free_blocks_.back());
        free_blocks_.pop_back();
      }
      cursor = out.slab.ensure(total, &block_allocs_);
    }
    for (auto& c : working) {
      cursor += c.load.relocate_terms(cursor);
      cursor += c.rat.relocate_terms(cursor);
    }
    out.cands = std::move(working);
    return out;
  }

  /// Ends the current node's storage epoch: rewinds the scratch pool and
  /// makes the slabs retired during the node reusable.
  void end_node() {
    scratch_.reset();
    for (auto& b : retired_) {
      if (free_blocks_.size() < max_pooled) {
        free_blocks_.push_back(std::move(b));
      }
    }
    retired_.clear();
  }

  /// Term-storage heap allocations made through this arena (scratch chunk
  /// growth + sealed-slab growth).
  std::size_t allocations() const {
    return scratch_.allocations() + block_allocs_;
  }

  /// Bytes of term storage this arena currently holds (scratch chunks plus
  /// recycled and parked sealed slabs). What stat_options::max_arena_bytes
  /// caps; sealed slabs that migrated out with their node_list are the
  /// consumer's, not the arena's.
  std::size_t term_bytes() const {
    std::size_t terms = scratch_.capacity();
    for (const auto& b : free_blocks_) terms += b.capacity();
    for (const auto& b : retired_) terms += b.capacity();
    return terms * sizeof(stats::lf_term);
  }

  /// Prepares the arena for a new run while keeping all recycled storage --
  /// this is what makes batch_solver's per-thread reuse across nets free.
  void begin_run() {
    end_node();
    scratch_.reset_statistics();
    block_allocs_ = 0;
  }

 private:
  static constexpr std::size_t max_pooled = 64;
  stats::term_pool scratch_;
  prune_scratch prune_scratch_;
  selection_scratch selection_;
  std::vector<cand_list> free_lists_;
  std::vector<stats::term_block> free_blocks_;
  std::vector<stats::term_block> retired_;
  std::size_t block_allocs_ = 0;
};

/// Supplies the characterized device forms for buffering at (node, type).
/// The one-shot serial engine characterizes lazily through the process model;
/// the parallel engine reads a pre-built device_cache and sessions their
/// device memo. Either way the function is called exactly once per (node,
/// type) evaluated.
using device_fn =
    std::function<layout::device_variation(tree::node_id, timing::buffer_index)>;

/// Characterizes library type `type` at node `id` through `model` -- the one
/// place a buffer instance gets its variation forms, in whatever order the
/// caller walks (serial lazy, device_cache and the session memo all follow
/// postorder, types ascending, so source ids match), and where the
/// device_nan fault point poisons them.
layout::device_variation characterize_device(layout::process_model& model,
                                             const tree::routing_tree& tree,
                                             tree::node_id id,
                                             const timing::buffer_type& type);

/// The drivers' Li-Shi gate (stat_options::li_shi): the frontier serves only
/// the total-order regime -- the 2P mean rule with mean selection, where
/// Lemma 4 makes mean order the P-order -- and only when the mode asks for it.
inline bool li_shi_engaged(const stat_options& options) {
  return li_shi_enabled(options.li_shi, options.library.size()) &&
         options.rule == pruning_kind::two_param &&
         options.two_param.is_mean_rule() &&
         options.selection_percentile == 0.5;
}

/// Li-Shi per-type frontier state of one worker (li_shi.hpp). The frontier
/// itself is built once per run by the driver and is read-only (shareable
/// across a parallel run's workers); the scratch vectors are per worker.
/// A null frontier -- or a rule whose order is not total -- keeps the
/// worker on the classic scan path.
struct li_shi_state {
  const buffer_frontier* frontier = nullptr;
  std::vector<std::size_t> best;  ///< per-type argmax output
  std::vector<double> loads;   ///< packed mean loads (D&C eval keys)
  std::vector<double> rats;    ///< packed mean RATs
  std::vector<double> delays;  ///< packed mean device delays per type
  std::vector<double> res;     ///< packed library resistances (per run)
};

/// Scalar figure of merit the active rule uses to pick the single buffered
/// candidate per type (all buffered versions share the load form C_b, so
/// only the RAT distinguishes them; keeping one per type is the classic van
/// Ginneken convention and what keeps every rule's lists from multiplying at
/// each position): the selection percentile of the buffered RAT, or at 0.5
/// the rule's own key -- the mean for 2P (Lemma 4: P-order is mean order),
/// the conservative corner pi_{beta_l} for 4P (eq. 3), pi_{1-q} for the
/// corner rule. Resolved once per worker: z is one normal_quantile call, and
/// every key goes through normal_percentile's `sigma == 0 ? mean : mean +
/// sigma * z`, so keys are the bits stats::percentile gives and the bounds
/// of dp_worker::select_buffered evaluate the same expression.
struct selection_key {
  bool mean_only = false;  ///< the 2P rule at 0.5: the key is the mean
  double z = 0.0;          ///< standard-normal quantile of the key

  static selection_key for_run(const stat_options& options) {
    double p = options.selection_percentile;
    if (p == 0.5) {
      switch (options.rule) {
        case pruning_kind::two_param:
          return {true, 0.0};
        case pruning_kind::four_param:
          p = options.four_param.beta_lo;
          break;
        case pruning_kind::corner:
          p = 1.0 - options.corner.percentile;
          break;
      }
    }
    return {false, stats::normal_quantile(p)};
  }

  /// The percentile key of a RAT with this mean and standard deviation.
  double at(double mean, double sigma) const {
    return sigma == 0.0 ? mean : mean + sigma * z;
  }

  double of(const stats::linear_form& rat,
            const stats::variation_space& space) const {
    return mean_only ? rat.mean() : at(rat.mean(), rat.stddev(space));
  }
};

/// Resource-cap state shared by all workers of one parallel run. Counters are
/// published at node granularity, so cap enforcement is as prompt as the
/// serial engine's up to one in-flight node per worker. Which node trips a
/// cap first is scheduling-dependent; aborted runs carry no design, so this
/// does not weaken the bit-identical guarantee for completed runs.
struct shared_budget {
  dp_clock::time_point t_start;
  std::atomic<std::size_t> candidates{0};
  std::atomic<bool> aborted{false};
};

/// Unified budget enforcement of one DP worker: the candidate caps, the
/// wall-clock deadline, the arena-bytes cap, cooperative cancellation, and
/// the cross-worker abort broadcast of a parallel run. Every trip lands in
/// dp_stats as the (aborted, abort_code, abort_node, abort_reason) tuple the
/// typed entry points translate into a solve_error. List-size/candidate caps
/// are checked after every merge step (over_budget); the deadline,
/// cancellation and memory checks happen at node boundaries (begin_node) --
/// monotonic clock, one check per node.
struct resource_guard {
  const stat_options& options;
  dp_stats& dps;
  /// Per-worker count of candidates already flushed to `shared`. Lives in
  /// the worker's persistent state (a dp_worker is rebuilt per node task, the
  /// flush watermark must survive across tasks).
  std::size_t& published;
  shared_budget* shared = nullptr;       ///< non-null in parallel mode
  const cancel_token* cancel = nullptr;  ///< optional caller-owned stop flag
  dp_clock::time_point t_start{};        ///< serial wall-cap reference
  tree::node_id current_node = tree::invalid_node;

  void publish() {
    if (shared == nullptr) return;
    shared->candidates.fetch_add(dps.candidates_created - published,
                                 std::memory_order_relaxed);
    published = dps.candidates_created;
    if (dps.aborted) shared->aborted.store(true, std::memory_order_release);
  }

  /// Records a typed abort at the current node and broadcasts it. Always
  /// returns true so call sites read `return trip(...)`.
  bool trip(solve_code code, const char* reason) {
    dps.aborted = true;
    dps.abort_code = code;
    dps.abort_node = current_node;
    dps.abort_reason = reason;
    publish();
    return true;
  }

  /// Node-boundary checks: sibling abort, cancellation, deadline, arena
  /// bytes (and their injected equivalents). True => skip this node.
  bool begin_node(tree::node_id id, const worker_arena& arena) {
    current_node = id;
    if (dps.aborted) return true;
    if (shared != nullptr && shared->aborted.load(std::memory_order_acquire)) {
      dps.aborted = true;
      dps.abort_code = solve_code::cancelled;
      dps.abort_node = id;
      dps.abort_reason = dp_stats::observed_abort;
      return true;
    }
    if (cancel != nullptr && cancel->stop_requested()) {
      return trip(solve_code::cancelled, "cancelled by caller");
    }
    if (testing::should_fire(testing::fault_point::cancel_wave, id)) {
      return trip(solve_code::cancelled, "injected mid-wave cancellation");
    }
    if (testing::should_fire(testing::fault_point::deadline_at_node, id)) {
      return trip(solve_code::deadline_exceeded, "injected deadline expiry");
    }
    if (options.max_wall_seconds > 0.0 && wall_expired()) {
      return trip(solve_code::deadline_exceeded,
                  "wall clock exceeded max_wall_seconds");
    }
    if (options.max_arena_bytes != 0 &&
        arena.term_bytes() > options.max_arena_bytes) {
      return trip(solve_code::memory_cap,
                  "worker arena exceeded max_arena_bytes");
    }
    return false;
  }

  bool over_budget(std::size_t list_size) {
    if (shared != nullptr &&
        shared->aborted.load(std::memory_order_acquire) && !dps.aborted) {
      dps.aborted = true;
      dps.abort_code = solve_code::cancelled;
      dps.abort_node = current_node;
      dps.abort_reason = dp_stats::observed_abort;
      return true;
    }
    if (options.max_list_size != 0 && list_size > options.max_list_size) {
      return trip(solve_code::candidate_cap,
                  "candidate list exceeded max_list_size");
    }
    if (options.max_candidates != 0) {
      std::size_t total = dps.candidates_created;
      if (shared != nullptr) {
        // Candidates published by every worker, minus our own published share
        // (already inside dps.candidates_created).
        total += shared->candidates.load(std::memory_order_relaxed) - published;
      }
      if (total > options.max_candidates) {
        return trip(solve_code::candidate_cap,
                    "total candidates exceeded max_candidates");
      }
    }
    if (options.max_wall_seconds > 0.0 && wall_expired()) {
      return trip(solve_code::deadline_exceeded,
                  "wall clock exceeded max_wall_seconds");
    }
    return false;
  }

 private:
  bool wall_expired() const {
    const auto start = shared != nullptr ? shared->t_start : t_start;
    const double elapsed =
        std::chrono::duration<double>(dp_clock::now() - start).count();
    return elapsed > options.max_wall_seconds;
  }
};

/// One worker of the DP: the key operations (wire propagation, buffering,
/// statistical merge), pruning dispatch, and the per-node solve. Holds only
/// references; cheap to construct per task.
struct dp_worker {
  const tree::routing_tree& tree;
  const stats::variation_space& space;
  const stat_options& options;
  const timing::wire_menu& menu;
  device_fn devices;
  decision_arena& arena;
  worker_arena& pool;
  dp_stats& dps;
  resource_guard guard;
  /// Non-null only when li_shi_engaged(options) held for this run (so the
  /// rule is the 2P mean rule with mean selection).
  li_shi_state* li_shi = nullptr;
  /// The run's buffered-candidate selection key.
  selection_key select = selection_key::for_run(options);

  bool over_budget(std::size_t list_size) { return guard.over_budget(list_size); }

  // -- key operations -------------------------------------------------------

  /// eqs. 33-34: wires are deterministic, so the nominal shifts and the RAT
  /// coefficients pick up -r*l*alpha_i via the load form. With a multi-width
  /// menu each candidate fans out into one variant per width (recorded as a
  /// wire decision); the caller's prune collapses the dominated ones.
  void propagate_wire(cand_list& list, tree::node_id child, double um) {
    if (um == 0.0) return;
    if (!menu.sizing_enabled()) {
      const double rl = menu[0].res_per_um * um;
      const double cl = menu[0].cap_per_um * um;
      const double half_rcl2 = 0.5 * rl * cl;
      for (auto& c : list) {
        // -r*l*L_n (both nominal and coefficients), fused into one merge.
        c.rat = stats::pooled_sub_scaled(c.rat, rl, c.load, pool.scratch());
        c.invalidate_rat_moments();
        // Nominal-only shifts: Var(rat) changed above, Var(load) survives.
        c.rat -= half_rcl2;     // -r*c*l^2/2
        c.load += cl;
      }
      return;
    }
    cand_list out = pool.acquire();
    out.reserve(list.size() * menu.size());
    for (const auto& c : list) {
      for (timing::width_index w = 0; w < menu.size(); ++w) {
        const double rl = menu[w].res_per_um * um;
        const double cl = menu[w].cap_per_um * um;
        stat_candidate v;
        v.rat = stats::pooled_sub_scaled(c.rat, rl, c.load, pool.scratch());
        v.rat -= 0.5 * rl * cl;
        v.load = c.load;
        v.load += cl;              // nominal-only: c's cached Var(load) holds
        v.var_load = c.var_load;
        v.why = arena.wire_sized(child, w, c.why);
        out.push_back(std::move(v));
        ++dps.candidates_created;
      }
    }
    pool.release(std::move(list));
    list = std::move(out);
  }

  /// eqs. 35-36 for one candidate and one characterized device. `cap` is the
  /// device's C_b form already pinned into the current scratch epoch (see
  /// add_buffered_candidates), shared by every candidate buffered here.
  stat_candidate buffered(const stat_candidate& c, tree::node_id node,
                          timing::buffer_index b,
                          const layout::device_variation& dv,
                          const stats::linear_form& cap) {
    stat_candidate out;
    out.rat = stats::pooled_sub(c.rat, dv.delay, pool.scratch());  // -T_b
    out.rat = stats::pooled_sub_scaled(out.rat, options.library[b].res_ohm,
                                       c.load, pool.scratch());  // -R_b * L_n
    out.load = cap;                                              // C_b
    out.why = arena.buffered(node, b, c.why);
    ++dps.candidates_created;
    return out;
  }

  /// eqs. 37-38 for one pair.
  stat_candidate merged_pair(const stat_candidate& a, const stat_candidate& b) {
    stat_candidate out;
    out.load = stats::pooled_add(a.load, b.load, pool.scratch());
    out.rat = stats::statistical_min(a.rat, b.rat, space, pool.scratch(),
                                     options.term_prune_rel_eps);
    out.why = arena.merged(a.why, b.why);
    ++dps.candidates_created;
    ++dps.merge_pairs;
    return out;
  }

  // -- pruning / sorting dispatch -------------------------------------------

  void prune(cand_list& list) {
    switch (options.rule) {
      case pruning_kind::two_param:
        prune_two_param(options.two_param, list, space, dps,
                        &pool.pruning_scratch());
        break;
      case pruning_kind::four_param:
        // Bound the quadratic prune so resource caps can fire between nodes
        // instead of being starved by one multi-minute pairwise pass.
        prune_four_param(options.four_param, list, space, dps,
                         options.max_list_size == 0
                             ? 0
                             : 50 * options.max_list_size);
        break;
      case pruning_kind::corner:
        prune_corner(options.corner, list, space, dps);
        break;
    }
  }

  bool ordered_rule() const { return options.rule != pruning_kind::four_param; }

  /// Linear merge on the rule's scalar RAT key (mean for 2P; the corner
  /// projection would require re-deriving percentiles per pair, and the mean
  /// is the consistent total-order key for both ordered rules).
  cand_list merge_ordered(const cand_list& a, const cand_list& b) {
    cand_list out = pool.acquire();
    out.reserve(a.size() + b.size());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
      out.push_back(merged_pair(a[i], b[j]));
      const double ta = a[i].rat.mean();
      const double tb = b[j].rat.mean();
      if (ta < tb) {
        ++i;
      } else if (ta > tb) {
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
    return out;
  }

  /// Full cross product -- the price of a partial order (Section 2.2).
  cand_list merge_cross(const cand_list& a, const cand_list& b) {
    cand_list out = pool.acquire();
    // Reserving n*m up front can be gigabytes on exploded lists; grow
    // geometrically instead and let the caps stop the blow-up.
    out.reserve(std::min(a.size() * b.size(),
                         a.size() + b.size() + 1024));
    for (const auto& ca : a) {
      for (const auto& cb : b) {
        out.push_back(merged_pair(ca, cb));
      }
      if (over_budget(out.size())) break;
    }
    return out;
  }

  cand_list merge_lists(const cand_list& a, const cand_list& b) {
    return ordered_rule() ? merge_ordered(a, b) : merge_cross(a, b);
  }

  // -- per-node processing --------------------------------------------------

  /// Gathers the position's device forms, types ascending, into the worker's
  /// scratch: device_fn runs exactly once per (node, type), in the
  /// characterization order that allocates source ids, whichever selection
  /// path then reads them.
  std::span<const layout::device_variation> gather_devices(tree::node_id id) {
    auto& devs = pool.selection().devices;
    devs.resize(options.library.size());
    for (timing::buffer_index b = 0; b < options.library.size(); ++b) {
      devs[b] = devices(id, b);
    }
    return devs;
  }

  /// Returns true when the Li-Shi frontier path ran (the caller then prunes
  /// with the presorted variant instead of the full re-sort).
  bool add_buffered_candidates(cand_list& list, tree::node_id id) {
    const std::size_t base = list.size();
    if (base == 0) return false;
    const auto devs = gather_devices(id);
    if (li_shi != nullptr) {
      // Li-Shi frontier (li_shi.hpp): one monotone divide-and-conquer pass
      // over the mean keys replaces the per-type scans. The winners are
      // located without touching the pools, then the buffered candidates are
      // emitted b-ascending -- the scan path's exact pooled-op sequence per
      // type (cap copy, RAT subs) with the identical selections.
      li_shi->delays.clear();
      for (const auto& dv : devs) li_shi->delays.push_back(dv.delay.mean());
      // Pack the per-candidate mean keys contiguously: the divide-and-conquer
      // revisits rows many times and the packed reads keep it out of the
      // canonical forms entirely.
      li_shi->loads.resize(base);
      li_shi->rats.resize(base);
      for (std::size_t k = 0; k < base; ++k) {
        li_shi->loads[k] = list[k].load.mean();
        li_shi->rats[k] = list[k].rat.mean();
      }
      if (li_shi->res.size() != options.library.size()) {
        li_shi->res.clear();
        for (timing::buffer_index b = 0; b < options.library.size(); ++b) {
          li_shi->res.push_back(options.library[b].res_ohm);
        }
      }
      li_shi->frontier->best_per_type(base, li_shi->loads.data(),
                                      li_shi->rats.data(),
                                      li_shi->delays.data(),
                                      li_shi->res.data(), li_shi->best);
      for (timing::buffer_index b = 0; b < options.library.size(); ++b) {
        // npos (a NaN-poisoned device makes every key NaN) falls back to
        // candidate 0 -- the scan path's best_k = 0 start -- so the poison
        // survives to check_finite instead of an out-of-range read.
        const std::size_t k =
            li_shi->best[b] == li_shi_npos ? 0 : li_shi->best[b];
        const stats::linear_form cap =
            stats::pooled_copy(devs[b].cap, pool.scratch());
        list.push_back(buffered(list[k], id, b, devs[b], cap));
      }
      ++dps.li_shi_nodes;
      return true;
    }
    // Every rule but the 2P mean rule takes the bounded selection.
    if (!(options.rule == pruning_kind::two_param &&
          options.two_param.is_mean_rule() &&
          options.selection_percentile == 0.5)) {
      select_buffered(list, id, devs);
      return false;
    }
    for (timing::buffer_index b = 0; b < options.library.size(); ++b) {
      const auto& type = options.library[b];
      // One physical device per (node, type): every candidate buffered here
      // shares the same characterized forms (and random source).
      const layout::device_variation& dv = devs[b];
      // Pin C_b into the scratch epoch once; every buffered candidate's load
      // then borrows it instead of copying the device form per candidate.
      const stats::linear_form cap = stats::pooled_copy(dv.cap, pool.scratch());
      // Mean-rule fast path: the selection key is linear in means, so the
      // winner is found without materializing any candidate form.
      // best_k starts at 0 (not sentinel): with finite means some k always
      // beats -inf so selection is unchanged, and a NaN-poisoned device
      // (all comparisons false) yields candidate 0 -- which then carries
      // the NaN forward for check_finite to catch -- instead of an
      // out-of-range read.
      double best_mean = -std::numeric_limits<double>::infinity();
      std::size_t best_k = 0;
      for (std::size_t k = 0; k < base; ++k) {
        const double mean = list[k].rat.mean() - dv.delay.mean() -
                            type.res_ohm * list[k].load.mean();
        if (mean > best_mean) {
          best_mean = mean;
          best_k = k;
        }
      }
      list.push_back(buffered(list[best_k], id, b, dv, cap));
    }
    return false;
  }

  /// The general rules' choice of one buffered candidate per type: the
  /// leftmost candidate with the largest selection key, i.e. the scan
  /// `!best || key > best_key` over every candidate in index order. Only the
  /// candidates whose key bound reaches the best lower bound are built
  /// (DESIGN.md, "Bounded buffered-candidate selection"): a lone survivor is
  /// built without its key, a one-candidate list scores nothing, and a type
  /// with a non-finite bound keeps every candidate, which is the full scan.
  /// candidates_created still counts every scored (candidate, type) pair.
  void select_buffered(cand_list& list, tree::node_id id,
                       std::span<const layout::device_variation> devs) {
    const std::size_t base = list.size();
    const bool scored = base > 1;
    // Moment bounds only where their rounding slack is proven.
    const bool bounded =
        scored && (select.mean_only || space.moderate_variances());
    if (bounded && !select.mean_only) gather_moments(list, base, devs);
    const selection_scratch& s = pool.selection();
    for (timing::buffer_index b = 0; b < devs.size(); ++b) {
      const stats::linear_form cap =
          stats::pooled_copy(devs[b].cap, pool.scratch());
      const bool every =
          scored && !(bounded && key_bounds(list, base, b, devs[b]));
      double best_lo = -std::numeric_limits<double>::infinity();
      if (scored && !every) {
        for (std::size_t k = 0; k < base; ++k) {
          best_lo = std::max(best_lo, s.lo[k]);
        }
      }
      const auto survives = [&](std::size_t k) {
        return !scored || every || s.hi[k] >= best_lo;
      };
      std::size_t survivors = 0;
      for (std::size_t k = 0; k < base; ++k) survivors += survives(k) ? 1 : 0;

      std::optional<stat_candidate> best;
      double best_key = -std::numeric_limits<double>::infinity();
      std::size_t built = 0;
      for (std::size_t k = 0; k < base; ++k) {
        if (!survives(k)) continue;
        stat_candidate cand = buffered(list[k], id, b, devs[b], cap);
        ++built;
        if (survivors == 1) {
          best = std::move(cand);
          break;
        }
        const double key = select.of(cand.rat, space);
        // `!best` keeps the first candidate even when its key is NaN (all
        // comparisons false); finite keys always beat -inf, so selection is
        // unchanged and poisoned forms survive to check_finite.
        if (!best.has_value() || key > best_key) {
          best_key = key;
          best = std::move(cand);
        }
      }
      list.push_back(std::move(*best));
      dps.candidates_created += base - built;
      if (scored) {
        ++(survivors == 1 ? dps.selection_bounded : dps.selection_exact);
      }
    }
  }

  /// The moments every type's key bound reads: one pass over the L_k and
  /// one over the T_k of each of the first `base` candidates give Var(T_k),
  /// Var(L_k) and Cov(T_k, L_k), and -- through the position's table of
  /// sigma^2-scaled delay coefficients, whose rows are looked up by source
  /// id -- Cov(T_k, T_b) and Cov(L_k, T_b) for all types at once.
  void gather_moments(const cand_list& list, std::size_t base,
                      std::span<const layout::device_variation> devs) {
    selection_scratch& s = pool.selection();
    const std::size_t types = devs.size();
    const double* s2 = space.sigma2_data();
    // The previous position's rows are released here rather than when it
    // ends: a bad_alloc out of its builds then cannot leave stale rows for
    // this arena's next solve.
    for (const stats::source_id id : s.touched) s.slots[id].row = 0;
    s.touched.clear();
    if (s.slots.size() < space.size()) s.slots.resize(space.size());

    // Row 0 is all zeros and stands for every id without a row. Rows are
    // zeroed as they are claimed, so the storage is only ever grown.
    if (s.rows.size() < types) s.rows.resize(types);
    std::fill_n(s.rows.begin(), types, 0.0);
    s.var_delay.resize(types);
    s.delay_terms.resize(types);
    for (std::size_t b = 0; b < types; ++b) {
      double var = 0.0;
      for (const auto& t : devs[b].delay.terms()) {
        auto& slot = s.slots[t.id];
        if (slot.row == 0) {
          // The slot points at its row only once the row exists and
          // `touched` records the id.
          const std::size_t row = s.touched.size() + 1;
          if (s.rows.size() < (row + 1) * types) {
            s.rows.resize(std::max((row + 1) * types, 2 * s.rows.size()));
          }
          std::fill_n(&s.rows[row * types], types, 0.0);
          s.touched.push_back(t.id);
          slot.row = static_cast<std::uint32_t>(row);
        }
        s.rows[slot.row * types + b] = t.coeff * s2[t.id];
        var += t.coeff * t.coeff * s2[t.id];
      }
      s.var_delay[b] = var;
      s.delay_terms[b] = devs[b].delay.num_terms();
    }

    s.var_rat.resize(base);
    s.var_load.resize(base);
    s.cov_rat_load.resize(base);
    s.terms.resize(base);
    s.cov_rat.assign(base * types, 0.0);
    s.cov_load.assign(base * types, 0.0);
    for (std::size_t k = 0; k < base; ++k) {
      // The three-type standard library, which every statistical workload
      // uses, keeps its per-type sums in registers: 1.11x yield_batch
      // throughput over the generic loop (DESIGN.md, "Cost").
      if (types == 3) {
        candidate_moments<3>(list[k], k, types);
      } else {
        candidate_moments<0>(list[k], k, types);
      }
    }
  }

  /// gather_moments for candidate k. With W != 0 (a W-type library) the
  /// per-type covariance sums live in registers and read row 0 for ids
  /// without a row instead of branching on it; W == 0 sums any number of
  /// types in the scratch rows and skips those ids.
  template <std::size_t W>
  void candidate_moments(const stat_candidate& c, std::size_t k,
                         std::size_t types) {
    selection_scratch& s = pool.selection();
    const double* s2 = space.sigma2_data();
    const std::size_t width = W != 0 ? W : types;
    double reg_load[W != 0 ? W : 1] = {};
    double reg_rat[W != 0 ? W : 1] = {};
    double* cov_load = W != 0 ? reg_load : &s.cov_load[k * types];
    double* cov_rat = W != 0 ? reg_rat : &s.cov_rat[k * types];
    double var_load = 0.0;
    for (const auto& t : c.load.terms()) {
      auto& slot = s.slots[t.id];
      slot.load = t.coeff * s2[t.id];
      var_load += t.coeff * slot.load;
      if (W != 0 || slot.row != 0) {
        const double* row = &s.rows[slot.row * types];
        for (std::size_t b = 0; b < width; ++b) cov_load[b] += t.coeff * row[b];
      }
    }
    double var_rat = 0.0;
    double cov_rat_load = 0.0;
    for (const auto& t : c.rat.terms()) {
      const auto& slot = s.slots[t.id];
      var_rat += t.coeff * (t.coeff * s2[t.id]);
      cov_rat_load += t.coeff * slot.load;
      if (W != 0 || slot.row != 0) {
        const double* row = &s.rows[slot.row * types];
        for (std::size_t b = 0; b < width; ++b) cov_rat[b] += t.coeff * row[b];
      }
    }
    for (const auto& t : c.load.terms()) s.slots[t.id].load = 0.0;
    if constexpr (W != 0) {
      std::copy_n(reg_load, W, &s.cov_load[k * types]);
      std::copy_n(reg_rat, W, &s.cov_rat[k * types]);
    }
    s.var_rat[k] = var_rat;
    s.var_load[k] = var_load;
    s.cov_rat_load[k] = cov_rat_load;
    s.terms[k] = c.rat.num_terms() + c.load.num_terms();
  }

  /// Fills [lo, hi] around the exact key for type b of each of the first
  /// `base` candidates -- the key select.of would read off the RAT
  /// buffered() builds. The mean is that RAT's nominal bit for bit; the
  /// variance comes from the moments with a rounding slack (DESIGN.md).
  /// Returns false when a bound is non-finite or the variances leave the
  /// range the slack is proven for.
  bool key_bounds(const cand_list& list, std::size_t base, std::size_t b,
                  const layout::device_variation& dv) {
    selection_scratch& s = pool.selection();
    const std::size_t types = options.library.size();
    const double res = options.library[b].res_ohm;
    const double res2 = res * res;
    const double delay_mean = dv.delay.mean();
    s.lo.resize(base);
    s.hi.resize(base);
    for (std::size_t k = 0; k < base; ++k) {
      // pooled_sub's nominal, then pooled_sub_scaled's.
      const double mean =
          (list[k].rat.mean() - delay_mean) - res * list[k].load.mean();
      if (select.mean_only) {
        s.lo[k] = mean;
        s.hi[k] = mean;
      } else {
        const double sum =
            (s.var_rat[k] + s.var_delay[b]) + res2 * s.var_load[k];
        const double var = ((sum - 2.0 * s.cov_rat[k * types + b]) -
                            2.0 * res * s.cov_rat_load[k]) +
                           2.0 * res * s.cov_load[k * types + b];
        if (!(sum <= 0x1p900)) return false;
        const double terms =
            static_cast<double>(s.terms[k] + s.delay_terms[b]);
        const double slack = 8.0 * (terms + 16.0) * 0x1p-53 * (sum + 0x1p-947);
        const double at_lo =
            select.at(mean, std::sqrt(std::max(var - slack, 0.0)));
        const double at_hi = select.at(mean, std::sqrt(var + slack));
        s.lo[k] = select.z < 0.0 ? at_hi : at_lo;
        s.hi[k] = select.z < 0.0 ? at_lo : at_hi;
      }
      if (!std::isfinite(s.lo[k]) || !std::isfinite(s.hi[k])) return false;
    }
    return true;
  }

  /// Computes the candidate list of `id` from its children's lists (which are
  /// consumed), as seen from above its parent wire: merged, buffered, pruned,
  /// then carried through the wire and pruned again (the root's has no
  /// wire). On a resource-cap abort dps.aborted is set and the returned
  /// list is meaningless. Wraps one scratch epoch: all form math hits the
  /// worker's scratch pool, the surviving list is sealed (`exact`: see
  /// worker_arena::seal), the pool rewinds.
  node_list solve_node(tree::node_id id, std::span<node_list> lists,
                       bool exact) {
    if (guard.begin_node(id, pool)) return {};
    const std::size_t alloc0 =
        pool.allocations() + stats::term_heap_allocations();
    const std::size_t terms0 = stats::pooled_terms_merged();
    cand_list here = pool.acquire();
    solve_node_impl(id, lists, here);
    if (!dps.aborted && options.check_nonfinite) check_finite(here);
    node_list out;
    if (!dps.aborted) {
      out = pool.seal(std::move(here), exact);
    } else {
      // Aborted lists are meaningless; drop the borrowed forms before the
      // epoch ends and recycle the buffer.
      here.clear();
      pool.release(std::move(here));
    }
    pool.end_node();
    dps.allocations +=
        pool.allocations() + stats::term_heap_allocations() - alloc0;
    dps.peak_terms = std::max(dps.peak_terms, pool.scratch().peak_terms());
    dps.terms_merged += stats::pooled_terms_merged() - terms0;
    return out;
  }

  void solve_node_impl(tree::node_id id, std::span<node_list> lists,
                       cand_list& here) {
    const auto& n = tree.node(id);
    if (n.is_sink()) {
      here.push_back({stats::linear_form{n.sink_cap_pf},
                      stats::linear_form{n.sink_rat_ps}, arena.leaf()});
      ++dps.candidates_created;
    } else {
      for (tree::node_id child : n.children) {
        // Already above the child's wire (the child's edge step): merge only.
        cand_list up = std::move(lists[child].cands);
        // The child's slab must outlive this node: `up`'s forms (and copies
        // of them) borrow it until the seal. A session view has none -- its
        // slab stays with the cache entry.
        pool.retire_block(std::move(lists[child].slab));
        lists[child] = node_list{};
        if (here.empty()) {
          pool.release(std::move(here));
          here = std::move(up);
        } else {
          cand_list merged = merge_lists(here, up);
          pool.release(std::move(here));
          pool.release(std::move(up));
          here = std::move(merged);
          // Caps must fire *before* the (possibly quadratic) prune touches
          // an exploded list -- this is what turns the 4P blow-up into the
          // paper's clean "exceeded memory/time limit" failure.
          if (over_budget(here.size())) break;
          prune(here);
        }
        if (over_budget(here.size())) break;
      }
    }
    if (dps.aborted) return;
    if (!n.is_source()) {
      const std::size_t base = here.size();
      const bool frontier = add_buffered_candidates(here, id);
      if (over_budget(here.size())) return;
      if (frontier) {
        // Li-Shi path: the base is already pruned (sorted by mean load);
        // place only the appended buffered candidates instead of re-sorting.
        prune_two_param_mean_presorted(here, base, dps);
      } else {
        prune(here);
      }
    }
    dps.peak_list_size = std::max(dps.peak_list_size, here.size());
    if (!over_budget(here.size()) && !n.is_source()) {
      // The edge step (eqs. 33-34): carry the list up through the wire to
      // the parent and prune it there, so the sealed list is what the parent
      // merges. The source has no edge.
      propagate_wire(here, id, n.parent_wire_um);
      if (li_shi != nullptr && !menu.sizing_enabled()) {
        // Li-Shi path, single-width wires: the propagation shifts every
        // mean load by the same wire cap, so the pruned (sorted) list is
        // still sorted -- only the window-1 sweep is needed.
        prune_two_param_mean_sorted(here, dps);
      } else {
        prune(here);
      }
    }
    guard.publish();
  }

  /// Debug-mode guardrail (stat_options::check_nonfinite): scan the node's
  /// final candidates for NaN/inf before sealing. Read-only; a hit trips the
  /// guard with solve_code::nonfinite_value instead of letting the poison
  /// propagate silently to the root selection.
  void check_finite(const cand_list& list) {
    for (const auto& c : list) {
      if (!c.load.is_finite() || !c.rat.is_finite()) {
        guard.trip(solve_code::nonfinite_value,
                   "non-finite canonical form at seal point");
        return;
      }
    }
  }

  /// Picks the winning root candidate and backtracks it into a design,
  /// through `memo` when given (a warm session solve: only the decisions
  /// that differ from the memo's last design are walked, and the memo then
  /// holds this one). Requires a completed (non-aborted) run; throws on an
  /// empty root list. When no key is orderable (NaN or -inf everywhere, e.g.
  /// a poisoned device with check_nonfinite off) it trips nonfinite_value at
  /// the root and returns an empty result, leaving `memo` as it was.
  stat_result select_root(const node_list& root, design_memo* memo = nullptr) {
    const cand_list& root_list = root.cands;
    if (root_list.empty()) {
      throw std::logic_error("empty root list");
    }
    stat_result result;
    const stat_candidate* best = nullptr;
    stats::linear_form best_rat;
    double best_key = -std::numeric_limits<double>::infinity();
    for (const auto& c : root_list) {
      stats::linear_form root_rat = c.rat;
      root_rat -= options.driver_res_ohm * c.load;
      const double key =
          stats::percentile(root_rat, space, options.root_percentile);
      if (key > best_key) {
        best_key = key;
        best = &c;
        best_rat = std::move(root_rat);
      }
    }
    if (best == nullptr) {
      guard.current_node = tree.root();
      guard.trip(solve_code::nonfinite_value,
                 "no root candidate has an orderable selection key");
      return result;
    }
    // The winner may still borrow the root list's slab (e.g. when the driver
    // load is deterministic); the caller's result must outlive it.
    best_rat.own_terms();
    result.root_rat = std::move(best_rat);
    if (memo != nullptr) {
      const design_choice& design =
          memo->extract(best->why, tree.num_nodes(), arena);
      result.assignment = design.buffers;
      result.wires = design.wires;
    } else {
      design_choice design = extract_design(best->why, tree.num_nodes());
      result.assignment = std::move(design.buffers);
      result.wires = std::move(design.wires);
    }
    result.num_buffers = result.assignment.count();
    return result;
  }
};

struct session_state;

/// Session (ECO) mode of a run_serial run: only the nodes in `order`
/// (postorder) are solved -- the rest were adopted from the slab cache,
/// their lists pre-filled with views borrowing the entries' slabs -- every
/// solved node counts as a cache miss, and with `store` (a warm solve) its
/// sealed list moves into the cache, the parent consumes a view of it, and
/// the winner's design goes through the session's design memo.
struct session_pass {
  session_state& state;
  const std::vector<tree::node_id>& order;
  bool store = false;
};

/// The serial postorder driver of every one-shot serial and every session
/// solve: one dp_worker over `arena` / `mem` solves the nodes into `lists`,
/// then picks the root. `t_start` anchors max_wall_seconds and
/// wall_seconds.
stat_result run_serial(const tree::routing_tree& tree,
                       const stats::variation_space& space,
                       const stat_options& options, device_fn devices,
                       decision_arena& arena, worker_arena& mem,
                       std::vector<node_list>& lists,
                       const session_pass* session, const cancel_token* cancel,
                       dp_clock::time_point t_start);

/// Entry policy of the statistical solve_* functions: guarded_solve
/// (solve_status.hpp) over `run` with the options checked field by field,
/// then options.degrade on a cap, deadline or memory failure -- a corner-rule
/// retry on the serial engine, then (best_partial) an unbuffered evaluation.
/// Degraded retries run serially, so a fallback result is identical for any
/// thread count and never touches a session's cache.
solve_outcome<stat_result> stat_entry(const tree::routing_tree& tree,
                                      layout::process_model& model,
                                      const stat_options& options,
                                      const cancel_token* cancel,
                                      const std::function<stat_result()>& run);

}  // namespace vabi::core::detail
