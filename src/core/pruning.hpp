// Dominance (pruning) rules between candidate solutions.
//
// Deterministic van Ginneken prunes (L2, T2) when L1 <= L2 and T1 >= T2 (not
// both equal-worse). Under process variation L and T are correlated random
// variables and "dominates" must be re-defined. This module implements the
// rules compared by the paper:
//
//   - two_param_rule (2P; the contribution, Section 2.3):
//       P(L1 < L2) >= p_L  and  P(T1 > T2) >= p_T,    0.5 <= p < 1.
//     Probabilities are exact under the joint-normal canonical-form model
//     (eq. 8). At p = 0.5 the rule degenerates to comparing *means*
//     (Lemma 4), which is a total, transitive order (Lemmas 2-3, Theorem 2):
//     candidate lists can be kept sorted, merged and pruned in linear time,
//     giving the deterministic O(B N^2) overall complexity (Theorem 1).
//
//   - four_param_rule (4P; the DATE 2005 baseline [7], Section 2.2):
//       pi_{a_u}(L1) < pi_{a_l}(L2)  and  pi_{b_l}(T1) > pi_{b_u}(T2)
//     with pi_p the p-quantile (eq. 1). Only a partial order: merge is
//     O(n*m) and pruning O(N^2), with no bound on surviving candidates.
//
//   - corner_rule (1P; the simplification of [8]): projects every candidate
//     onto single conservative corner values L_hat = pi_q(L), T_hat =
//     pi_{1-q}(T) and applies the deterministic rule to the projections.
//     Total order (hence fast) but ignores correlation between solutions.
//
// Tie semantics: identical canonical forms satisfy either side of a
// condition. This mirrors the deterministic "not both equal" convention and
// matters in practice: all buffered candidates generated at one node with one
// buffer type share the *same* load form (same physical device), and without
// the tie rule no statistical rule could ever prune among them.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/solution.hpp"
#include "stats/candidate_plane.hpp"
#include "stats/variation_space.hpp"

namespace vabi::core {

// ---------------------------------------------------------------------------
// Sweep-implementation policy (pairwise vs tiled).
// ---------------------------------------------------------------------------
//
// The 2P confidence-rule prune (p > 0.5) has two implementations producing
// bit-identical surviving lists:
//
//   - pairwise: the seed's per-pair sweep; every dominance test runs its own
//     sparse one-vs-one moment reductions on demand.
//   - tiled: gathers the candidate list's forms once into SoA coefficient
//     planes over the source ids the list carries
//     (stats/candidate_plane.hpp), batch-fills the Var(L)/Var(T)
//     moment caches with the one-vs-many kernels, and answers each
//     candidate-vs-sweep-window tile with a batched interval prefilter plus
//     a batched sigma-of-difference pass for the undecided pairs.
//
// Selection is automatic (engage tiled when the list size and the source
// count clear the measured thresholds below) and overridable with
// VABI_FORCE_PRUNE=pairwise|tiled or set_force_prune(). The 2P mean rule
// (p = 0.5) never tiles: it compares means only and touches no second
// moments. Which implementation ran is an *organization* property -- it can
// change counters (tile_prefilter_hits vs dominance_prefilter_hits) but
// never the surviving set, its order, or any form bit.

/// -1 always pairwise, +1 always tiled, 0 adaptive (the thresholds decide).
/// Overrides VABI_FORCE_PRUNE for tests/benches.
void set_force_prune(int mode);

/// Restores the lazy VABI_FORCE_PRUNE read (tests that set the env var).
void reset_force_prune_from_env();

/// True when a statistical prune over `k` candidates and `sources` variation
/// sources resolves to the tiled sweep under the current policy.
bool use_tiled_prune(std::size_t k, std::size_t sources);

/// Per-worker scratch of the tiled dominance engine: the gathered candidate
/// planes (each with its column map) plus the batching arrays of the sweep.
/// Re-gathered on every prune call (so sealed-slab adoption or any form
/// relocation between prunes can never leave a stale plane behind); storage
/// is retained across calls, so steady state allocates nothing. Owned by the
/// DP workers (one per worker, never shared across threads); a null scratch
/// argument falls back to a thread-local instance.
struct prune_scratch {
  stats::candidate_plane load_planes;
  stats::candidate_plane rat_planes;
  std::vector<const stats::linear_form*> forms;  ///< one plane's gather input
  std::vector<const double*> rows;      ///< row-pointer batch for the kernels
  std::vector<std::size_t> row_index;   ///< list index per batched row
  std::vector<std::size_t> pair_idx;    ///< window position per batched pair
  std::vector<double> out;              ///< batched reduction results
  std::vector<double> mu_d;             ///< per-pair mean differences
  std::vector<double> sigma_x;          ///< per-pair cached stddevs
  std::vector<double> sigma_y;
  std::vector<std::uint8_t> verdict;    ///< prefilter verdicts (1/0/2)
  std::vector<std::uint8_t> cond_ok;    ///< per-pair condition results
  std::vector<std::size_t> kept_rows;   ///< plane row of each kept candidate
};

// ---------------------------------------------------------------------------
// Deterministic rule.
// ---------------------------------------------------------------------------

/// Prunes `list` to its non-dominated subset. On return the list is sorted by
/// (load asc, rat asc). Linear after the sort. `stats` accrues prune counts.
void prune_deterministic(std::vector<det_candidate>& list, dp_stats& stats);

/// prune_deterministic for a list whose first `sorted_prefix` candidates are
/// already pruned (strictly increasing loads) and whose tail is arbitrary --
/// the shape the Li-Shi buffered step produces (sorted base + b appended
/// buffered candidates). Sorts only the tail, then one fused merge + sweep
/// (shared with prune_two_param_mean_presorted): O((n - prefix) log
/// (n - prefix) + n) instead of O(n log n). Same key order and dominance
/// test as prune_deterministic, so the surviving set is identical (the
/// orders can differ only for bitwise-equal (load, rat) keys, where survival
/// is value-equivalent either way; the Li-Shi suite and DetGolden pin it).
void prune_deterministic_presorted(std::vector<det_candidate>& list,
                                   std::size_t sorted_prefix, dp_stats& stats);

/// prune_deterministic for a list that is *entirely* sorted already (strictly
/// increasing loads -- the post-prune invariant, which single-width in-place
/// wire propagation preserves: every load shifts by the same wire cap).
/// Skips the sort; only the in-place sweep runs (shared with
/// prune_two_param_mean_sorted): O(n), no allocation. Used by the Li-Shi
/// path on the per-child re-prune after wire propagation. Same tie caveat as
/// the presorted variant (a bitwise load tie manufactured by the constant
/// shift is ordered as-is rather than re-sorted by rat).
void prune_deterministic_sorted(std::vector<det_candidate>& list,
                                dp_stats& stats);

// ---------------------------------------------------------------------------
// Two-parameter rule (2P).
// ---------------------------------------------------------------------------

struct two_param_rule {
  double p_load = 0.5;  ///< \bar{p_L} of eq. (6), in [0.5, 1)
  double p_rat = 0.5;   ///< \bar{p_T} of eq. (7), in [0.5, 1)

  /// How many most-recent kept candidates a sweep compares against when
  /// p > 0.5 (where the order is no longer total). 1 reproduces the strictly
  /// linear sweep; small values >1 prune slightly more at negligible cost.
  std::size_t sweep_window = 4;

  bool is_mean_rule() const { return p_load == 0.5 && p_rat == 0.5; }
};

bool dominates(const two_param_rule& rule, const stat_candidate& a,
               const stat_candidate& b, const stats::variation_space& space);

/// Memo of sigma_of_difference results keyed by the *unordered* pair of form
/// addresses. sigma(a - b) == sigma(b - a) to the bit (IEEE negation is
/// exact and the squared differences are identical), so one entry serves the
/// symmetric a/b and b/a covariance passes a both-directions sweep would
/// otherwise compute twice. Entries are bound to form addresses: only valid
/// while the candidate list is neither reallocated nor mutated.
class sigma_diff_cache {
 public:
  /// sigma_of_difference(x, y, space), computed once per unordered pair.
  double get(const stats::linear_form& x, const stats::linear_form& y,
             const stats::variation_space& space);

  /// f.stddev(space), computed once per form (address-keyed like the pair
  /// memo, same lifetime caveat). One entry serves both directions of every
  /// pair the form appears in -- the 4P percentile projections read it.
  double get_stddev(const stats::linear_form& f,
                    const stats::variation_space& space);

 private:
  struct key {
    const void* lo;
    const void* hi;
    bool operator==(const key&) const = default;
  };
  struct key_hash {
    std::size_t operator()(const key& k) const;
  };
  std::unordered_map<key, double, key_hash> map_;
  std::unordered_map<const void*, double> stddev_;
};

/// dominates() sharing one sigma memo across both directions of a pair (and
/// across pairs) within a sweep over a stable candidate list.
bool dominates(const two_param_rule& rule, const stat_candidate& a,
               const stat_candidate& b, const stats::variation_space& space,
               sigma_diff_cache& sigmas);

/// Sorts by (mean load asc, mean rat desc) and sweeps once. Exact (keeps
/// precisely the non-dominated set) when p_load == p_rat == 0.5; for larger
/// parameters it is the paper's practical linear approximation. For p > 0.5
/// the sweep body is chosen by the pairwise/tiled policy above (same
/// survivors either way); `scratch` hosts the tiled gather (null = a
/// thread-local fallback).
void prune_two_param(const two_param_rule& rule,
                     std::vector<stat_candidate>& list,
                     const stats::variation_space& space, dp_stats& stats,
                     prune_scratch* scratch = nullptr);

/// prune_two_param for the *mean rule only*, on a list whose first
/// `sorted_prefix` candidates are already pruned (strictly increasing mean
/// loads): prune_deterministic_presorted's tail sort and fused merge + sweep,
/// with prune_two_param's key order and the mean rule's dominance test. Used
/// by the Li-Shi buffered step. Precondition: rule.is_mean_rule().
void prune_two_param_mean_presorted(std::vector<stat_candidate>& list,
                                    std::size_t sorted_prefix,
                                    dp_stats& stats);

/// The mean-rule counterpart of prune_deterministic_sorted, on the same
/// in-place sweep: the list is already sorted by (mean load asc, mean rat
/// desc) -- strictly increasing mean loads by the post-prune invariant,
/// preserved by single-width wire propagation's constant mean shift.
/// Precondition: the caller is in the 2P mean-rule regime.
void prune_two_param_mean_sorted(std::vector<stat_candidate>& list,
                                 dp_stats& stats);

// ---------------------------------------------------------------------------
// Four-parameter rule (4P) -- the DATE 2005 baseline.
// ---------------------------------------------------------------------------

struct four_param_rule {
  double alpha_lo = 0.05;  ///< \pi_{\alpha_l} percentile for the load
  double alpha_hi = 0.95;  ///< \pi_{\alpha_u}
  double beta_lo = 0.05;   ///< \pi_{\beta_l} percentile for the RAT
  double beta_hi = 0.95;   ///< \pi_{\beta_u}
};

bool dominates(const four_param_rule& rule, const stat_candidate& a,
               const stat_candidate& b, const stats::variation_space& space);

/// dominates(four_param_rule) sharing one per-form stddev memo across both
/// directions of a pair (and across pairs) within a sweep over a stable
/// candidate list -- the 4P counterpart of the cached 2P overload. Bitwise
/// identical to the uncached overload: the percentile corners expand to
/// normal_percentile(mean, stddev, p) over the exact same (mean, stddev)
/// pair stats::percentile computes.
bool dominates(const four_param_rule& rule, const stat_candidate& a,
               const stat_candidate& b, const stats::variation_space& space,
               sigma_diff_cache& sigmas);

/// Pairwise O(N^2) pruning -- the best one can do under a partial order.
/// `max_comparisons` bounds the quadratic work (0 = unlimited): when the
/// budget runs out the remaining candidates are kept unpruned (safe --
/// pruning less never loses solutions) and `stats.aborted` is left untouched
/// so the caller's resource caps decide the run's fate. The pairwise
/// policy above does not apply: the percentile corners come from the lazy
/// per-form Var caches, which measured faster than any batched gather (a 4P
/// gather has no downstream reuse), and the comparison loop is kept in list
/// order because the 4P partial order's tie behavior is order-dependent.
void prune_four_param(const four_param_rule& rule,
                      std::vector<stat_candidate>& list,
                      const stats::variation_space& space, dp_stats& stats,
                      std::size_t max_comparisons = 0);

// ---------------------------------------------------------------------------
// Corner rule (1P).
// ---------------------------------------------------------------------------

struct corner_rule {
  double percentile = 0.95;  ///< q; load corner at q, RAT corner at 1-q
};

bool dominates(const corner_rule& rule, const stat_candidate& a,
               const stat_candidate& b, const stats::variation_space& space);

/// Linear sweep on the corner projections (total order).
void prune_corner(const corner_rule& rule, std::vector<stat_candidate>& list,
                  const stats::variation_space& space, dp_stats& stats);

// ---------------------------------------------------------------------------
// Test support.
// ---------------------------------------------------------------------------

/// True if no candidate in `list` dominates another (used by property tests).
template <typename Rule>
bool is_mutually_non_dominated(const Rule& rule,
                               const std::vector<stat_candidate>& list,
                               const stats::variation_space& space) {
  for (std::size_t i = 0; i < list.size(); ++i) {
    for (std::size_t j = 0; j < list.size(); ++j) {
      if (i != j && dominates(rule, list[i], list[j], space)) return false;
    }
  }
  return true;
}

/// 2P overload: the both-directions sweep evaluates every pair (i, j) and
/// (j, i); a shared sigma memo deduplicates the symmetric covariance passes.
inline bool is_mutually_non_dominated(const two_param_rule& rule,
                                      const std::vector<stat_candidate>& list,
                                      const stats::variation_space& space) {
  sigma_diff_cache sigmas;
  for (std::size_t i = 0; i < list.size(); ++i) {
    for (std::size_t j = 0; j < list.size(); ++j) {
      if (i != j && dominates(rule, list[i], list[j], space, sigmas)) {
        return false;
      }
    }
  }
  return true;
}

/// 4P overload: the per-form stddev memo computes each candidate's
/// percentile corners once instead of 2(n-1) times.
inline bool is_mutually_non_dominated(const four_param_rule& rule,
                                      const std::vector<stat_candidate>& list,
                                      const stats::variation_space& space) {
  sigma_diff_cache sigmas;
  for (std::size_t i = 0; i < list.size(); ++i) {
    for (std::size_t j = 0; j < list.size(); ++j) {
      if (i != j && dominates(rule, list[i], list[j], space, sigmas)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace vabi::core
