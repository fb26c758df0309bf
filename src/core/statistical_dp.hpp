// Variation-aware buffer insertion (paper Sections 2.3, 4).
//
// The same bottom-up DP as van Ginneken, with candidates carried as canonical
// first-order forms (eqs. 31-32) and the three key operations replaced by
// their variation-aware versions:
//
//   add wire   (eqs. 33-34)   deterministic shift + coefficient update
//   add buffer (eqs. 35-36)   device forms from the process model
//   merge      (eqs. 37-38)   statistical min via tightness probability
//
// The pruning rule is pluggable (pruning.hpp). Under the 2P rule candidates
// are kept sorted by mean load and merged/pruned linearly -- the paper's
// linear-complexity claim (Theorem 1). Under the 4P rule merging is the full
// O(n*m) cross product and pruning pairwise O(N^2), reproducing the baseline
// [7] this paper measures against; resource caps make its blow-ups fail fast
// like the paper's 2 GB / 4 h limits instead of hanging.
//
// The engine *optimizes under* the variation classes enabled in the supplied
// process model; this realizes the paper's NOM / D2D / WID comparison
// (Section 5.3) by handing engines differently configured models.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/li_shi.hpp"
#include "core/pruning.hpp"
#include "core/solution.hpp"
#include "core/solve_status.hpp"
#include "layout/process_model.hpp"
#include "stats/linear_form.hpp"
#include "timing/buffer_library.hpp"
#include "timing/elmore.hpp"
#include "timing/wire_model.hpp"
#include "tree/routing_tree.hpp"

namespace vabi::core {

/// Which dominance rule drives pruning (and the matching merge strategy).
enum class pruning_kind : std::uint8_t {
  two_param,   ///< the paper's 2P rule: linear merge + sweep prune
  four_param,  ///< the DATE'05 baseline 4P rule: O(n*m) merge + O(N^2) prune
  corner,      ///< 1P corner projection [8]: linear, correlation-blind
};

const char* to_string(pruning_kind kind);

/// What to do when a statistical run trips a resource cap or deadline.
enum class degrade_policy : std::uint8_t {
  none,                ///< report the typed error, no fallback
  retry_deterministic, ///< retry the net once with the linear corner rule
  best_partial,        ///< retry_deterministic, then an unbuffered evaluation
                       ///< of the tree as the last resort (never fails)
};

/// Which path produced a stat_result (reported so callers can tell a clean
/// solve from a degraded one).
enum class solve_path : std::uint8_t {
  primary,             ///< the requested rule completed
  corner_fallback,     ///< degraded retry with the corner rule
  unbuffered_fallback, ///< best_partial: tree evaluated with no buffers
};

const char* to_string(solve_path path);

struct stat_options {
  timing::wire_model wire;
  timing::buffer_library library;
  double driver_res_ohm = 100.0;

  /// Wire-width menu for simultaneous buffer insertion and wire sizing (the
  /// statistical counterpart of [8]): every edge picks one multiplier
  /// (r/m, c*m). A single entry disables sizing and adds no overhead.
  std::vector<double> wire_width_multipliers = {1.0};

  pruning_kind rule = pruning_kind::two_param;
  two_param_rule two_param;
  four_param_rule four_param;
  corner_rule corner;

  /// Winning root candidate maximizes this percentile of the root RAT
  /// (0.5 = mean). 0.05 targets the paper's 95% timing yield figure of merit.
  double root_percentile = 0.05;

  /// Percentile of the post-buffer RAT used to pick the single buffered
  /// candidate per library type at each position (0.5 = mean, the classic
  /// van Ginneken choice). Setting it to the yield target (e.g. 0.05)
  /// makes the optimizer *yield-driven*: a buffer whose instance sits in a
  /// high-variation region, or whose marginal nominal gain is smaller than
  /// the sigma it adds, loses the selection. Pruning itself is still
  /// governed by `rule`, so the complexity guarantees are unchanged: one
  /// moment pass per candidate bounds its key for every type, and only the
  /// candidates that can win are built (DESIGN.md, "Bounded
  /// buffered-candidate selection").
  double selection_percentile = 0.5;

  /// Li-Shi per-type frontier for the buffered-candidate step (li_shi.hpp).
  /// Engages on the 2P mean rule with mean selection (the total-order regime
  /// where Lemma 4 makes mean order the P-order): the per-position cost
  /// drops from O(b * |list|) scalar probes to O(|list| + b log b).
  /// `automatic` turns it on for libraries of more than 2 types; selected
  /// candidates -- and results -- match the scan path either way. Other
  /// rules / selection percentiles always use the scan path.
  li_shi_mode li_shi = li_shi_mode::automatic;

  /// Relative epsilon for dropping near-zero canonical-form terms at the
  /// statistical-merge sites: after each tightness-probability blend
  /// (eq. 38), terms with |coeff| <= eps * max|coeff| are discarded. The
  /// blend multiplies every coefficient by t or (1-t) but never removes one,
  /// so without this deep trees accumulate the union of every source id ever
  /// seen -- superlinear term growth for a vanishing variance contribution
  /// (a dropped term changes sigma by at most eps * sqrt(num_terms)
  /// relative). 0 (the default) disables dropping and keeps results
  /// bit-identical to the historical engines; ~1e-9 is a safe production
  /// setting.
  double term_prune_rel_eps = 0.0;

  /// Resource caps; exceeded => result.stats.aborted (0 = unlimited).
  std::size_t max_list_size = 0;
  std::size_t max_candidates = 0;
  double max_wall_seconds = 0.0;
  /// Cap on one worker's recycled term storage (scratch pool + pooled sealed
  /// slabs), checked at node boundaries. Per *worker*, not per run: a
  /// parallel run may hold up to num_threads times this. 0 = unlimited.
  std::size_t max_arena_bytes = 0;

  /// Scan every sealed candidate list for NaN/inf (nominals and
  /// coefficients); a hit aborts with solve_code::nonfinite_value instead of
  /// silently propagating garbage to the root. Reads only -- results are
  /// bit-identical either way. On by default in debug builds.
#ifdef NDEBUG
  bool check_nonfinite = false;
#else
  bool check_nonfinite = true;
#endif

  /// Fallback behavior when a cap/deadline/memory trip aborts the run.
  degrade_policy degrade = degrade_policy::none;
};

struct stat_result {
  /// Canonical form of the winning root RAT, driver delay included.
  stats::linear_form root_rat;
  timing::buffer_assignment assignment;
  timing::wire_assignment wires;  ///< meaningful when sizing is enabled
  std::size_t num_buffers = 0;
  dp_stats stats;
  /// Which path produced this result (primary unless a degrade policy fired).
  solve_path path = solve_path::primary;

  bool ok() const { return !stats.aborted; }
};

/// True when two results are bit-identical on every field of the
/// determinism contract: root RAT form, num_buffers, path, buffer and wire
/// assignments and the result-class counters, all of which a journal keeps.
bool results_identical(const stat_result& a, const stat_result& b);

/// Bumped when a stats_json key is renamed, removed or redefined. Version 2
/// prints `root_rat_mean_ps` and `wall_seconds` with max_digits10
/// significant digits (version 1 printed 6).
inline constexpr int stats_json_version = 2;

/// One flat JSON object: `schema_version`, the caller's `context` members
/// in order (values already JSON text), `solve_path`, `num_buffers`,
/// `root_rat_mean_ps`, every stat_counters entry under its name,
/// `wall_seconds`, `aborted` and `abort_code` (a solve_code name). The two
/// doubles are printed so that they parse back to the same bits.
std::string stats_json(
    const stat_result& r,
    const std::vector<std::pair<std::string, std::string>>& context = {});

/// Runs the variation-aware DP. `model` supplies (and accumulates) the
/// variation sources: one private random source is registered per evaluated
/// (node, buffer type) device, shared by every candidate that buffers there.
///
/// Never throws for failures in the solve_code taxonomy: validates options
/// (naming the offending field) and the tree (non-finite sink loads, RATs or
/// wire lengths are nonfinite_value), classifies resource trips, honors
/// `cancel` at node boundaries, and applies options.degrade on
/// cap/deadline/memory failures (the returned result's `path` says which
/// engine produced it).
solve_outcome<stat_result> solve_statistical_insertion(
    const tree::routing_tree& tree, layout::process_model& model,
    const stat_options& options, const cancel_token* cancel = nullptr);

}  // namespace vabi::core
