#include "core/pruning.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "stats/kernels.hpp"
#include "stats/linear_form.hpp"
#include "stats/normal.hpp"

namespace vabi::core {

namespace {

// -- Pairwise/tiled sweep policy --------------------------------------------

constexpr int k_force_prune_unset = std::numeric_limits<int>::min();
std::atomic<int> g_force_prune{k_force_prune_unset};

// -1 always pairwise, +1 always tiled, 0 adaptive. First read consults
// VABI_FORCE_PRUNE; set_force_prune overrides.
int force_prune_state() {
  int mode = g_force_prune.load(std::memory_order_relaxed);
  if (mode == k_force_prune_unset) {
    mode = 0;
    if (const char* env = std::getenv("VABI_FORCE_PRUNE")) {
      if (std::strcmp(env, "tiled") == 0) mode = 1;
      if (std::strcmp(env, "pairwise") == 0) mode = -1;
    }
    g_force_prune.store(mode, std::memory_order_relaxed);
  }
  return mode;
}

/// Adaptive engagement thresholds (see DESIGN.md for the measurement). The
/// gather costs O(terms + sources + k * columns) up front, columns being the
/// source ids the list carries (candidate_plane.hpp); it pays off once the
/// batched moment fill replaces enough per-pair sparse reductions, which
/// needs both a list long enough to amortize the pass and enough sources per
/// form for the interleaved plane chains to beat the branchy sparse walks.
/// Below either threshold the pairwise sweep's lazy evaluation wins.
constexpr std::size_t k_tiled_min_list = 32;
constexpr std::size_t k_tiled_min_sources = 16;

prune_scratch& fallback_prune_scratch() {
  static thread_local prune_scratch scratch;
  return scratch;
}

/// Safety slack (in z-score units) for the interval prefilter below. The
/// exact path evaluates Phi(mu_d / sigma_d) >= p with ~1e-15 accumulated
/// rounding; the prefilter only asserts a verdict when the decision margin
/// exceeds kappa, nine orders of magnitude wider, so it can never disagree
/// with the exact pass.
constexpr double k_prefilter_slack = 1e-6;

/// The standard-normal thresholds z_p = Phi^-1(p) of a 2P rule, resolved
/// once per prune call (the mean rule compares means and needs none).
struct two_param_z {
  double load = 0.0;
  double rat = 0.0;

  explicit two_param_z(const two_param_rule& rule) {
    if (rule.is_mean_rule()) return;
    load = stats::normal_quantile(rule.p_load);
    rat = stats::normal_quantile(rule.p_rat);
  }
};

/// P(x < y) >= p with the identical-form tie convention (see file comment of
/// pruning.hpp), for p > 0.5 strictly; z_p = Phi^-1(p).
///
/// `sigma_x` / `sigma_y` are the callers' cached stddevs of x and y. The
/// stddev of the difference d = y - x is bracketed by
///
///   |sigma_x - sigma_y|  <=  sigma_d  <=  sigma_x + sigma_y
///
/// (perfect positive / negative correlation), which decides clearly ordered
/// pairs from the cached moments alone:
///
///   - mu_d > (z_p + kappa)(sigma_x + sigma_y): then mu_d / sigma_d > z_p
///     for every admissible sigma_d (and mu_d > 0 covers sigma_d == 0, where
///     the exact path's exceedance degenerates to 1) -- definitely true.
///   - mu_d < 0: Phi(mu_d / sigma_d) < 0.5 < p (and the degenerate
///     sigma_d == 0 exceedance is 0) -- definitely false.
///   - 0 <= mu_d < (z_p - kappa)|sigma_x - sigma_y|: then sigma_d > 0 and
///     mu_d / sigma_d < z_p -- definitely false.
///
/// Only when the interval straddles the threshold does the exact single-pass
/// sigma_of_difference (the per-pair covariance walk) run. NaN moments fail
/// every comparison and fall through to the exact path. Prefilter verdicts
/// are counted into *prefilter_hits when given.
bool prob_less_at_least(const stats::linear_form& x,
                        const stats::linear_form& y, double p, double z_p,
                        double sigma_x, double sigma_y,
                        const stats::variation_space& space,
                        std::size_t* prefilter_hits) {
  if (x == y) return true;
  const double mu_d = y.mean() - x.mean();
  if (mu_d > (z_p + k_prefilter_slack) * (sigma_x + sigma_y)) {
    if (prefilter_hits != nullptr) ++*prefilter_hits;
    return true;
  }
  if (mu_d < 0.0 || mu_d < (z_p - k_prefilter_slack) *
                               std::abs(sigma_x - sigma_y)) {
    if (prefilter_hits != nullptr) ++*prefilter_hits;
    return false;
  }
  // Exact pass: same bits as stats::prob_greater(y, x, space).
  return stats::normal_exceedance(mu_d, stats::sigma_of_difference(y, x, space),
                                  0.0) >= p;
}

// -- Total-order sweeps (the deterministic rule, the 2P mean rule) ----------

/// The in-place sweep of a total-order prune: `list` sorted by the caller's
/// key order in, its non-dominated subset out. In a total, transitive order
/// the last survivor decides, so `dominates(kept, c)` tests each candidate
/// against it alone. The write cursor never passes the read cursor: no
/// allocation and no second pass.
template <class Cand, class Dominates>
void sweep_sorted(std::vector<Cand>& list, dp_stats& stats,
                  Dominates dominates) {
  std::size_t w = 0;
  for (std::size_t r = 0; r < list.size(); ++r) {
    if (w > 0 && dominates(list[w - 1], list[r])) {
      ++stats.candidates_pruned;
      continue;
    }
    if (w != r) list[w] = std::move(list[r]);
    ++w;
  }
  list.resize(w);
}

/// sweep_sorted for a list whose first `sorted_prefix` candidates are
/// already pruned in `less` order and whose tail is arbitrary: sorts the
/// tail, then one fused stable merge + sweep, with no inplace_merge temp
/// buffer. On equal keys the base side goes first (stable-merge order),
/// matching std::sort only up to bitwise key ties -- see the header
/// contract.
template <class Cand, class Less, class Dominates>
void sweep_presorted(std::vector<Cand>& list, std::size_t sorted_prefix,
                     dp_stats& stats, Less less, Dominates dominates) {
  const auto mid = list.begin() + static_cast<std::ptrdiff_t>(sorted_prefix);
  std::sort(mid, list.end(), less);
  std::vector<Cand> kept;
  kept.reserve(list.size());
  const auto take = [&kept, &stats, &dominates](Cand& c) {
    if (!kept.empty() && dominates(kept.back(), c)) {
      ++stats.candidates_pruned;
      return;
    }
    kept.push_back(std::move(c));
  };
  std::size_t i = 0;
  std::size_t j = sorted_prefix;
  while (i < sorted_prefix && j < list.size()) {
    if (less(list[j], list[i])) {
      take(list[j++]);
    } else {
      take(list[i++]);
    }
  }
  while (i < sorted_prefix) take(list[i++]);
  while (j < list.size()) take(list[j++]);
  list = std::move(kept);
}

/// The 2P sweep order: mean load ascending, mean RAT descending on ties.
constexpr auto mean_key_less = [](const stat_candidate& a,
                                  const stat_candidate& b) {
  if (a.load.mean() != b.load.mean()) return a.load.mean() < b.load.mean();
  return a.rat.mean() > b.rat.mean();
};

/// The 2P mean rule (Lemma 4): P(. > .) >= 0.5 is exactly a comparison of
/// means (also for degenerate zero-variance differences, per the tie
/// convention).
constexpr auto mean_dominates = [](const stat_candidate& a,
                                   const stat_candidate& b) {
  return a.load.mean() <= b.load.mean() && a.rat.mean() >= b.rat.mean();
};

/// dominates(two_param_rule) with the rule's resolved thresholds and
/// prefilter-hit accounting.
bool dominates_2p(const two_param_rule& rule, const two_param_z& z,
                  const stat_candidate& a, const stat_candidate& b,
                  const stats::variation_space& space,
                  std::size_t* prefilter_hits) {
  if (rule.is_mean_rule()) return mean_dominates(a, b);
  return prob_less_at_least(a.load, b.load, rule.p_load, z.load,
                            a.load_stddev(space), b.load_stddev(space), space,
                            prefilter_hits) &&
         prob_less_at_least(b.rat, a.rat, rule.p_rat, z.rat,
                            b.rat_stddev(space), a.rat_stddev(space), space,
                            prefilter_hits);
}

}  // namespace

void set_force_prune(int mode) {
  g_force_prune.store(mode == 0 ? 0 : (mode > 0 ? 1 : -1),
                      std::memory_order_relaxed);
}

void reset_force_prune_from_env() {
  g_force_prune.store(k_force_prune_unset, std::memory_order_relaxed);
}

bool use_tiled_prune(std::size_t k, std::size_t sources) {
  const int mode = force_prune_state();
  if (mode > 0) return true;
  if (mode < 0) return false;
  return k >= k_tiled_min_list && sources >= k_tiled_min_sources;
}

// ---------------------------------------------------------------------------
// Deterministic.
// ---------------------------------------------------------------------------

namespace {

constexpr auto det_key_less = [](const det_candidate& a,
                                 const det_candidate& b) {
  if (a.load_pf != b.load_pf) return a.load_pf < b.load_pf;
  return a.rat_ps > b.rat_ps;
};

/// Whether the last survivor of a det_key_less-sorted sweep dominates `c`:
/// its load is no larger by the order, so only the RAT decides.
constexpr auto det_kept_dominates = [](const det_candidate& kept,
                                       const det_candidate& c) {
  return kept.rat_ps >= c.rat_ps;
};

}  // namespace

void prune_deterministic(std::vector<det_candidate>& list, dp_stats& stats) {
  if (list.size() <= 1) return;
  std::sort(list.begin(), list.end(), det_key_less);
  sweep_sorted(list, stats, det_kept_dominates);
}

void prune_deterministic_presorted(std::vector<det_candidate>& list,
                                   std::size_t sorted_prefix,
                                   dp_stats& stats) {
  if (list.size() <= 1) return;
  sweep_presorted(list, sorted_prefix, stats, det_key_less,
                  det_kept_dominates);
}

void prune_deterministic_sorted(std::vector<det_candidate>& list,
                                dp_stats& stats) {
  if (list.size() <= 1) return;
  sweep_sorted(list, stats, det_kept_dominates);
}

// ---------------------------------------------------------------------------
// Two-parameter rule.
// ---------------------------------------------------------------------------

bool dominates(const two_param_rule& rule, const stat_candidate& a,
               const stat_candidate& b, const stats::variation_space& space) {
  return dominates_2p(rule, two_param_z(rule), a, b, space, nullptr);
}

namespace {

/// Batch-fills the unset Var caches of `list` from gathered rows: one
/// variance_rows pass over the missing entries, each row's chain bit-equal
/// to the lazy form.variance(space) it replaces. `get_var` selects var_load /
/// var_rat. Returns the number of rows batched.
template <typename GetVar>
std::size_t batch_fill_variances(std::vector<stat_candidate>& list,
                                 const stats::candidate_plane& planes,
                                 prune_scratch& scr, GetVar get_var) {
  scr.rows.clear();
  scr.row_index.clear();
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (get_var(list[i]) < 0.0) {
      scr.rows.push_back(planes.row(i));
      scr.row_index.push_back(i);
    }
  }
  if (scr.rows.empty()) return 0;
  scr.out.resize(scr.rows.size());
  stats::kernels::active().variance_rows(scr.rows.data(), scr.rows.size(),
                                         planes.sigma2(), planes.columns(),
                                         scr.out.data());
  for (std::size_t j = 0; j < scr.rows.size(); ++j) {
    get_var(list[scr.row_index[j]]) = scr.out[j];
  }
  return scr.rows.size();
}

/// The tiled 2P sweep body (p > 0.5; `list` already mean-sorted). Produces
/// exactly the pairwise sweep's surviving subsequence: per candidate the
/// sweep-window verdict is the OR over the window of (load condition AND rat
/// condition), each condition evaluated with the identical tie convention,
/// the identical prefilter thresholds, and -- for undecided pairs -- a
/// batched sigma-of-difference pass whose per-pair chain is bit-equal to the
/// scalar sigma_of_difference (dominates_2p is pure, so the pairwise early
/// exits change only which comparisons run, never the verdict).
void sweep_two_param_tiled(const two_param_rule& rule,
                           std::vector<stat_candidate>& list,
                           const stats::variation_space& space,
                           dp_stats& stats, prune_scratch& scr) {
  const std::size_t n = list.size();
  const auto& kt = stats::kernels::active();
  ++stats.tiled_prunes;

  // Gather once per prune call: the planes copy every coefficient, so
  // nothing after this point can dangle into the candidate forms.
  scr.forms.clear();
  for (const auto& c : list) scr.forms.push_back(&c.load);
  scr.load_planes.gather(space, scr.forms);
  scr.forms.clear();
  for (const auto& c : list) scr.forms.push_back(&c.rat);
  scr.rat_planes.gather(space, scr.forms);
  stats.pairs_batched += batch_fill_variances(
      list, scr.load_planes, scr,
      [](stat_candidate& c) -> double& { return c.var_load; });
  stats.pairs_batched += batch_fill_variances(
      list, scr.rat_planes, scr,
      [](stat_candidate& c) -> double& { return c.var_rat; });

  const two_param_z z(rule);
  const double z_load_hi = z.load + k_prefilter_slack;
  const double z_load_lo = z.load - k_prefilter_slack;
  const double z_rat_hi = z.rat + k_prefilter_slack;
  const double z_rat_lo = z.rat - k_prefilter_slack;

  const std::size_t window = std::max<std::size_t>(1, rule.sweep_window);
  std::vector<stat_candidate> kept;
  kept.reserve(n);
  scr.kept_rows.clear();

  for (std::size_t r = 0; r < n; ++r) {
    stat_candidate& c = list[r];
    const std::size_t scan = std::min(window, kept.size());
    // cond_ok[j]: 0 undecided/false, 1 = load condition holds for the pair
    // (kept[kept.size() - 1 - j], c); later narrowed to the full verdict.
    scr.cond_ok.assign(scan, 0);

    // -- Load condition over the window tile: P(a.load < c.load) >= p_L.
    scr.mu_d.clear();
    scr.sigma_x.clear();
    scr.sigma_y.clear();
    scr.pair_idx.clear();
    for (std::size_t j = 0; j < scan; ++j) {
      const stat_candidate& a = kept[kept.size() - 1 - j];
      if (a.load == c.load) {
        scr.cond_ok[j] = 1;  // identical-form tie: condition holds
        continue;
      }
      scr.mu_d.push_back(c.load.mean() - a.load.mean());
      scr.sigma_x.push_back(a.load_stddev(space));
      scr.sigma_y.push_back(c.load_stddev(space));
      scr.pair_idx.push_back(j);
    }
    if (!scr.mu_d.empty()) {
      const std::size_t m = scr.mu_d.size();
      scr.verdict.resize(m);
      kt.prefilter_row_tile(scr.mu_d.data(), scr.sigma_x.data(),
                            scr.sigma_y.data(), m, z_load_hi, z_load_lo,
                            scr.verdict.data());
      stats.pairs_batched += m;
      // Exact pass for the undecided pairs, batched over the tile.
      scr.rows.clear();
      scr.row_index.clear();  // batch position -> packed pair position
      for (std::size_t b = 0; b < m; ++b) {
        if (scr.verdict[b] != 2) {
          ++stats.tile_prefilter_hits;
          scr.cond_ok[scr.pair_idx[b]] = scr.verdict[b];
        } else {
          scr.rows.push_back(
              scr.load_planes.row(scr.kept_rows[kept.size() - 1 -
                                                scr.pair_idx[b]]));
          scr.row_index.push_back(b);
        }
      }
      if (!scr.rows.empty()) {
        scr.out.resize(scr.rows.size());
        kt.sigma_diff_sq_row_tile(scr.load_planes.row(r), scr.rows.data(),
                                  scr.rows.size(), scr.load_planes.sigma2(),
                                  scr.load_planes.columns(), scr.out.data());
        stats.pairs_batched += scr.rows.size();
        for (std::size_t e = 0; e < scr.rows.size(); ++e) {
          const std::size_t b = scr.row_index[e];
          const double sigma = std::sqrt(std::max(scr.out[e], 0.0));
          scr.cond_ok[scr.pair_idx[b]] =
              stats::normal_exceedance(scr.mu_d[b], sigma, 0.0) >= rule.p_load
                  ? 1
                  : 0;
        }
      }
    }

    // -- RAT condition, only where the load condition held:
    //    P(c.rat < a.rat) >= p_T.
    bool pruned = false;
    scr.mu_d.clear();
    scr.sigma_x.clear();
    scr.sigma_y.clear();
    scr.pair_idx.clear();
    for (std::size_t j = 0; j < scan && !pruned; ++j) {
      if (scr.cond_ok[j] == 0) continue;
      const stat_candidate& a = kept[kept.size() - 1 - j];
      if (a.rat == c.rat) {
        pruned = true;  // tie: both conditions hold
        break;
      }
      scr.mu_d.push_back(a.rat.mean() - c.rat.mean());
      scr.sigma_x.push_back(c.rat_stddev(space));
      scr.sigma_y.push_back(a.rat_stddev(space));
      scr.pair_idx.push_back(j);
    }
    if (!pruned && !scr.mu_d.empty()) {
      const std::size_t m = scr.mu_d.size();
      scr.verdict.resize(m);
      kt.prefilter_row_tile(scr.mu_d.data(), scr.sigma_x.data(),
                            scr.sigma_y.data(), m, z_rat_hi, z_rat_lo,
                            scr.verdict.data());
      stats.pairs_batched += m;
      scr.rows.clear();
      scr.row_index.clear();
      for (std::size_t b = 0; b < m; ++b) {
        if (scr.verdict[b] != 2) {
          ++stats.tile_prefilter_hits;
          if (scr.verdict[b] == 1) pruned = true;
        } else {
          scr.rows.push_back(
              scr.rat_planes.row(scr.kept_rows[kept.size() - 1 -
                                               scr.pair_idx[b]]));
          scr.row_index.push_back(b);
        }
      }
      if (!pruned && !scr.rows.empty()) {
        scr.out.resize(scr.rows.size());
        kt.sigma_diff_sq_row_tile(scr.rat_planes.row(r), scr.rows.data(),
                                  scr.rows.size(), scr.rat_planes.sigma2(),
                                  scr.rat_planes.columns(), scr.out.data());
        stats.pairs_batched += scr.rows.size();
        for (std::size_t e = 0; e < scr.rows.size() && !pruned; ++e) {
          const std::size_t b = scr.row_index[e];
          const double sigma = std::sqrt(std::max(scr.out[e], 0.0));
          pruned =
              stats::normal_exceedance(scr.mu_d[b], sigma, 0.0) >= rule.p_rat;
        }
      }
    }

    if (pruned) {
      ++stats.candidates_pruned;
      continue;
    }
    scr.kept_rows.push_back(r);
    kept.push_back(std::move(c));
  }
  list = std::move(kept);
}

}  // namespace

void prune_two_param(const two_param_rule& rule,
                     std::vector<stat_candidate>& list,
                     const stats::variation_space& space, dp_stats& stats,
                     prune_scratch* scratch) {
  if (list.size() <= 1) return;
  std::sort(list.begin(), list.end(), mean_key_less);
  // The mean rule compares means only (no second moments anywhere), so there
  // is nothing for the tiled engine to batch -- it stays on the direct sweep
  // under every policy.
  if (!rule.is_mean_rule() && use_tiled_prune(list.size(), space.size())) {
    sweep_two_param_tiled(rule, list, space, stats,
                          scratch != nullptr ? *scratch
                                             : fallback_prune_scratch());
    return;
  }
  const two_param_z z(rule);
  std::vector<stat_candidate> kept;
  kept.reserve(list.size());
  const std::size_t window = std::max<std::size_t>(1, rule.sweep_window);
  for (auto& c : list) {
    bool pruned = false;
    // Under the mean rule the order is total and transitive, so comparing
    // against the last kept candidate alone is exact; for p > 0.5 we scan a
    // small window of recent survivors (the paper's practical linearization).
    const std::size_t scan =
        std::min(rule.is_mean_rule() ? std::size_t{1} : window, kept.size());
    for (std::size_t k = 1; k <= scan && !pruned; ++k) {
      pruned = dominates_2p(rule, z, kept[kept.size() - k], c, space,
                            &stats.dominance_prefilter_hits);
    }
    if (pruned) {
      ++stats.candidates_pruned;
      continue;
    }
    kept.push_back(std::move(c));
  }
  list = std::move(kept);
}

void prune_two_param_mean_presorted(std::vector<stat_candidate>& list,
                                    std::size_t sorted_prefix,
                                    dp_stats& stats) {
  if (list.size() <= 1) return;
  sweep_presorted(list, sorted_prefix, stats, mean_key_less, mean_dominates);
}

void prune_two_param_mean_sorted(std::vector<stat_candidate>& list,
                                 dp_stats& stats) {
  if (list.size() <= 1) return;
  sweep_sorted(list, stats, mean_dominates);
}

// ---------------------------------------------------------------------------
// Four-parameter rule.
// ---------------------------------------------------------------------------

bool dominates(const four_param_rule& rule, const stat_candidate& a,
               const stat_candidate& b, const stats::variation_space& space) {
  // Load condition (eq. 2): pi_{alpha_u}(L_a) < pi_{alpha_l}(L_b), with the
  // identical-form tie convention.
  bool load_ok = false;
  if (a.load == b.load) {
    load_ok = true;
  } else {
    const double a_hi =
        stats::percentile(a.load, space, rule.alpha_hi);
    const double b_lo =
        stats::percentile(b.load, space, rule.alpha_lo);
    load_ok = a_hi < b_lo;
  }
  if (!load_ok) return false;

  // RAT condition (eq. 3): pi_{beta_l}(T_a) > pi_{beta_u}(T_b).
  if (a.rat == b.rat) return true;
  const double a_lo = stats::percentile(a.rat, space, rule.beta_lo);
  const double b_hi = stats::percentile(b.rat, space, rule.beta_hi);
  return a_lo > b_hi;
}

void prune_four_param(const four_param_rule& rule,
                      std::vector<stat_candidate>& list,
                      const stats::variation_space& space, dp_stats& stats,
                      std::size_t max_comparisons) {
  const std::size_t n = list.size();
  if (n <= 1) return;
  std::size_t comparisons = 0;
  // Cache the percentile corners; the pairwise pass then costs O(n^2)
  // comparisons of doubles rather than O(n^2) sigma evaluations.
  struct corners {
    double load_lo, load_hi, rat_lo, rat_hi;
  };
  std::vector<corners> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double lm = list[i].load.mean();
    const double ls = list[i].load_stddev(space);
    const double rm = list[i].rat.mean();
    const double rs = list[i].rat_stddev(space);
    c[i] = {stats::normal_percentile(lm, ls, rule.alpha_lo),
            stats::normal_percentile(lm, ls, rule.alpha_hi),
            stats::normal_percentile(rm, rs, rule.beta_lo),
            stats::normal_percentile(rm, rs, rule.beta_hi)};
  }
  std::vector<bool> dead(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i]) continue;
    if (max_comparisons != 0 && comparisons > max_comparisons) break;
    comparisons += n;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || dead[j]) continue;
      const bool load_ok =
          (list[i].load == list[j].load) || (c[i].load_hi < c[j].load_lo);
      if (!load_ok) continue;
      const bool rat_ok =
          (list[i].rat == list[j].rat) || (c[i].rat_lo > c[j].rat_hi);
      if (rat_ok) dead[j] = true;
    }
  }
  std::vector<stat_candidate> kept;
  kept.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i]) {
      ++stats.candidates_pruned;
    } else {
      kept.push_back(std::move(list[i]));
    }
  }
  list = std::move(kept);
}

// ---------------------------------------------------------------------------
// Corner rule.
// ---------------------------------------------------------------------------

bool dominates(const corner_rule& rule, const stat_candidate& a,
               const stat_candidate& b, const stats::variation_space& space) {
  const double la = stats::percentile(a.load, space, rule.percentile);
  const double lb = stats::percentile(b.load, space, rule.percentile);
  const double ta = stats::percentile(a.rat, space, 1.0 - rule.percentile);
  const double tb = stats::percentile(b.rat, space, 1.0 - rule.percentile);
  return la <= lb && ta >= tb;
}

void prune_corner(const corner_rule& rule, std::vector<stat_candidate>& list,
                  const stats::variation_space& space, dp_stats& stats) {
  if (list.size() <= 1) return;
  struct projected {
    double load_q, rat_q;
    stat_candidate c;
  };
  std::vector<projected> proj;
  proj.reserve(list.size());
  for (auto& c : list) {
    // Same bits as stats::percentile(form, space, p): normal_percentile over
    // the identical (mean, stddev) pair, with the stddev read from the cache.
    proj.push_back({stats::normal_percentile(c.load.mean(),
                                             c.load_stddev(space),
                                             rule.percentile),
                    stats::normal_percentile(c.rat.mean(), c.rat_stddev(space),
                                             1.0 - rule.percentile),
                    std::move(c)});
  }
  std::sort(proj.begin(), proj.end(), [](const projected& a, const projected& b) {
    if (a.load_q != b.load_q) return a.load_q < b.load_q;
    return a.rat_q > b.rat_q;
  });
  std::vector<stat_candidate> kept;
  kept.reserve(proj.size());
  double best_rat = -std::numeric_limits<double>::infinity();
  for (auto& p : proj) {
    if (p.rat_q <= best_rat) {
      ++stats.candidates_pruned;
      continue;
    }
    best_rat = p.rat_q;
    kept.push_back(std::move(p.c));
  }
  list = std::move(kept);
}

}  // namespace vabi::core
