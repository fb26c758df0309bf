// Shared harness for the table/figure reproduction binaries.
//
// Every bench_* executable regenerates one table or figure of the paper and
// prints it in a stable text format. Defaults are sized to finish the whole
// bench suite in a few minutes on a laptop; set VABI_FULL=1 to run the full
// benchmark set (through r5, as in the paper).
#pragma once

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/buffered_tree_model.hpp"
#include "analysis/reporting.hpp"
#include "analysis/yield.hpp"
#include "core/statistical_dp.hpp"
#include "core/van_ginneken.hpp"
#include "layout/process_model.hpp"
#include "timing/buffer_library.hpp"
#include "device/characterize.hpp"
#include "timing/wire_model.hpp"
#include "tree/benchmarks.hpp"

namespace vabi::bench {

inline bool full_mode() {
  const char* v = std::getenv("VABI_FULL");
  return v != nullptr && std::string(v) != "0";
}

/// `--threads N` from a bench command line; falls back to the VABI_THREADS
/// env var, then to 1 (serial), so the printed tables stay comparable run to
/// run unless parallelism is asked for explicitly.
inline std::size_t parse_threads(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--threads") {
      const unsigned long n = std::strtoul(argv[i + 1], nullptr, 10);
      if (n > 0) return static_cast<std::size_t>(n);
    }
  }
  if (const char* v = std::getenv("VABI_THREADS")) {
    const unsigned long n = std::strtoul(v, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 1;
}

/// The benchmark suite: the 2P engine is fast enough to run all seven nets
/// of Table 1 by default; VABI_FULL only enlarges the expensive extras
/// (4P budgets, Monte-Carlo sample counts, Fig. 5 sweep sizes).
inline std::vector<tree::benchmark_spec> suite() {
  return tree::paper_benchmarks();
}

/// Budgets realizing the paper's "5% of nominal per class" at the process-
/// parameter level: the device characterization flow (Section 3.1) turns a
/// 5% L_eff sigma into the cap/delay sigmas via the fitted sensitivities --
/// ~5% on C_b but ~10.5% on T_b for the 65nm-flavor model (delay responds
/// super-linearly to channel length). Computed once per process.
inline layout::variation_budgets calibrated_budgets() {
  static const layout::variation_budgets budgets = [] {
    const device::transistor_model model{device::transistor_model_config{},
                                         timing::standard_library()[0]};
    device::characterization_config cfg;
    cfg.samples = 4000;
    cfg.leff_sigma_frac = 0.05;  // the paper's per-class budget
    const auto fit = device::characterize_buffer(model, cfg);
    layout::class_budget per_class{fit.cap_sigma_pf / fit.cap_nominal_pf,
                                   fit.delay_sigma_ps / fit.delay_nominal_ps};
    return layout::variation_budgets{per_class, per_class, per_class};
  }();
  return budgets;
}

struct experiment_config {
  timing::wire_model wire;
  timing::buffer_library library = timing::standard_library();
  double driver_res_ohm = 150.0;
  layout::variation_budgets budgets = calibrated_budgets();
  /// The optimization figure of merit: the paper evaluates the 95% timing
  /// yield, so the statistical engines select candidates and the root
  /// solution by the 5th RAT percentile.
  double yield_percentile = 0.05;
};

inline layout::process_model_config make_model_config(
    const experiment_config& cfg, layout::variation_mode mode,
    layout::spatial_profile profile) {
  layout::process_model_config c;
  c.mode = mode;
  c.budgets = cfg.budgets;
  c.spatial.profile = profile;
  return c;
}

inline layout::process_model make_model(const tree::benchmark_spec& spec,
                                        const experiment_config& cfg,
                                        layout::variation_mode mode,
                                        layout::spatial_profile profile) {
  return layout::process_model{layout::square_die(spec.die_side_um),
                               make_model_config(cfg, mode, profile)};
}

/// The stat_options every statistical bench run uses (optionally seeded from
/// `overrides`, e.g. resource caps). Shared by the direct and the batched
/// paths so both solve the identical problem.
inline core::stat_options make_stat_options(
    const experiment_config& cfg, core::pruning_kind rule,
    const core::stat_options* overrides = nullptr) {
  core::stat_options o;
  if (overrides != nullptr) o = *overrides;
  o.wire = cfg.wire;
  o.library = cfg.library;
  o.driver_res_ohm = cfg.driver_res_ohm;
  o.rule = rule;
  o.root_percentile = cfg.yield_percentile;
  o.selection_percentile = cfg.yield_percentile;
  return o;
}

/// What a failed typed solve leaves for the tables: an aborted dp_stats
/// carrying the error (every counter zero), which they print as "-" and
/// the perf gates skip.
inline core::dp_stats aborted_stats(const core::solve_error& error) {
  core::dp_stats s;
  s.aborted = true;
  s.abort_code = error.code;
  s.abort_node = error.node;
  s.abort_reason = error.detail;
  return s;
}

/// The value of a typed solve the bench expects to succeed; a failure stops
/// the bench with the error's message.
template <class T>
T expect_solved(core::solve_outcome<T>&& out) {
  if (!out.ok()) throw std::runtime_error(out.error().message());
  return std::move(out).value();
}

struct mode_run {
  timing::buffer_assignment assignment;
  core::dp_stats stats;
  std::size_t num_buffers = 0;
};

/// Optimizes `net` under one variation mode (NOM uses the deterministic
/// engine, as in the paper). A failed solve (e.g. a capped 4P run) comes
/// back with aborted stats and an empty assignment.
inline mode_run optimize(const tree::routing_tree& net,
                         const tree::benchmark_spec& spec,
                         const experiment_config& cfg,
                         layout::variation_mode mode,
                         layout::spatial_profile profile,
                         core::pruning_kind rule = core::pruning_kind::two_param,
                         const core::stat_options* overrides = nullptr) {
  const auto take = [&net](auto&& solved) {
    mode_run out;
    if (!solved.ok()) {
      out.assignment = timing::buffer_assignment(net.num_nodes());
      out.stats = aborted_stats(solved.error());
      return out;
    }
    out.assignment = std::move(solved->assignment);
    out.stats = std::move(solved->stats);
    out.num_buffers = solved->num_buffers;
    return out;
  };
  if (mode == layout::nom_mode()) {
    core::det_options o{cfg.wire, cfg.library, cfg.driver_res_ohm};
    return take(core::solve_van_ginneken(net, o));
  }
  auto model = make_model(spec, cfg, mode, profile);
  const core::stat_options o = make_stat_options(cfg, rule, overrides);
  return take(core::solve_statistical_insertion(net, model, o));
}

/// Root RAT canonical form of a fixed design under the full evaluation model.
inline stats::linear_form evaluate_design(
    const tree::routing_tree& net, const experiment_config& cfg,
    const timing::buffer_assignment& assignment,
    layout::process_model& eval_model) {
  analysis::buffered_tree_model m{net,        cfg.wire,          cfg.library,
                                  assignment, eval_model, cfg.driver_res_ohm};
  return m.root_rat();
}

}  // namespace vabi::bench
