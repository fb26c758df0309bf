// Yield-driven design: why variation-blind buffering loses timing yield.
//
// Reproduces the paper's central design argument (Section 5.3) on one net:
// optimize the same tree three ways -- NOM (deterministic), D2D (no spatial
// correlation), WID (full model) -- then evaluate every design under the true
// heterogeneous variation and compare timing yield at a common target, both
// analytically (canonical forms) and by Monte Carlo.
#include <iostream>

#include "analysis/monte_carlo_validation.hpp"
#include "analysis/variance_breakdown.hpp"
#include "analysis/yield.hpp"
#include "core/statistical_dp.hpp"
#include "core/van_ginneken.hpp"
#include "tree/generators.hpp"

int main() {
  using namespace vabi;

  tree::random_tree_options net_opts;
  net_opts.num_sinks = 300;
  net_opts.die_side_um = 12000.0;
  net_opts.seed = 2026;
  net_opts.criticality_balance = 0.8;  // budgeted net: many near-critical sinks
  const auto net = tree::make_random_tree(net_opts);
  const auto die = layout::square_die(net_opts.die_side_um);

  // Per-class budgets at the characterized (parameter-level 5%) strengths:
  // ~5% on C_b but ~10.5% on T_b (see examples/custom_device_characterization
  // for where these sensitivities come from).
  const layout::class_budget per_class{0.05, 0.105};

  timing::wire_model wire;
  const auto lib = timing::standard_library();
  const double rd = 150.0;

  const auto make_model = [&](layout::variation_mode mode) {
    layout::process_model_config c;
    c.mode = mode;
    c.budgets = {per_class, per_class, per_class};
    c.spatial.profile = layout::spatial_profile::heterogeneous;
    return layout::process_model{die, c};
  };

  // --- optimize three ways -------------------------------------------------
  // value() throws if a solve fails; these fixed inputs always solve.
  core::det_options det{wire, lib, rd};
  const auto nom = core::solve_van_ginneken(net, det).value().assignment;

  const auto run_stat = [&](layout::variation_mode mode) {
    auto model = make_model(mode);
    core::stat_options o;
    o.wire = wire;
    o.library = lib;
    o.driver_res_ohm = rd;
    // Optimize the paper's figure of merit: the 95%-yield RAT.
    o.root_percentile = 0.05;
    o.selection_percentile = 0.05;
    return core::solve_statistical_insertion(net, model, o).value().assignment;
  };
  const auto d2d = run_stat(layout::d2d_mode());
  const auto wid = run_stat(layout::wid_mode());

  // --- evaluate all three under the true variation -------------------------
  auto truth = make_model(layout::wid_mode());
  const auto evaluate = [&](const timing::buffer_assignment& a,
                            const char* name, double target) {
    analysis::buffered_tree_model design{net, wire, lib, a, truth, rd};
    const auto& space = truth.space();
    const auto v = analysis::validate_rat_model(design, truth, 3000, 99);
    std::cout << name << ": buffers " << design.num_buffers()
              << ", 95%-yield RAT "
              << analysis::yield_rat(design.root_rat(), space) << " ps"
              << ", yield@target "
              << 100.0 * analysis::timing_yield(design.root_rat(), space,
                                                target)
              << "% (model) / "
              << 100.0 * analysis::timing_yield_empirical(v.samples, target)
              << "% (MC)\n";
    return design.root_rat().mean();
  };

  // Target = WID mean RAT relaxed by 10% (the paper's convention).
  analysis::buffered_tree_model wid_design{net, wire, lib, wid, truth, rd};
  const double target =
      analysis::target_rat_from_mean(wid_design.root_rat().mean());
  std::cout << "target RAT = " << target << " ps\n";

  evaluate(nom, "NOM", target);
  evaluate(d2d, "D2D", target);
  evaluate(wid, "WID", target);

  // Which variation class dominates the WID design's spread?
  analysis::buffered_tree_model wid_eval{net, wire, lib, wid, truth, rd};
  const auto vb =
      analysis::decompose_variance(wid_eval.root_rat(), truth.space());
  std::cout << "WID RAT variance by class: random "
            << 100.0 * vb.fraction(vb.random_device) << "%, spatial "
            << 100.0 * vb.fraction(vb.spatial) << "%, inter-die "
            << 100.0 * vb.fraction(vb.inter_die) << "%\n";
  return 0;
}
