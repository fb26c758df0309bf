// Ablations of the design choices DESIGN.md calls out:
//
//   A. Wire sizing ([8] extension): RAT gain of simultaneous buffer
//      insertion + wire sizing over buffering alone, deterministic and
//      statistical.
//   B. Yield-driven vs mean-driven candidate selection: what the 5th-
//      percentile selection key buys in 95%-yield RAT and buffer count.
//   C. 2P sweep window: pruning thoroughness vs cost for pbar > 0.5.
#include <iostream>

#include "harness.hpp"

namespace {

using namespace vabi;

void ablation_wire_sizing(const bench::experiment_config& cfg) {
  std::cout << "\n=== Ablation A: simultaneous wire sizing ([8]) ===\n";
  analysis::text_table t{{"Bench", "buffered RAT", "sized RAT", "gain",
                          "widened edges", "sized time (s)"}};
  for (const auto& spec : bench::suite()) {
    const auto net = tree::build_benchmark(spec);
    core::det_options plain{cfg.wire, cfg.library, cfg.driver_res_ohm, {1.0}};
    core::det_options sized = plain;
    sized.wire_width_multipliers = {1.0, 2.0, 4.0};
    const auto r_plain =
        bench::expect_solved(core::solve_van_ginneken(net, plain));
    const auto r_sized =
        bench::expect_solved(core::solve_van_ginneken(net, sized));
    t.add_row({spec.name, analysis::fmt(r_plain.root_rat_ps, 1),
               analysis::fmt(r_sized.root_rat_ps, 1),
               analysis::fmt_percent((r_sized.root_rat_ps - r_plain.root_rat_ps) /
                                         std::abs(r_plain.root_rat_ps),
                                     2),
               std::to_string(r_sized.wires.count_nondefault()),
               analysis::fmt(r_sized.stats.wall_seconds, 2)});
  }
  t.print(std::cout);
}

void ablation_selection(const bench::experiment_config& cfg) {
  std::cout << "\n=== Ablation B: mean-driven vs yield-driven selection ===\n";
  analysis::text_table t{{"Bench", "mean-sel q05 RAT", "yield-sel q05 RAT",
                          "mean-sel buffers", "yield-sel buffers"}};
  const auto profile = layout::spatial_profile::heterogeneous;
  for (const auto& spec : bench::suite()) {
    const auto net = tree::build_benchmark(spec);
    double q05[2];
    std::size_t bufs[2];
    int i = 0;
    for (const double sel : {0.5, 0.05}) {
      auto model = bench::make_model(spec, cfg, layout::wid_mode(), profile);
      core::stat_options o;
      o.wire = cfg.wire;
      o.library = cfg.library;
      o.driver_res_ohm = cfg.driver_res_ohm;
      o.selection_percentile = sel;
      o.root_percentile = 0.05;
      const auto r = bench::expect_solved(
          core::solve_statistical_insertion(net, model, o));
      auto eval = bench::make_model(spec, cfg, layout::wid_mode(), profile);
      const auto rat = bench::evaluate_design(net, cfg, r.assignment, eval);
      q05[i] = analysis::yield_rat(rat, eval.space());
      bufs[i] = r.num_buffers;
      ++i;
    }
    t.add_row({spec.name, analysis::fmt(q05[0], 1), analysis::fmt(q05[1], 1),
               std::to_string(bufs[0]), std::to_string(bufs[1])});
  }
  t.print(std::cout);
}

void ablation_sweep_window(const bench::experiment_config& cfg) {
  std::cout << "\n=== Ablation C: 2P sweep window at pbar = 0.9 ===\n";
  analysis::text_table t{{"Window", "peak list", "pruned", "time (s)",
                          "root RAT mean"}};
  const auto spec = *tree::find_benchmark("r2");
  const auto net = tree::build_benchmark(spec);
  for (const std::size_t window : {1ul, 2ul, 4ul, 16ul, 64ul}) {
    auto model = bench::make_model(spec, cfg, layout::wid_mode(),
                                   layout::spatial_profile::heterogeneous);
    core::stat_options o;
    o.wire = cfg.wire;
    o.library = cfg.library;
    o.driver_res_ohm = cfg.driver_res_ohm;
    o.two_param.p_load = 0.9;
    o.two_param.p_rat = 0.9;
    o.two_param.sweep_window = window;
    const auto r =
        bench::expect_solved(core::solve_statistical_insertion(net, model, o));
    t.add_row({std::to_string(window), std::to_string(r.stats.peak_list_size),
               std::to_string(r.stats.candidates_pruned),
               analysis::fmt(r.stats.wall_seconds, 3),
               analysis::fmt(r.root_rat.mean(), 2)});
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  bench::experiment_config cfg;
  ablation_wire_sizing(cfg);
  ablation_selection(cfg);
  ablation_sweep_window(cfg);
  return 0;
}
