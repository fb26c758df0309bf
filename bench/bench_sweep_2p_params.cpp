// Section 5.3, final experiment: sensitivity of the optimized RAT to the 2P
// parameters pbar_L and pbar_T.
//
// The paper sweeps both from 0.5 to 0.95 and observes < 0.1% change in the
// optimal root RAT -- evidence that the cheap p = 0.5 mean rule loses nothing
// in practice.
#include <cmath>
#include <iostream>

#include "harness.hpp"

int main() {
  using namespace vabi;
  bench::experiment_config cfg;
  const auto profile = layout::spatial_profile::heterogeneous;

  std::cout << "=== 2P parameter sweep: pbar in [0.5, 0.95] ===\n";
  for (const auto& spec : {*tree::find_benchmark("p1"),
                           *tree::find_benchmark("r1")}) {
    const auto net = tree::build_benchmark(spec);
    analysis::text_table t{
        {"pbar", "root RAT mean (ps)", "delta vs 0.5", "peak list", "time (s)"}};
    double reference = 0.0;
    for (const double p : {0.5, 0.6, 0.7, 0.8, 0.9, 0.95}) {
      auto model = bench::make_model(spec, cfg, layout::wid_mode(), profile);
      core::stat_options o;
      o.wire = cfg.wire;
      o.library = cfg.library;
      o.driver_res_ohm = cfg.driver_res_ohm;
      o.two_param.p_load = p;
      o.two_param.p_rat = p;
      const auto r = bench::expect_solved(
          core::solve_statistical_insertion(net, model, o));
      if (p == 0.5) reference = r.root_rat.mean();
      const double delta =
          (r.root_rat.mean() - reference) / std::abs(reference);
      t.add_row({analysis::fmt(p, 2), analysis::fmt(r.root_rat.mean(), 2),
                 analysis::fmt_percent(delta, 3),
                 std::to_string(r.stats.peak_list_size),
                 analysis::fmt(r.stats.wall_seconds, 2)});
    }
    std::cout << "-- " << spec.name << " --\n";
    t.print(std::cout);
  }
  std::cout << "(paper: less than 0.1% difference across the sweep)\n";
  return 0;
}
