// Quickstart: variation-aware buffer insertion on a small net in ~40 lines.
//
//   1. Build (or load) a routing tree.
//   2. Describe the process variation (budgets + spatial model).
//   3. Run the 2P-pruned statistical optimizer.
//   4. Inspect the buffered design and its RAT distribution.
#include <iostream>

#include "analysis/yield.hpp"
#include "core/statistical_dp.hpp"
#include "tree/generators.hpp"

int main() {
  using namespace vabi;

  // 1. A random 50-sink net on a 6 mm x 6 mm die (use tree::load_tree to read
  //    your own net from disk instead).
  tree::random_tree_options net_opts;
  net_opts.num_sinks = 50;
  net_opts.die_side_um = 6000.0;
  net_opts.seed = 1;
  const auto net = tree::make_random_tree(net_opts);

  // 2. Full variation model: 5% random device + 5% inter-die + 5% spatially
  //    correlated intra-die variation (the paper's WID setting).
  layout::process_model_config pm_cfg;
  pm_cfg.mode = layout::wid_mode();
  layout::process_model model{layout::square_die(net_opts.die_side_um), pm_cfg};

  // 3. Optimize. The default pruning rule is the paper's two-parameter (2P)
  //    rule at pbar = 0.5, which runs in deterministic-van-Ginneken time.
  core::stat_options opts;
  opts.library = timing::standard_library();
  opts.driver_res_ohm = 150.0;
  const auto solved = core::solve_statistical_insertion(net, model, opts);
  if (!solved.ok()) {
    std::cerr << "optimization failed: " << solved.error().message() << "\n";
    return 1;
  }
  const core::stat_result& result = *solved;

  // 4. Report.
  const auto& space = model.space();
  std::cout << "inserted " << result.num_buffers << " buffers into a net with "
            << net.num_buffer_positions() << " legal positions\n";
  std::cout << "root RAT:  mean = " << result.root_rat.mean()
            << " ps,  sigma = " << result.root_rat.stddev(space) << " ps\n";
  std::cout << "95%-yield RAT (5th percentile) = "
            << analysis::yield_rat(result.root_rat, space) << " ps\n";
  std::cout << "optimizer: " << result.stats.candidates_created
            << " candidates, peak list " << result.stats.peak_list_size
            << ", " << result.stats.wall_seconds << " s\n";

  // Where did the buffers go?
  std::cout << "buffered nodes:";
  for (tree::node_id id = 0; id < net.num_nodes(); ++id) {
    if (result.assignment.has_buffer(id)) {
      std::cout << " " << id << "("
                << opts.library[result.assignment.buffer(id)].name << ")";
    }
  }
  std::cout << "\n";
  return 0;
}
