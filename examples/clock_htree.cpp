// Capacity demo: buffer a large H-tree clock network (paper footnote 4).
//
// The paper's largest in-house test is an eight-level H-tree with more than
// 64,000 sinks, feasible only because the 2P rule keeps merging and pruning
// linear. This example builds an H-tree (6 levels / 4096 sinks by default;
// pass the level count as argv[1], 8 reproduces the 65,536-sink run) and
// buffers it under the full WID variation model.
#include <cstdlib>
#include <iostream>

#include "analysis/clock_skew.hpp"
#include "analysis/yield.hpp"
#include "core/statistical_dp.hpp"
#include "tree/generators.hpp"

int main(int argc, char** argv) {
  using namespace vabi;

  std::size_t levels = 6;
  if (argc > 1) levels = static_cast<std::size_t>(std::atoi(argv[1]));
  if (levels == 0 || levels > 9) {
    std::cerr << "usage: clock_htree [levels 1..9]\n";
    return 1;
  }

  tree::h_tree_options h;
  h.levels = levels;
  h.die_side_um = 16000.0;
  const auto net = tree::make_h_tree(h);
  std::cout << "H-tree: " << levels << " levels, " << net.num_sinks()
            << " sinks, " << net.num_buffer_positions()
            << " legal buffer positions, total wire "
            << net.total_wire_um() / 1000.0 << " mm\n";

  layout::process_model_config pm_cfg;
  pm_cfg.mode = layout::wid_mode();
  layout::process_model model{layout::square_die(h.die_side_um), pm_cfg};

  core::stat_options opts;
  opts.library = timing::standard_library();
  opts.driver_res_ohm = 100.0;
  const auto solved = core::solve_statistical_insertion(net, model, opts);
  if (!solved.ok()) {
    std::cerr << "failed: " << solved.error().message() << "\n";
    return 1;
  }
  const core::stat_result& result = *solved;

  const auto& space = model.space();
  std::cout << "buffers inserted: " << result.num_buffers << "\n";
  std::cout << "clock source RAT: mean " << result.root_rat.mean()
            << " ps, sigma " << result.root_rat.stddev(space) << " ps\n";
  std::cout << "95%-yield RAT: "
            << analysis::yield_rat(result.root_rat, space) << " ps\n";
  std::cout << "runtime: " << result.stats.wall_seconds << " s, "
            << result.stats.candidates_created << " candidates, peak list "
            << result.stats.peak_list_size << "\n";

  // An H-tree is symmetric, so a good buffering is symmetric too: count
  // buffers per tree depth as a sanity report.
  std::vector<std::size_t> depth(net.num_nodes(), 0);
  std::vector<std::size_t> per_depth;
  for (tree::node_id id = 1; id < net.num_nodes(); ++id) {
    depth[id] = depth[net.node(id).parent] + 1;
    if (result.assignment.has_buffer(id)) {
      if (per_depth.size() <= depth[id]) per_depth.resize(depth[id] + 1, 0);
      ++per_depth[depth[id]];
    }
  }
  std::cout << "buffers per tree depth:";
  for (std::size_t d = 0; d < per_depth.size(); ++d) {
    if (per_depth[d] != 0) std::cout << " d" << d << ":" << per_depth[d];
  }
  std::cout << "\n";

  // Statistical clock skew of the buffered tree (the paper's future-work
  // direction): fresh model so the analysis owns its variation sources.
  layout::process_model skew_model{layout::square_die(h.die_side_um), pm_cfg};
  const auto skew = analysis::analyze_clock_skew(
      net, opts.wire, opts.library, result.assignment, skew_model, 100.0);
  std::cout << "clock skew: mean " << skew.skew.mean() << " ps, sigma "
            << skew.skew.stddev(skew_model.space()) << " ps; latest sink "
            << skew.latest_sink << ", earliest sink " << skew.earliest_sink
            << "\n";
  std::cout << "P(skew <= " << 1.5 * skew.skew.mean() << " ps) = "
            << analysis::skew_yield(skew, skew_model.space(),
                                    1.5 * skew.skew.mean())
            << "\n";
  return 0;
}
