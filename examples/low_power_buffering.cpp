// Low-power buffering via the cost/RAT frontier (paper reference [9]).
//
// Van Ginneken spends buffers freely to maximize the root RAT; most of the
// last buffers buy almost nothing. This example computes the full
// (buffer cost, achievable RAT) Pareto frontier, prints it, and picks the
// cheapest design within 1% / 5% of the timing optimum -- the classic
// low-power trade-off of Lillis, Cheng and Lin.
#include <iostream>

#include "analysis/reporting.hpp"
#include "core/cost_bounded.hpp"
#include "tree/generators.hpp"

int main() {
  using namespace vabi;

  tree::random_tree_options net_opts;
  net_opts.num_sinks = 80;
  net_opts.die_side_um = 9000.0;
  net_opts.seed = 5;
  const auto net = tree::make_random_tree(net_opts);

  core::cost_bounded_options opts;
  opts.base.library = timing::standard_library();
  opts.base.driver_res_ohm = 150.0;
  // Area-like costs: bigger buffers are pricier.
  opts.buffer_costs = {1.0, 2.0, 4.0};

  const auto solved = core::solve_cost_bounded_insertion(net, opts);
  if (!solved.ok()) {
    std::cerr << "failed: " << solved.error().message() << "\n";
    return 1;
  }
  const core::cost_bounded_result& r = *solved;
  std::cout << "net: " << net.num_sinks() << " sinks; frontier has "
            << r.frontier.size() << " points ("
            << r.stats.candidates_created << " candidates, "
            << r.stats.wall_seconds << " s)\n\n";

  analysis::text_table t{{"cost (area units)", "root RAT (ps)", "buffers"}};
  // Print a decimated view of the frontier (every step can be long).
  const std::size_t stride = std::max<std::size_t>(1, r.frontier.size() / 15);
  for (std::size_t i = 0; i + 1 < r.frontier.size(); i += stride) {
    const auto& p = r.frontier[i];
    t.add_row({analysis::fmt(p.cost, 0), analysis::fmt(p.root_rat_ps, 1),
               std::to_string(p.assignment.count())});
  }
  const auto& best = r.frontier.back();
  t.add_row({analysis::fmt(best.cost, 0), analysis::fmt(best.root_rat_ps, 1),
             std::to_string(best.assignment.count())});
  t.print(std::cout);

  for (const double frac : {0.01, 0.05}) {
    const double target = best.root_rat_ps - frac * std::abs(best.root_rat_ps);
    const auto cheap = r.cheapest_meeting(target);
    if (cheap.has_value()) {
      std::cout << "within " << frac * 100 << "% of optimum: cost "
                << cheap->cost << " instead of " << best.cost << " ("
                << cheap->assignment.count() << " vs "
                << best.assignment.count() << " buffers)\n";
    }
  }
  return 0;
}
