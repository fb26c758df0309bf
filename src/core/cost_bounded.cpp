#include "core/cost_bounded.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>

namespace vabi::core {

namespace {

struct cost_candidate {
  double load_pf = 0.0;
  double rat_ps = 0.0;
  double cost = 0.0;
  const decision* why = nullptr;
};

using cand_list = std::vector<cost_candidate>;

/// 2-D (load -> best rat) Pareto front with cheap dominance queries, used to
/// accumulate "anything achievable at cost <= current level".
class load_rat_front {
 public:
  /// True if some entry has load <= `load` and rat >= `rat`.
  bool dominates(double load, double rat) const {
    auto it = entries_.upper_bound(load);
    if (it == entries_.begin()) return false;
    return std::prev(it)->second >= rat;
  }

  void insert(double load, double rat) {
    if (dominates(load, rat)) return;
    auto it = entries_.insert_or_assign(load, rat).first;
    // Entries at larger load with smaller-or-equal rat are now dominated.
    auto next = std::next(it);
    while (next != entries_.end() && next->second <= rat) {
      next = entries_.erase(next);
    }
    // If a smaller-load entry already had rat >= ours, `dominates` above
    // would have fired, so the map invariant (rat strictly increasing with
    // load) holds.
  }

 private:
  std::map<double, double> entries_;
};

/// Exact 3-D Pareto prune: keep (L, T, W) unless some candidate with
/// cost <= W has load <= L and rat >= T. Sorting by cost groups lets one
/// accumulated 2-D front answer every dominance query.
void prune_3d(cand_list& list, dp_stats& stats) {
  if (list.size() <= 1) return;
  std::sort(list.begin(), list.end(),
            [](const cost_candidate& a, const cost_candidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              if (a.load_pf != b.load_pf) return a.load_pf < b.load_pf;
              return a.rat_ps > b.rat_ps;
            });
  load_rat_front front;
  cand_list kept;
  kept.reserve(list.size());
  for (auto& c : list) {
    if (front.dominates(c.load_pf, c.rat_ps)) {
      ++stats.candidates_pruned;
      continue;
    }
    front.insert(c.load_pf, c.rat_ps);
    kept.push_back(std::move(c));
  }
  list = std::move(kept);
}

cost_bounded_result run_cost_bounded(const tree::routing_tree& tree,
                                     const cost_bounded_options& options) {
  const det_options& base = options.base;
  const auto cost_of = [&](timing::buffer_index b) {
    return options.buffer_costs.empty() ? 1.0 : options.buffer_costs[b];
  };
  const timing::wire_menu menu =
      timing::make_wire_menu(base.wire, base.wire_width_multipliers);

  const auto t_start = std::chrono::steady_clock::now();
  cost_bounded_result result;
  // Reused across runs on this thread; see van_ginneken.cpp. Frontier designs
  // are materialized (extract_design) before the arena can be reset again.
  static thread_local decision_arena t_arena;
  t_arena.reset();
  decision_arena& arena = t_arena;
  std::vector<cand_list> lists(tree.num_nodes());

  for (tree::node_id id : tree.postorder()) {
    const auto& n = tree.node(id);
    cand_list here;
    if (n.is_sink()) {
      here.push_back({n.sink_cap_pf, n.sink_rat_ps, 0.0, arena.leaf()});
      ++result.stats.candidates_created;
    } else {
      for (tree::node_id child : n.children) {
        cand_list up = std::move(lists[child]);
        lists[child].clear();
        // Wire propagation (possibly sized).
        const double um = tree.node(child).parent_wire_um;
        if (um > 0.0) {
          if (!menu.sizing_enabled()) {
            for (auto& c : up) {
              c.rat_ps -= menu[0].wire_delay(um, c.load_pf);
              c.load_pf += menu[0].wire_cap(um);
            }
          } else {
            cand_list sized;
            sized.reserve(up.size() * menu.size());
            for (const auto& c : up) {
              for (timing::width_index w = 0; w < menu.size(); ++w) {
                sized.push_back({c.load_pf + menu[w].wire_cap(um),
                                 c.rat_ps - menu[w].wire_delay(um, c.load_pf),
                                 c.cost, arena.wire_sized(child, w, c.why)});
                ++result.stats.candidates_created;
              }
            }
            up = std::move(sized);
          }
        }
        prune_3d(up, result.stats);
        if (here.empty()) {
          here = std::move(up);
        } else {
          // Cross-product merge: costs add, so the sorted-linear trick of
          // the 2-D engine does not apply ([9] pays the same price).
          cand_list merged;
          merged.reserve(here.size() * up.size());
          for (const auto& a : here) {
            for (const auto& b : up) {
              const double cost = a.cost + b.cost;
              if (options.max_cost > 0.0 && cost > options.max_cost) continue;
              merged.push_back({a.load_pf + b.load_pf,
                                std::min(a.rat_ps, b.rat_ps), cost,
                                arena.merged(a.why, b.why)});
              ++result.stats.merge_pairs;
              ++result.stats.candidates_created;
            }
          }
          here = std::move(merged);
          prune_3d(here, result.stats);
        }
      }
    }
    if (!n.is_source()) {
      const std::size_t basecount = here.size();
      for (timing::buffer_index b = 0; b < base.library.size(); ++b) {
        const auto& type = base.library[b];
        for (std::size_t k = 0; k < basecount; ++k) {
          const double cost = here[k].cost + cost_of(b);
          if (options.max_cost > 0.0 && cost > options.max_cost) continue;
          here.push_back({type.cap_pf,
                          here[k].rat_ps - type.delay_ps -
                              type.res_ohm * here[k].load_pf,
                          cost, arena.buffered(id, b, here[k].why)});
          ++result.stats.candidates_created;
        }
      }
      prune_3d(here, result.stats);
    }
    result.stats.peak_list_size =
        std::max(result.stats.peak_list_size, here.size());
    lists[id] = std::move(here);
  }

  // Root frontier: apply the driver, then keep the (cost, rat) Pareto curve.
  cand_list& root = lists[tree.root()];
  if (root.empty()) {
    throw std::logic_error("empty root list");
  }
  std::sort(root.begin(), root.end(),
            [&](const cost_candidate& a, const cost_candidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              return (a.rat_ps - base.driver_res_ohm * a.load_pf) >
                     (b.rat_ps - base.driver_res_ohm * b.load_pf);
            });
  double best_rat = -std::numeric_limits<double>::infinity();
  double last_cost = -1.0;
  for (const auto& c : root) {
    const double rat = c.rat_ps - base.driver_res_ohm * c.load_pf;
    if (c.cost == last_cost) continue;  // only the best per cost level
    if (rat <= best_rat) continue;      // must strictly improve the RAT
    best_rat = rat;
    last_cost = c.cost;
    design_choice design = extract_design(c.why, tree.num_nodes());
    result.frontier.push_back(
        {c.cost, rat, std::move(design.buffers), std::move(design.wires)});
  }
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  return result;
}

/// nullopt when the options are valid, otherwise an invalid_options error
/// whose detail names the offending field.
std::optional<solve_error> check_cost_options(
    const cost_bounded_options& options) {
  if (auto det = detail::check_det_options(options.base)) return det;
  const auto bad = [](const char* detail) {
    return solve_error{solve_code::invalid_options, tree::invalid_node,
                       detail};
  };
  if (!options.buffer_costs.empty() &&
      options.buffer_costs.size() != options.base.library.size()) {
    return bad("buffer_costs: size differs from the library's");
  }
  // A NaN cost breaks prune_3d's strict weak order; a negative one makes a
  // buffer pay for itself.
  for (const double c : options.buffer_costs) {
    if (!(c >= 0.0)) return bad("buffer_costs: every cost must be >= 0");
  }
  if (!(options.max_cost >= 0.0)) {
    return bad("max_cost: must be >= 0 (0 = unbounded)");
  }
  return std::nullopt;
}

}  // namespace

std::optional<cost_rat_point> cost_bounded_result::cheapest_meeting(
    double target_rat_ps) const {
  for (const auto& p : frontier) {
    if (p.root_rat_ps >= target_rat_ps) return p;
  }
  return std::nullopt;
}

solve_outcome<cost_bounded_result> solve_cost_bounded_insertion(
    const tree::routing_tree& tree, const cost_bounded_options& options) {
  return detail::guarded_solve<cost_bounded_result>(
      tree, check_cost_options(options),
      [&] { return run_cost_bounded(tree, options); });
}

}  // namespace vabi::core
