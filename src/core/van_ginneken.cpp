#include "core/van_ginneken.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cost_bounded.hpp"
#include "core/pruning.hpp"

namespace vabi::core {

namespace {

// -- The recursion both deterministic engines share --------------------------

/// The deterministic engines' decision arena: one per thread, rewound per
/// solve. Batch paths fan nets across pool threads, and the chunked slabs
/// reach steady state after the first net. Safe because every engine
/// materializes its designs (extract_design) before it returns.
decision_arena& thread_arena() {
  static thread_local decision_arena arena;
  arena.reset();
  return arena;
}

/// Propagates every candidate through the edge above `child` (eqs. 25-26).
/// Without sizing this is in-place; with a multi-width menu each candidate
/// fans out into one variant per width (recorded as a wire decision, the
/// extension of [8]) and the engine's edge prune collapses the dominated
/// ones. Load order is preserved in the single-width case; RAT order may
/// change, so engines re-prune.
template <class Cand>
void propagate_wire(std::vector<Cand>& list, const timing::wire_menu& menu,
                    tree::node_id child, double um, decision_arena& arena,
                    dp_stats& stats) {
  if (um == 0.0) return;
  if (!menu.sizing_enabled()) {
    const timing::wire_model& wire = menu[0];
    for (auto& c : list) {
      c.rat_ps -= wire.wire_delay(um, c.load_pf);
      c.load_pf += wire.wire_cap(um);
    }
    return;
  }
  std::vector<Cand> out;
  out.reserve(list.size() * menu.size());
  for (const auto& c : list) {
    for (timing::width_index w = 0; w < menu.size(); ++w) {
      const timing::wire_model& wire = menu[w];
      Cand v = c;
      v.rat_ps = c.rat_ps - wire.wire_delay(um, c.load_pf);
      v.load_pf = c.load_pf + wire.wire_cap(um);
      v.why = arena.wire_sized(child, w, c.why);
      out.push_back(v);
      ++stats.candidates_created;
    }
  }
  list = std::move(out);
}

/// The postorder DP of Section 2.1 both deterministic engines run, in the
/// shape of dp_engine.hpp's worker: a leaf per sink; per child, the wire step
/// and the engine's `edge_prune(list)`, then `merge(here, up)` (two pruned
/// lists in, the pruned merge out); `buffer(list, node)` at every position
/// but the source, which appends the buffered candidates and prunes.
/// Returns the source's list for the engine's own root selection.
template <class Cand, class EdgePrune, class Merge, class Buffer>
std::vector<Cand> run_postorder(const tree::routing_tree& tree,
                                const timing::wire_menu& menu,
                                decision_arena& arena, dp_stats& stats,
                                EdgePrune&& edge_prune, Merge&& merge,
                                Buffer&& buffer) {
  std::vector<std::vector<Cand>> lists(tree.num_nodes());
  for (tree::node_id id : tree.postorder()) {
    const auto& n = tree.node(id);
    std::vector<Cand> here;
    if (n.is_sink()) {
      here.push_back({.load_pf = n.sink_cap_pf,
                      .rat_ps = n.sink_rat_ps,
                      .why = arena.leaf()});
      ++stats.candidates_created;
    } else {
      for (tree::node_id child : n.children) {
        std::vector<Cand> up = std::move(lists[child]);
        lists[child].clear();
        propagate_wire(up, menu, child, tree.node(child).parent_wire_um,
                       arena, stats);
        edge_prune(up);
        if (here.empty()) {
          here = std::move(up);
        } else {
          here = merge(here, up);
        }
      }
    }
    if (!n.is_source()) buffer(here, id);
    stats.peak_list_size = std::max(stats.peak_list_size, here.size());
    lists[id] = std::move(here);
  }
  return std::move(lists[tree.root()]);
}

// -- van Ginneken (NOM) ------------------------------------------------------

using det_list = std::vector<det_candidate>;

/// Classic linear merge of two pruned lists (both sorted by load asc, rat
/// asc): at most n + m - 1 combinations are materialized (Fig. 1).
det_list merge_lists(const det_list& a, const det_list& b,
                     decision_arena& arena, dp_stats& stats) {
  det_list out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    det_candidate c;
    c.load_pf = a[i].load_pf + b[j].load_pf;
    c.rat_ps = std::min(a[i].rat_ps, b[j].rat_ps);
    c.why = arena.merged(a[i].why, b[j].why);
    out.push_back(c);
    ++stats.merge_pairs;
    // Advance the side that limits the RAT: pairing it with any larger load
    // from the other side could only add load without improving min(T).
    if (a[i].rat_ps < b[j].rat_ps) {
      ++i;
    } else if (a[i].rat_ps > b[j].rat_ps) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  stats.candidates_created += out.size();
  return out;
}

/// The NOM engine: linear merge, the dominance prune, one buffered candidate
/// per type, and the root with the best RAT behind the driver.
det_result run_van_ginneken(const tree::routing_tree& tree,
                            const det_options& options) {
  const auto t_start = std::chrono::steady_clock::now();
  const timing::wire_menu menu =
      timing::make_wire_menu(options.wire, options.wire_width_multipliers);
  decision_arena& arena = thread_arena();
  det_result result;
  dp_stats& stats = result.stats;

  // Li-Shi per-type frontier (li_shi.hpp): type order built once per run,
  // per-type argmax found by monotone divide-and-conquer at every position.
  const bool use_frontier =
      li_shi_enabled(options.li_shi, options.library.size());
  buffer_frontier frontier;
  std::vector<std::size_t> best_per_type;
  std::vector<double> key_load;
  std::vector<double> key_rat;
  std::vector<double> type_delay;
  std::vector<double> type_res;
  if (use_frontier) {
    frontier = buffer_frontier{options.library};
    for (timing::buffer_index b = 0; b < options.library.size(); ++b) {
      type_delay.push_back(options.library[b].delay_ps);
      type_res.push_back(options.library[b].res_ohm);
    }
  }

  const auto edge_prune = [&](det_list& up) {
    if (use_frontier && !menu.sizing_enabled()) {
      // Single-width wire propagation shifts every load by the same wire
      // cap, so the child's pruned (sorted) list is still sorted: only the
      // dominance sweep is needed. With sizing the fan-out is arbitrary and
      // the full prune stays.
      prune_deterministic_sorted(up, stats);
    } else {
      prune_deterministic(up, stats);
    }
  };
  const auto merge = [&](const det_list& a, const det_list& b) {
    det_list out = merge_lists(a, b, arena, stats);
    prune_deterministic(out, stats);
    return out;
  };
  // One buffered candidate per type: load becomes C_b, so only the best
  // post-buffer RAT matters (eqs. 27-28).
  const auto buffer = [&](det_list& here, tree::node_id id) {
    const std::size_t base = here.size();
    if (use_frontier && base > 0) {
      // Li-Shi: one monotone pass finds every type's best candidate; the key
      // expression and the leftmost / strictly-greater tie rule are the scan
      // path's, so the emitted candidates are identical. Packed key copies:
      // the divide-and-conquer revisits rows many times, and contiguous
      // doubles scan faster than the 24-byte candidate stride.
      key_load.resize(base);
      key_rat.resize(base);
      for (std::size_t k = 0; k < base; ++k) {
        key_load[k] = here[k].load_pf;
        key_rat[k] = here[k].rat_ps;
      }
      frontier.best_per_type(base, key_load.data(), key_rat.data(),
                             type_delay.data(), type_res.data(),
                             best_per_type);
      for (timing::buffer_index b = 0; b < options.library.size(); ++b) {
        const std::size_t k = best_per_type[b];
        if (k == li_shi_npos) continue;  // all keys NaN: the scan skips too
        const auto& type = options.library[b];
        const double best_rat =
            here[k].rat_ps - type.delay_ps - type.res_ohm * here[k].load_pf;
        here.push_back(
            {type.cap_pf, best_rat, arena.buffered(id, b, here[k].why)});
        ++stats.candidates_created;
      }
      ++stats.li_shi_nodes;
      // The base is already pruned (sorted); only the b appended buffered
      // candidates need placing. Re-sorting everything -- the classic path's
      // per-node O(n log n) -- is the other half of the b-factor Li-Shi's
      // organization removes.
      prune_deterministic_presorted(here, base, stats);
      return;
    }
    for (timing::buffer_index b = 0; b < options.library.size(); ++b) {
      const auto& type = options.library[b];
      double best_rat = -std::numeric_limits<double>::infinity();
      const decision* best_why = nullptr;
      for (std::size_t k = 0; k < base; ++k) {
        const double rat =
            here[k].rat_ps - type.delay_ps - type.res_ohm * here[k].load_pf;
        if (rat > best_rat) {
          best_rat = rat;
          best_why = here[k].why;
        }
      }
      if (best_why != nullptr) {
        here.push_back(
            {type.cap_pf, best_rat, arena.buffered(id, b, best_why)});
        ++stats.candidates_created;
      }
    }
    prune_deterministic(here, stats);
  };
  const det_list root_list = run_postorder<det_candidate>(
      tree, menu, arena, stats, edge_prune, merge, buffer);

  if (root_list.empty()) {
    throw std::logic_error("no candidate at root");
  }
  const det_candidate* best = nullptr;
  double best_rat = -std::numeric_limits<double>::infinity();
  for (const auto& c : root_list) {
    const double rat = c.rat_ps - options.driver_res_ohm * c.load_pf;
    if (rat > best_rat) {
      best_rat = rat;
      best = &c;
    }
  }
  if (best == nullptr) {
    // No key beat -inf: NaN or -inf reached every root candidate (e.g.
    // through an infinite wire resistance).
    stats.aborted = true;
    stats.abort_code = solve_code::nonfinite_value;
    stats.abort_node = tree.root();
    stats.abort_reason = "no root candidate has an orderable RAT";
    return result;
  }
  result.root_rat_ps = best_rat;
  design_choice design = extract_design(best->why, tree.num_nodes());
  result.assignment = std::move(design.buffers);
  result.wires = std::move(design.wires);
  result.num_buffers = result.assignment.count();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  return result;
}

// -- Cost-bounded insertion [9] ----------------------------------------------

struct cost_candidate {
  double load_pf = 0.0;
  double rat_ps = 0.0;
  double cost = 0.0;
  const decision* why = nullptr;
};

using cost_list = std::vector<cost_candidate>;

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
void prune_3d(cost_list& list, dp_stats& stats) {
  if (list.size() <= 1) return;
  std::sort(list.begin(), list.end(),
            [](const cost_candidate& a, const cost_candidate& b) {
              if (a.cost != b.cost) return a.cost < b.cost;
              if (a.load_pf != b.load_pf) return a.load_pf < b.load_pf;
              return a.rat_ps > b.rat_ps;
            });
  load_rat_front front;
  cost_list kept;
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

/// The cost-bounded engine: candidates carry the buffer cost spent in their
/// subtree, merges and buffered steps pay for the cross product, the 3-D
/// prune keeps each cost level's 2-D front, and the root keeps the
/// (cost, RAT) Pareto curve.
cost_bounded_result run_cost_bounded(const tree::routing_tree& tree,
                                     const cost_bounded_options& options) {
  const det_options& base = options.base;
  const auto t_start = std::chrono::steady_clock::now();
  const timing::wire_menu menu =
      timing::make_wire_menu(base.wire, base.wire_width_multipliers);
  decision_arena& arena = thread_arena();
  cost_bounded_result result;
  dp_stats& stats = result.stats;
  const auto cost_of = [&](timing::buffer_index b) {
    return options.buffer_costs.empty() ? 1.0 : options.buffer_costs[b];
  };

  const auto edge_prune = [&](cost_list& up) { prune_3d(up, stats); };
  // Cross-product merge: costs add, so the sorted-linear trick of the 2-D
  // engine does not apply ([9] pays the same price).
  const auto merge = [&](const cost_list& here, const cost_list& up) {
    cost_list merged;
    merged.reserve(here.size() * up.size());
    for (const auto& a : here) {
      for (const auto& b : up) {
        const double cost = a.cost + b.cost;
        if (options.max_cost > 0.0 && cost > options.max_cost) continue;
        merged.push_back({a.load_pf + b.load_pf, std::min(a.rat_ps, b.rat_ps),
                          cost, arena.merged(a.why, b.why)});
        ++stats.merge_pairs;
        ++stats.candidates_created;
      }
    }
    prune_3d(merged, stats);
    return merged;
  };
  const auto buffer = [&](cost_list& here, tree::node_id id) {
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
        ++stats.candidates_created;
      }
    }
    prune_3d(here, stats);
  };
  cost_list root = run_postorder<cost_candidate>(tree, menu, arena, stats,
                                                 edge_prune, merge, buffer);

  // Root frontier: apply the driver, then keep the (cost, rat) Pareto curve.
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
  stats.wall_seconds =
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

namespace detail {

std::optional<solve_error> check_det_options(const det_options& options) {
  const auto bad = [](std::string detail) {
    return solve_error{solve_code::invalid_options, tree::invalid_node,
                       std::move(detail)};
  };
  if (options.library.empty()) return bad("library: empty buffer library");
  try {
    (void)timing::make_wire_menu(options.wire, options.wire_width_multipliers);
  } catch (const std::exception& e) {
    return bad(std::string("wire: ") + e.what());
  }
  return std::nullopt;
}

}  // namespace detail

solve_outcome<det_result> solve_van_ginneken(const tree::routing_tree& tree,
                                             const det_options& options) {
  return detail::guarded_solve<det_result>(
      tree, detail::check_det_options(options),
      [&] { return run_van_ginneken(tree, options); });
}

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
