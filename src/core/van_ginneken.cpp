#include "core/van_ginneken.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pruning.hpp"

namespace vabi::core {

namespace {

using cand_list = std::vector<det_candidate>;

/// Propagates every candidate through the edge above `child` (eqs. 25-26).
/// Without sizing this is in-place; with a multi-width menu each candidate
/// fans out into one variant per width (recorded as a wire decision) and the
/// caller's prune collapses the dominated ones. Load order is preserved in
/// the single-width case; RAT order may change, so callers re-prune.
void propagate_wire(cand_list& list, const timing::wire_menu& menu,
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
  cand_list out;
  out.reserve(list.size() * menu.size());
  for (const auto& c : list) {
    for (timing::width_index w = 0; w < menu.size(); ++w) {
      const timing::wire_model& wire = menu[w];
      det_candidate v;
      v.rat_ps = c.rat_ps - wire.wire_delay(um, c.load_pf);
      v.load_pf = c.load_pf + wire.wire_cap(um);
      v.why = arena.wire_sized(child, w, c.why);
      out.push_back(v);
      ++stats.candidates_created;
    }
  }
  list = std::move(out);
}

/// Classic linear merge of two pruned lists (both sorted by load asc, rat
/// asc): at most n + m - 1 combinations are materialized (Fig. 1).
cand_list merge_lists(const cand_list& a, const cand_list& b,
                      decision_arena& arena, dp_stats& stats) {
  cand_list out;
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

/// The postorder DP; decisions go to `arena`.
det_result run_vg_impl(const tree::routing_tree& tree,
                       const det_options& options, decision_arena& arena) {
  const timing::wire_menu menu =
      timing::make_wire_menu(options.wire, options.wire_width_multipliers);
  const auto t_start = std::chrono::steady_clock::now();

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

  det_result result;
  std::vector<cand_list> lists(tree.num_nodes());

  for (tree::node_id id : tree.postorder()) {
    const auto& n = tree.node(id);
    cand_list here;
    if (n.is_sink()) {
      here.push_back({n.sink_cap_pf, n.sink_rat_ps, arena.leaf()});
      ++result.stats.candidates_created;
    } else {
      for (tree::node_id child : n.children) {
        cand_list up = std::move(lists[child]);
        lists[child].clear();
        propagate_wire(up, menu, child, tree.node(child).parent_wire_um, arena,
                       result.stats);
        if (use_frontier && !menu.sizing_enabled()) {
          // Single-width wire propagation shifts every load by the same wire
          // cap, so the child's pruned (sorted) list is still sorted: only
          // the dominance sweep is needed. With sizing the fan-out is
          // arbitrary and the full prune stays.
          prune_deterministic_sorted(up, result.stats);
        } else {
          prune_deterministic(up, result.stats);
        }
        if (here.empty()) {
          here = std::move(up);
        } else {
          here = merge_lists(here, up, arena, result.stats);
          prune_deterministic(here, result.stats);
        }
      }
    }
    if (!n.is_source()) {
      // One buffered candidate per type: load becomes C_b, so only the best
      // post-buffer RAT matters (eqs. 27-28).
      const std::size_t base = here.size();
      if (use_frontier && base > 0) {
        // Li-Shi: one monotone pass finds every type's best candidate; the
        // key expression and the leftmost / strictly-greater tie rule are
        // the scan path's, so the emitted candidates are identical.
        // Packed key copies: the divide-and-conquer revisits rows many
        // times, and contiguous doubles scan faster than the 24-byte
        // candidate stride.
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
          ++result.stats.candidates_created;
        }
        ++result.stats.li_shi_nodes;
        // The base is already pruned (sorted); only the b appended buffered
        // candidates need placing. Re-sorting everything -- the classic
        // path's per-node O(n log n) -- is the other half of the b-factor
        // Li-Shi's organization removes.
        prune_deterministic_presorted(here, base, result.stats);
      } else {
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
            ++result.stats.candidates_created;
          }
        }
        prune_deterministic(here, result.stats);
      }
    }
    result.stats.peak_list_size =
        std::max(result.stats.peak_list_size, here.size());
    lists[id] = std::move(here);
  }

  const cand_list& root_list = lists[tree.root()];
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
    result.stats.aborted = true;
    result.stats.abort_code = solve_code::nonfinite_value;
    result.stats.abort_node = tree.root();
    result.stats.abort_reason = "no root candidate has an orderable RAT";
    return result;
  }
  result.root_rat_ps = best_rat;
  design_choice design = extract_design(best->why, tree.num_nodes());
  result.assignment = std::move(design.buffers);
  result.wires = std::move(design.wires);
  result.num_buffers = result.assignment.count();
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  return result;
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
      tree, detail::check_det_options(options), [&] {
        // Reused across runs on this thread (batch paths fan nets across
        // pool threads): the chunked slabs reach steady state after the
        // first net. Safe because the result is materialized
        // (extract_design) before returning.
        static thread_local decision_arena t_arena;
        t_arena.reset();
        return run_vg_impl(tree, options, t_arena);
      });
}

}  // namespace vabi::core
