#include "core/statistical_dp.hpp"

#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <optional>
#include <vector>

#include "core/dp_engine.hpp"
#include "core/slab_cache_impl.hpp"
#include "testing/fault_injection.hpp"

namespace vabi::core {

const char* to_string(pruning_kind kind) {
  switch (kind) {
    case pruning_kind::two_param:
      return "2P";
    case pruning_kind::four_param:
      return "4P";
    case pruning_kind::corner:
      return "1P";
  }
  return "?";
}

const char* to_string(degrade_policy policy) {
  switch (policy) {
    case degrade_policy::none:
      return "none";
    case degrade_policy::retry_deterministic:
      return "retry_deterministic";
    case degrade_policy::best_partial:
      return "best_partial";
  }
  return "?";
}

const char* to_string(solve_path path) {
  switch (path) {
    case solve_path::primary:
      return "primary";
    case solve_path::corner_fallback:
      return "corner_fallback";
    case solve_path::unbuffered_fallback:
      return "unbuffered_fallback";
  }
  return "?";
}

namespace detail {

namespace {

/// nullopt when the options are valid, otherwise an invalid_options error
/// whose detail names the offending field.
std::optional<solve_error> check_stat_options(const stat_options& options) {
  const auto bad = [](std::string detail) {
    return solve_error{solve_code::invalid_options, tree::invalid_node,
                       std::move(detail)};
  };
  const auto open01 = [](double p) { return p > 0.0 && p < 1.0; };

  if (options.library.empty()) return bad("library: empty buffer library");
  try {
    options.wire.validate();
  } catch (const std::exception& e) {
    return bad(std::string("wire: ") + e.what());
  }
  if (!std::isfinite(options.driver_res_ohm) || options.driver_res_ohm < 0.0) {
    return bad("driver_res_ohm: must be finite and >= 0");
  }
  if (options.wire_width_multipliers.empty()) {
    return bad("wire_width_multipliers: must not be empty");
  }
  for (const double m : options.wire_width_multipliers) {
    if (!std::isfinite(m) || m <= 0.0) {
      return bad("wire_width_multipliers: every multiplier must be > 0");
    }
  }
  if (!open01(options.root_percentile)) {
    return bad("root_percentile: must be in (0, 1)");
  }
  if (!open01(options.selection_percentile)) {
    return bad("selection_percentile: must be in (0, 1)");
  }
  if (!(options.term_prune_rel_eps >= 0.0 &&
        options.term_prune_rel_eps < 1.0)) {
    return bad("term_prune_rel_eps: must be in [0, 1)");
  }
  switch (options.rule) {
    case pruning_kind::two_param: {
      const auto& r = options.two_param;
      // p = 1 would ask for certainty: its z threshold is +inf.
      if (!(r.p_load >= 0.5 && r.p_load < 1.0)) {
        return bad("two_param.p_load: must be in [0.5, 1)");
      }
      if (!(r.p_rat >= 0.5 && r.p_rat < 1.0)) {
        return bad("two_param.p_rat: must be in [0.5, 1)");
      }
      if (r.sweep_window == 0) {
        return bad("two_param.sweep_window: must be >= 1");
      }
      break;
    }
    case pruning_kind::four_param: {
      const auto& r = options.four_param;
      if (!open01(r.alpha_lo)) return bad("four_param.alpha_lo: must be in (0, 1)");
      if (!open01(r.alpha_hi)) return bad("four_param.alpha_hi: must be in (0, 1)");
      if (!open01(r.beta_lo)) return bad("four_param.beta_lo: must be in (0, 1)");
      if (!open01(r.beta_hi)) return bad("four_param.beta_hi: must be in (0, 1)");
      break;
    }
    case pruning_kind::corner:
      if (!open01(options.corner.percentile)) {
        return bad("corner.percentile: must be in (0, 1)");
      }
      break;
  }
  if (!(options.max_wall_seconds >= 0.0)) {
    return bad("max_wall_seconds: must be >= 0");
  }
  return std::nullopt;
}

}  // namespace

layout::device_variation characterize_device(layout::process_model& model,
                                             const tree::routing_tree& tree,
                                             tree::node_id id,
                                             const timing::buffer_type& type) {
  layout::device_variation dv = model.characterize(
      tree.node(id).location, type.cap_pf, type.delay_ps);
  if (testing::should_fire(testing::fault_point::device_nan, id)) {
    dv.delay += std::numeric_limits<double>::quiet_NaN();
  }
  return dv;
}

stat_result run_serial(const tree::routing_tree& tree,
                       const stats::variation_space& space,
                       const stat_options& options, device_fn devices,
                       decision_arena& arena, worker_arena& mem,
                       std::vector<node_list>& lists,
                       const session_pass* session, const cancel_token* cancel,
                       dp_clock::time_point t_start) {
  const timing::wire_menu menu =
      timing::make_wire_menu(options.wire, options.wire_width_multipliers);
  dp_stats dps;
  std::size_t published = 0;
  dp_worker worker{tree,
                   space,
                   options,
                   menu,
                   std::move(devices),
                   arena,
                   mem,
                   dps,
                   resource_guard{options, dps, published, nullptr, cancel,
                                  t_start}};

  // Li-Shi per-type frontier (li_shi.hpp); other regimes keep the worker's
  // li_shi null and take the scan path.
  buffer_frontier frontier;
  li_shi_state li_state;
  if (li_shi_engaged(options)) {
    frontier = buffer_frontier{options.library};
    li_state.frontier = &frontier;
    worker.li_shi = &li_state;
  }

  for (const tree::node_id id : tree.postorder()) {
    if (session != nullptr && session->marked[id] == 0) continue;  // adopted
    if (dps.aborted) break;
    node_list here = worker.solve_node(id, lists);
    if (dps.aborted) break;
    if (session != nullptr) {
      ++dps.cache_misses;
      // Store before the parent consumes the list. An aborted node (and its
      // never-solved ancestors) stores nothing -- the trip invalidates
      // exactly the affected path while earlier sealed entries stay valid.
      if (session->store) {
        session->state.store(id, tree.subtree_hash(id), here);
      }
    }
    lists[id] = std::move(here);
  }

  stat_result result;
  if (!dps.aborted) result = worker.select_root(lists[tree.root()]);
  if (dps.aborted) {
    result.assignment = timing::buffer_assignment(tree.num_nodes());
  }
  dps.wall_seconds =
      std::chrono::duration<double>(dp_clock::now() - t_start).count();
  result.stats = dps;
  return result;
}

namespace {

/// A one-shot serial solve without entry validation: this thread's reused
/// arenas, devices characterized lazily through `model`.
stat_result run_one_shot(const tree::routing_tree& tree,
                         layout::process_model& model,
                         const stat_options& options,
                         const cancel_token* cancel) {
  // One arena set per thread, reused across runs: batch_solver fans nets
  // across its pool threads, and each thread's scratch pool / decision slabs
  // / recycled lists reach steady state after the first net (zero
  // allocations per node from then on). reset()/begin_run() invalidate the
  // previous run's storage, which is sound because results are materialized
  // (own_terms, extract_design) before the run returns.
  static thread_local decision_arena t_arena;
  static thread_local worker_arena t_pool;
  t_arena.reset();
  t_pool.begin_run();
  std::vector<node_list> lists(tree.num_nodes());
  // Lazy characterization, one call per (node, type) in postorder -- the
  // source-id allocation order device_cache and the session memo reproduce.
  return run_serial(
      tree, model.space(), options,
      [&model, &options, &tree](tree::node_id id, timing::buffer_index b) {
        return characterize_device(model, tree, id, options.library[b]);
      },
      t_arena, t_pool, lists, nullptr, cancel, dp_clock::now());
}

/// Last-resort evaluation of the tree with no buffers inserted
/// (degrade_policy::best_partial): one value-semantics postorder pass over
/// the statistical wire and merge operations (eqs. 33-34, 37-38) -- no
/// candidates, no arenas, no caps. Never fails.
stat_result evaluate_unbuffered(const tree::routing_tree& tree,
                                layout::process_model& model,
                                const stat_options& options) {
  const stats::variation_space& space = model.space();
  const timing::wire_model wire =
      timing::make_wire_menu(options.wire, options.wire_width_multipliers)[0];

  std::vector<stats::linear_form> loads(tree.num_nodes());
  std::vector<stats::linear_form> rats(tree.num_nodes());
  for (tree::node_id id : tree.postorder()) {
    const auto& n = tree.node(id);
    if (n.is_sink()) {
      loads[id] = stats::linear_form{n.sink_cap_pf};
      rats[id] = stats::linear_form{n.sink_rat_ps};
      continue;
    }
    bool first = true;
    for (tree::node_id child : n.children) {
      stats::linear_form load = std::move(loads[child]);
      stats::linear_form rat = std::move(rats[child]);
      const double um = tree.node(child).parent_wire_um;
      if (um != 0.0) {
        const double rl = wire.res_per_um * um;
        const double cl = wire.cap_per_um * um;
        rat -= rl * load;
        rat -= 0.5 * rl * cl;
        load += cl;
      }
      if (first) {
        loads[id] = std::move(load);
        rats[id] = std::move(rat);
        first = false;
      } else {
        loads[id] += load;
        rats[id] = stats::statistical_min(rats[id], rat, space);
      }
    }
  }

  stat_result result;
  stats::linear_form root_rat = std::move(rats[tree.root()]);
  root_rat -= options.driver_res_ohm * loads[tree.root()];
  result.root_rat = std::move(root_rat);
  result.assignment = timing::buffer_assignment(tree.num_nodes());
  result.num_buffers = 0;
  return result;
}

/// Applies options.degrade to a failed solve. Returns `err` unchanged when
/// the policy is none, the code is not degradable, or every fallback failed
/// too.
solve_outcome<stat_result> degrade_or_error(const tree::routing_tree& tree,
                                            layout::process_model& model,
                                            const stat_options& options,
                                            const cancel_token* cancel,
                                            solve_error&& err) {
  const bool degradable = err.code == solve_code::candidate_cap ||
                          err.code == solve_code::memory_cap ||
                          err.code == solve_code::deadline_exceeded;
  if (options.degrade == degrade_policy::none || !degradable) {
    return std::move(err);
  }

  // Retry with the deterministic-complexity corner rule on the serial engine
  // (deterministic and thread-invariant by construction). The retry gets a
  // fresh wall budget; re-characterization registers fresh variation-source
  // ids in `model`, with values identical to the first attempt's.
  stat_options retry = options;
  retry.rule = pruning_kind::corner;
  retry.degrade = degrade_policy::none;
  try {
    stat_result r = run_one_shot(tree, model, retry, cancel);
    if (!r.stats.aborted) {
      r.path = solve_path::corner_fallback;
      return r;
    }
  } catch (const std::exception&) {
    // The fallback failed too; fall through to best_partial or the original
    // error.
  }

  if (options.degrade == degrade_policy::best_partial) {
    stat_result r = evaluate_unbuffered(tree, model, options);
    r.path = solve_path::unbuffered_fallback;
    return r;
  }
  return std::move(err);
}

}  // namespace

solve_outcome<stat_result> stat_entry(const tree::routing_tree& tree,
                                      layout::process_model& model,
                                      const stat_options& options,
                                      const cancel_token* cancel,
                                      const std::function<stat_result()>& run) {
  solve_outcome<stat_result> out =
      guarded_solve<stat_result>(tree, check_stat_options(options), run);
  if (out.ok()) return out;
  return degrade_or_error(tree, model, options, cancel,
                          std::move(out.error()));
}

}  // namespace detail

solve_outcome<stat_result> solve_statistical_insertion(
    const tree::routing_tree& tree, layout::process_model& model,
    const stat_options& options, const cancel_token* cancel) {
  return detail::stat_entry(tree, model, options, cancel, [&] {
    return detail::run_one_shot(tree, model, options, cancel);
  });
}

}  // namespace vabi::core
