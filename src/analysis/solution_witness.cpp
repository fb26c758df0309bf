#include "analysis/solution_witness.hpp"

#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "analysis/buffered_tree_model.hpp"
#include "analysis/monte_carlo_validation.hpp"
#include "core/dp_engine.hpp"
#include "stats/term_pool.hpp"
#include "timing/wire_sizing.hpp"

namespace vabi::analysis {

namespace {

std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g (%a)", v, v);
  return buf;
}

/// Exact, field-by-field form comparison with a human-readable first-diff.
bool forms_identical(const stats::linear_form& claimed,
                     const stats::linear_form& witness, std::string& diff) {
  if (claimed.nominal() != witness.nominal()) {
    diff = "nominal differs: claimed " + fmt_double(claimed.nominal()) +
           ", witness " + fmt_double(witness.nominal());
    return false;
  }
  const auto ct = claimed.terms();
  const auto wt = witness.terms();
  if (ct.size() != wt.size()) {
    diff = "term count differs: claimed " + std::to_string(ct.size()) +
           ", witness " + std::to_string(wt.size());
    return false;
  }
  for (std::size_t k = 0; k < ct.size(); ++k) {
    if (ct[k].id != wt[k].id) {
      diff = "term " + std::to_string(k) + " source id differs: claimed " +
             std::to_string(ct[k].id) + ", witness " +
             std::to_string(wt[k].id);
      return false;
    }
    if (ct[k].coeff != wt[k].coeff) {
      diff = "term " + std::to_string(k) + " (source " +
             std::to_string(ct[k].id) + ") coefficient differs: claimed " +
             fmt_double(ct[k].coeff) + ", witness " + fmt_double(wt[k].coeff);
      return false;
    }
  }
  return true;
}

}  // namespace

witness_report audit_solution(const tree::routing_tree& tree,
                              const core::stat_options& options,
                              const layout::process_model_config& model_config,
                              layout::bbox die, std::size_t num_sources,
                              const core::stat_result& result,
                              const witness_options& opts) {
  witness_report report;

  if (result.stats.aborted) {
    report.skip_reason = "aborted results carry no winning solution to audit";
    return report;
  }
  if (options.library.empty()) {
    report.skip_reason = "empty buffer library";
    return report;
  }
  if (result.assignment.num_nodes() != 0 &&
      result.assignment.num_nodes() != tree.num_nodes()) {
    report.skip_reason = "assignment covers " +
                         std::to_string(result.assignment.num_nodes()) +
                         " nodes but the tree has " +
                         std::to_string(tree.num_nodes());
    return report;
  }

  // -- rebuild a variation space in which the claimed forms make sense ------
  layout::process_model model{die, model_config};
  const std::size_t prefix = model.space().size();
  if (num_sources < prefix) {
    report.skip_reason =
        "claimed source count is smaller than the model's deterministic "
        "prefix (wrong model config?)";
    return report;
  }

  const bool unbuffered = result.path == core::solve_path::unbuffered_fallback;
  const bool random_devices = model_config.mode.random_device &&
                              model_config.budgets.random_device.enabled();
  std::size_t position_count = 0;
  for (const auto& n : tree.nodes()) {
    if (!n.is_source()) ++position_count;
  }

  std::optional<core::device_cache> devices;
  if (!unbuffered) {
    if (random_devices) {
      const std::size_t sweep = position_count * options.library.size();
      if (num_sources < prefix + sweep) {
        report.skip_reason =
            "claimed source count cannot hold one characterization sweep";
        return report;
      }
      // The producing run's winning pass characterized *last* (a
      // corner_fallback retry re-sweeps after the aborted primary pass left
      // some sources behind). Pad up to the final sweep so the device ids
      // the witness registers coincide with the ids the winning forms use.
      const std::size_t pad = num_sources - prefix - sweep;
      for (std::size_t k = 0; k < pad; ++k) {
        model.space().add_source(stats::source_kind::random_device, 1.0);
      }
    }
    // Characterize every (node, type) in the canonical postorder x library
    // order -- the exact order of the serial engine's lazy calls.
    devices.emplace(tree, model, options.library);
    if (random_devices && model.space().size() != num_sources) {
      report.skip_reason = "source accounting mismatch after device sweep";
      return report;
    }
  }

  // -- straight-line evaluation of the chosen design ------------------------
  // The DP's own key-operation sequence (eqs. 33-38), applied once along the
  // winning design instead of over candidate lists: child forms propagate up
  // their wires, siblings fold left-to-right in child order, the assigned
  // buffer (if any) is applied at each node, the driver term at the root.
  // Same pooled kernels, same operand order, -ffp-contract=off: the result
  // must equal the DP's claimed form bit for bit.
  //
  // The unbuffered fallback path is evaluated the way evaluate_unbuffered
  // does it: base wire width only and no term dropping (the fallback ignores
  // term_prune_rel_eps).
  const double eps = unbuffered ? 0.0 : options.term_prune_rel_eps;
  const timing::wire_menu menu =
      timing::make_wire_menu(options.wire, options.wire_width_multipliers);
  const stats::variation_space& space = model.space();
  stats::term_pool pool;

  std::vector<stats::linear_form> loads(tree.num_nodes());
  std::vector<stats::linear_form> rats(tree.num_nodes());
  const bool has_assignment = result.assignment.num_nodes() != 0 && !unbuffered;
  for (tree::node_id id : tree.postorder()) {
    const auto& n = tree.node(id);
    if (n.is_sink()) {
      loads[id] = stats::linear_form{n.sink_cap_pf};
      rats[id] = stats::linear_form{n.sink_rat_ps};
    } else {
      bool first = true;
      for (tree::node_id child : n.children) {
        stats::linear_form load = std::move(loads[child]);
        stats::linear_form rat = std::move(rats[child]);
        const double um = tree.node(child).parent_wire_um;
        if (um != 0.0) {
          const timing::width_index w =
              unbuffered ? 0 : result.wires.width(child);
          if (w >= menu.size()) {
            report.skip_reason = "wire width index out of menu range";
            return report;
          }
          const double rl = menu[w].res_per_um * um;
          const double cl = menu[w].cap_per_um * um;
          rat = stats::pooled_sub_scaled(rat, rl, load, pool);
          rat -= 0.5 * rl * cl;
          load += cl;
        }
        if (first) {
          loads[id] = std::move(load);
          rats[id] = std::move(rat);
          first = false;
        } else {
          loads[id] = stats::pooled_add(loads[id], load, pool);
          rats[id] = stats::statistical_min(rats[id], rat, space, pool, eps);
        }
      }
    }
    if (!n.is_source() && has_assignment && result.assignment.has_buffer(id)) {
      const timing::buffer_index b = result.assignment.buffer(id);
      if (b >= options.library.size()) {
        report.skip_reason = "buffer index out of library range";
        return report;
      }
      const layout::device_variation& dv = devices->get(id, b);
      rats[id] = stats::pooled_sub(rats[id], dv.delay, pool);
      rats[id] = stats::pooled_sub_scaled(
          rats[id], options.library[b].res_ohm, loads[id], pool);
      loads[id] = dv.cap;
    }
  }

  stats::linear_form witness_rat = rats[tree.root()];
  witness_rat -= options.driver_res_ohm * loads[tree.root()];
  witness_rat.own_terms();
  stats::linear_form witness_load = loads[tree.root()];
  witness_load.own_terms();

  report.checked = true;
  report.match = forms_identical(result.root_rat, witness_rat, report.mismatch);
  report.witness_rat = std::move(witness_rat);
  report.witness_load = std::move(witness_load);
  if (!report.match) return report;  // no point sampling a disowned claim

  // -- Monte-Carlo spot check ----------------------------------------------
  // Exact Elmore evaluation at sample points, no canonical-form algebra: the
  // claimed form's normal must agree with what the design actually does.
  // Skipped for deterministic spaces (nothing to sample).
  const double claimed_sigma = result.root_rat.stddev(space);
  if (opts.mc_samples == 0 || claimed_sigma <= 0.0) {
    return report;
  }
  buffered_tree_model design{tree,
                             menu,
                             result.wires,
                             options.library,
                             result.assignment,
                             model,
                             options.driver_res_ohm};
  const rat_validation mc =
      validate_rat_model(design, model, opts.mc_samples, opts.mc_seed);
  report.mc_checked = true;
  report.model_mean_ps = mc.model_mean_ps;
  report.model_sigma_ps = mc.model_sigma_ps;
  report.mc_mean_ps = mc.mc_moments.mean;
  report.mc_sigma_ps = mc.mc_moments.stddev;
  report.ks_distance = mc.ks_distance;

  const double se =
      mc.model_sigma_ps / std::sqrt(static_cast<double>(opts.mc_samples));
  const double mean_budget = opts.max_mean_error_se * se + 1e-6;
  const double mean_err = std::abs(mc.mc_moments.mean - mc.model_mean_ps);
  report.mc_ok = true;
  if (mean_err > mean_budget) {
    report.mc_ok = false;
    report.mc_detail = "MC mean " + fmt_double(mc.mc_moments.mean) +
                       " deviates from model mean " +
                       fmt_double(mc.model_mean_ps) + " by " +
                       fmt_double(mean_err) + " ps (budget " +
                       fmt_double(mean_budget) + ")";
  } else if (mc.ks_distance > opts.max_ks_distance) {
    report.mc_ok = false;
    report.mc_detail =
        "KS distance " + fmt_double(mc.ks_distance) + " exceeds bound " +
        fmt_double(opts.max_ks_distance);
  }
  return report;
}

witness_report audit_solution(const core::batch_job& job,
                              const core::batch_result& result,
                              const witness_options& opts) {
  const tree::routing_tree* net = job.tree;
  if (net == nullptr && result.generated.has_value()) {
    net = &*result.generated;
  }
  if (net == nullptr) {
    witness_report report;
    report.skip_reason = "no tree available for this job";
    return report;
  }
  layout::bbox die = job.die;
  if (die.width() <= 0.0 || die.height() <= 0.0) {
    die = net->bounding_box();
    die.expand({die.lo.x - 1.0, die.lo.y - 1.0});
    die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
  }
  return audit_solution(*net, job.options, job.model, die,
                        result.model.space().size(), result.result, opts);
}

}  // namespace vabi::analysis
