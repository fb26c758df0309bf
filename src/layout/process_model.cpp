#include "layout/process_model.hpp"

namespace vabi::layout {

const char* to_string(const variation_mode& mode) {
  if (mode == nom_mode()) return "NOM";
  if (mode == d2d_mode()) return "D2D";
  if (mode == wid_mode()) return "WID";
  return "custom";
}

process_model::process_model(bbox die, const process_model_config& config)
    : config_(config) {
  inter_die_source_ =
      space_.add_source(stats::source_kind::inter_die, 1.0, "G");
  spatial_ = std::make_unique<spatial_model>(die, config_.spatial, space_);
}

void process_model::locate(const point& loc) {
  if (located_ && loc == loc_) return;
  weights_ = spatial_->normalized_weights(loc);
  profile_ = spatial_->profile_factor(loc);
  loc_ = loc;
  located_ = true;
}

stats::linear_form process_model::build_form(
    double nominal, const form_budgets& budget,
    std::optional<stats::source_id> random) {
  // Source ids ascend as G (registered first), the Y cells (registered in
  // cell order, which normalized_weights preserves), then the newest X, so
  // appending in that order yields a sorted form. Zero coefficients are
  // skipped, as add_term skips them.
  terms_.clear();
  const auto put = [this](stats::source_id id, double coeff) {
    if (coeff != 0.0) terms_.push_back({id, coeff});
  };
  if (config_.mode.inter_die && config_.budgets.inter_die.enabled()) {
    // xi / eta of eqs. (23)-(24).
    put(inter_die_source_, budget.inter_die * nominal);
  }
  if (config_.mode.spatial && config_.budgets.spatial.enabled()) {
    // gamma_i / theta_i of eqs. (21)-(22): the local spatial sigma spread
    // over the location's normalized weights.
    const double sigma_local = budget.spatial * nominal * profile_;
    if (sigma_local != 0.0) {
      for (const auto& w : weights_) put(w.id, sigma_local * w.coeff);
    }
  }
  if (random.has_value()) {
    // alpha / beta of eqs. (19)-(20): sensitivity proportional to nominal.
    put(*random, budget.random_device * nominal);
  }
  stats::linear_form form = stats::linear_form::from_pooled(nominal, terms_);
  form.own_terms();
  return form;
}

device_variation process_model::characterize(const point& loc, double cap0,
                                             double delay0) {
  const variation_budgets& b = config_.budgets;
  device_variation dv;
  if (config_.mode.random_device && b.random_device.enabled()) {
    dv.random_source =
        space_.add_source(stats::source_kind::random_device, 1.0);
  }
  if (config_.mode.spatial && b.spatial.enabled()) locate(loc);
  dv.cap = build_form(
      cap0, {b.random_device.cap, b.spatial.cap, b.inter_die.cap},
      dv.random_source);
  dv.delay = build_form(
      delay0, {b.random_device.delay, b.spatial.delay, b.inter_die.delay},
      dv.random_source);
  return dv;
}

}  // namespace vabi::layout
