// First-order process-variation model (paper Section 3, eqs. 23-24).
//
// Assembles, for a device instance at a die location t, the canonical forms
//
//   C_b,t = C_b0 + alpha * X_t + sum_{i in I_t} gamma_i * Y_i + xi  * G
//   T_b,t = T_b0 + beta  * X_t + sum_{i in I_t} theta_i * Y_i + eta * G
//
// where X_t is the device's private random source, Y_i the spatial grid
// sources shared through the spatial_model, and G the global inter-die
// source. The experiments budget each class at 5% of the nominal value
// (Section 5.1); both characteristics of one device are driven by the *same*
// underlying sources (eqs. 19-20 share the X_i), so C and T of one buffer are
// fully correlated through X_t, Y_i and G with coefficients proportional to
// their nominals.
//
// The NOM / D2D / WID optimization modes of Section 5.3 are expressed by
// enabling subsets of the three variation classes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "layout/spatial_model.hpp"
#include "stats/linear_form.hpp"
#include "stats/variation_space.hpp"

namespace vabi::layout {

/// Which variation classes an optimization run models.
struct variation_mode {
  bool random_device = false;
  bool inter_die = false;
  bool spatial = false;

  friend bool operator==(const variation_mode&, const variation_mode&) = default;
};

/// Deterministic: all design variables at nominal (paper's "NOM").
constexpr variation_mode nom_mode() { return {false, false, false}; }
/// Random device + die-to-die, no spatial correlation (paper's "D2D").
constexpr variation_mode d2d_mode() { return {true, true, false}; }
/// All classes including within-die spatial correlation (paper's "WID").
constexpr variation_mode wid_mode() { return {true, true, true}; }

const char* to_string(const variation_mode& mode);

/// Relative (fraction-of-nominal) one-sigma budget of one variation class.
/// The paper budgets each class at 5% of nominal at the *parameter* level
/// (Section 5.1); a device's capacitance and delay respond with different
/// sensitivities (eqs. 19-20: alpha_i vs beta_i), so the two fractions are
/// kept separately. The characterization flow (device/characterize.hpp)
/// measures them -- e.g. our 65nm-flavor model turns 5% L_eff sigma into
/// ~10.5% delay sigma but only 5% capacitance sigma.
struct class_budget {
  double cap = 0.05;    ///< sigma(C_b) / C_b0
  double delay = 0.05;  ///< sigma(T_b) / T_b0

  bool enabled() const { return cap > 0.0 || delay > 0.0; }
};

/// Budgets for the three variation classes of the model.
struct variation_budgets {
  class_budget random_device;
  class_budget inter_die;
  class_budget spatial;
};

struct process_model_config {
  variation_budgets budgets;
  variation_mode mode = wid_mode();
  spatial_model_config spatial;
};

/// The C/T canonical forms of one characterized device instance.
struct device_variation {
  stats::linear_form cap;    ///< C_b,t, in pF
  stats::linear_form delay;  ///< T_b,t, in ps
  /// The device's private random source (invalid if random variation is off).
  std::optional<stats::source_id> random_source;
};

/// Owns the variation space and the spatial model of one analysis and
/// manufactures device_variation forms on demand.
class process_model {
 public:
  process_model(bbox die, const process_model_config& config);

  const stats::variation_space& space() const { return space_; }
  stats::variation_space& space() { return space_; }
  const process_model_config& config() const { return config_; }
  const variation_mode& mode() const { return config_.mode; }
  const spatial_model& spatial() const { return *spatial_; }

  bool is_deterministic() const {
    return !config_.mode.random_device && !config_.mode.inter_die &&
           !config_.mode.spatial;
  }

  /// Builds the forms for a device with nominals (cap0 [pF], delay0 [ps]) at
  /// die location `loc`. Each call registers a fresh private random source
  /// (when random variation is enabled); callers that can re-instantiate the
  /// same physical device must cache the result.
  ///
  /// Every engine characterizes all library types of one buffer position
  /// back to back, so the location's normalized spatial weights and profile
  /// factor are kept from the previous call and recomputed only when `loc`
  /// changes. Each form is written in one ascending pass (G, the Y cells in
  /// cell order, then the fresh X) into exactly-sized owned storage: one heap
  /// allocation per form past the inline capacity. Terms and coefficients
  /// are bit-identical to adding them one by one with linear_form::add_term.
  device_variation characterize(const point& loc, double cap0, double delay0);

  /// Global inter-die source (present even when disabled by mode; coefficient
  /// is simply not added in that case).
  stats::source_id inter_die_source() const { return inter_die_source_; }

 private:
  /// Per-class budget fractions of one characteristic (cap or delay).
  struct form_budgets {
    double random_device = 0.0;
    double spatial = 0.0;
    double inter_die = 0.0;
  };

  /// Refreshes the location memo for `loc` when it holds another point.
  void locate(const point& loc);

  /// One characteristic's canonical form around `nominal`, built in
  /// ascending source-id order into `terms_`, then copied to owned storage.
  stats::linear_form build_form(double nominal, const form_budgets& budget,
                                std::optional<stats::source_id> random);

  process_model_config config_;
  stats::variation_space space_;
  std::unique_ptr<spatial_model> spatial_;
  stats::source_id inter_die_source_ = 0;

  // Location memo of the last spatial characterization.
  bool located_ = false;
  point loc_;
  std::vector<stats::lf_term> weights_;  ///< normalized_weights(loc_)
  double profile_ = 0.0;                 ///< profile_factor(loc_)

  std::vector<stats::lf_term> terms_;  ///< build_form scratch
};

}  // namespace vabi::layout
