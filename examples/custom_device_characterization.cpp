// Building a buffer library from device characterization (Section 3.1 flow).
//
// Instead of taking the stock library, this example characterizes three
// buffer sizes against the nonlinear transistor model (the SPICE stand-in),
// fits the first-order sensitivities of eqs. (19)-(20), and then uses the
// fitted nominals to drive a variation-aware insertion run with budgets
// derived from the fit rather than the default 5% rule of thumb.
#include <iostream>

#include "core/statistical_dp.hpp"
#include "device/characterize.hpp"
#include "tree/generators.hpp"

int main() {
  using namespace vabi;

  // --- characterize three sizes against the nonlinear device model ---------
  const device::transistor_model xtor{device::transistor_model_config{},
                                      timing::standard_library()[0]};
  timing::buffer_library fitted_lib;
  layout::class_budget fitted_budget{0.0, 0.0};
  for (const double size : {1.0, 2.0, 4.0}) {
    device::characterization_config cfg;
    cfg.samples = 5000;
    cfg.leff_sigma_frac = 0.10;
    cfg.buffer_size = size;
    cfg.seed = 1000 + static_cast<std::uint64_t>(size);
    const auto r = device::characterize_buffer(xtor, cfg);

    const auto nominal = xtor.extract(xtor.config().nominal, size);
    fitted_lib.add({"fit_x" + std::to_string(static_cast<int>(size)),
                    r.cap_nominal_pf, r.delay_nominal_ps, nominal.res_ohm});
    const double rel = r.delay_sigma_ps / r.delay_nominal_ps;
    fitted_budget.delay = std::max(fitted_budget.delay, rel);
    fitted_budget.cap =
        std::max(fitted_budget.cap, r.cap_sigma_pf / r.cap_nominal_pf);
    std::cout << "size x" << size << ": Cb0 = " << r.cap_nominal_pf
              << " pF, Tb0 = " << r.delay_nominal_ps << " ps, sigma(Tb)/Tb0 = "
              << 100.0 * rel << "% (fit R^2 " << r.delay_fit.r_squared
              << ", KS " << r.delay_ks_to_fitted_normal << ")\n";
  }

  // --- use the fitted library + budgets in an insertion run ----------------
  tree::random_tree_options net_opts;
  net_opts.num_sinks = 100;
  net_opts.die_side_um = 6000.0;
  net_opts.seed = 7;
  const auto net = tree::make_random_tree(net_opts);

  layout::process_model_config pm_cfg;
  pm_cfg.mode = layout::wid_mode();
  pm_cfg.budgets.random_device = fitted_budget;  // from the fit
  layout::process_model model{layout::square_die(net_opts.die_side_um),
                              pm_cfg};

  core::stat_options opts;
  opts.library = fitted_lib;
  opts.driver_res_ohm = 150.0;
  const auto solved = core::solve_statistical_insertion(net, model, opts);
  if (!solved.ok()) {
    std::cerr << "failed: " << solved.error().message() << "\n";
    return 1;
  }
  const core::stat_result& result = *solved;
  std::cout << "inserted " << result.num_buffers
            << " fitted buffers; root RAT mean " << result.root_rat.mean()
            << " ps, sigma " << result.root_rat.stddev(model.space())
            << " ps\n";
  return 0;
}
