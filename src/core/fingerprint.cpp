#include "core/fingerprint.hpp"

#include "stats/fnv1a.hpp"

namespace vabi::core {

using stats::fnv1a_f64;
using stats::fnv1a_seed;
using stats::fnv1a_str;
using stats::fnv1a_u64;

namespace {

std::uint64_t hash_library(const timing::buffer_library& lib,
                           std::uint64_t h) {
  h = fnv1a_u64(lib.size(), h);
  for (const auto& b : lib.types()) {
    h = fnv1a_str(b.name, h);
    h = fnv1a_f64(b.cap_pf, h);
    h = fnv1a_f64(b.delay_ps, h);
    h = fnv1a_f64(b.res_ohm, h);
  }
  return h;
}

}  // namespace

std::uint64_t hash_stat_options(const stat_options& o, std::uint64_t h) {
  h = fnv1a_f64(o.wire.res_per_um, h);
  h = fnv1a_f64(o.wire.cap_per_um, h);
  h = hash_library(o.library, h);
  h = fnv1a_f64(o.driver_res_ohm, h);
  h = fnv1a_u64(o.wire_width_multipliers.size(), h);
  for (const double m : o.wire_width_multipliers) h = fnv1a_f64(m, h);
  h = fnv1a_u64(static_cast<std::uint64_t>(o.rule), h);
  h = fnv1a_f64(o.two_param.p_load, h);
  h = fnv1a_f64(o.two_param.p_rat, h);
  h = fnv1a_u64(o.two_param.sweep_window, h);
  h = fnv1a_f64(o.four_param.alpha_lo, h);
  h = fnv1a_f64(o.four_param.alpha_hi, h);
  h = fnv1a_f64(o.four_param.beta_lo, h);
  h = fnv1a_f64(o.four_param.beta_hi, h);
  h = fnv1a_f64(o.corner.percentile, h);
  h = fnv1a_f64(o.root_percentile, h);
  h = fnv1a_f64(o.selection_percentile, h);
  h = fnv1a_f64(o.term_prune_rel_eps, h);
  h = fnv1a_u64(o.max_list_size, h);
  h = fnv1a_u64(o.max_candidates, h);
  h = fnv1a_f64(o.max_wall_seconds, h);
  h = fnv1a_u64(o.max_arena_bytes, h);
  h = fnv1a_u64(o.check_nonfinite ? 1 : 0, h);
  h = fnv1a_u64(static_cast<std::uint64_t>(o.degrade), h);
  return h;
}

std::uint64_t fingerprint_stat_options(const stat_options& o) {
  return fnv1a_u64(static_cast<std::uint64_t>(o.li_shi),
                   hash_stat_options(o, fnv1a_seed));
}

std::uint64_t fingerprint_library(const timing::buffer_library& library) {
  return hash_library(library, fnv1a_seed);
}

}  // namespace vabi::core
