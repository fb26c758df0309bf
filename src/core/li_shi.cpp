#include "core/li_shi.hpp"

#include <algorithm>
#include <numeric>

#include "stats/kernels.hpp"

namespace vabi::core {

const char* to_string(li_shi_mode mode) {
  switch (mode) {
    case li_shi_mode::automatic:
      return "auto";
    case li_shi_mode::always:
      return "always";
    case li_shi_mode::never:
      return "never";
  }
  return "?";
}

bool li_shi_enabled(li_shi_mode mode, std::size_t num_types) {
  switch (mode) {
    case li_shi_mode::always:
      return true;
    case li_shi_mode::never:
      return false;
    case li_shi_mode::automatic:
      break;
  }
  return num_types > 2;
}

std::vector<timing::buffer_index> type_order_by_resistance(
    const timing::buffer_library& library) {
  std::vector<timing::buffer_index> order(library.size());
  std::iota(order.begin(), order.end(), timing::buffer_index{0});
  std::stable_sort(order.begin(), order.end(),
                   [&library](timing::buffer_index a, timing::buffer_index b) {
                     return library[a].res_ohm > library[b].res_ohm;
                   });
  return order;
}

void buffer_frontier::best_per_type(std::size_t num_cands, const double* loads,
                                    const double* rats, const double* delays,
                                    const double* res,
                                    std::vector<std::size_t>& best) const {
  best.assign(order_.size(), li_shi_npos);
  if (num_cands == 0 || order_.empty()) return;
  solve_rows_packed(0, order_.size(), 0, num_cands, loads, rats, delays, res,
                    stats::kernels::active(), best);
}

void buffer_frontier::solve_rows_packed(
    std::size_t rlo, std::size_t rhi, std::size_t klo, std::size_t khi,
    const double* loads, const double* rats, const double* delays,
    const double* res, const stats::kernels::kernel_table& kt,
    std::vector<std::size_t>& best) const {
  if (rlo >= rhi) return;
  const std::size_t rmid = rlo + (rhi - rlo) / 2;
  const timing::buffer_index b = order_[rmid];
  const std::size_t rel = kt.argmax_buffered_row(rats + klo, loads + klo,
                                                 delays[b], res[b], khi - klo);
  const std::size_t best_k =
      rel == static_cast<std::size_t>(-1) ? li_shi_npos : klo + rel;
  best[b] = best_k;
  if (best_k == li_shi_npos) {
    // Degenerate row (a NaN-poisoned device makes the whole row NaN): no
    // ordering information; both halves keep the parent's full range.
    // NaN-poisoned *candidates* poison whole columns instead, which every
    // row skips identically, so range restriction stays sound for them.
    solve_rows_packed(rlo, rmid, klo, khi, loads, rats, delays, res, kt, best);
    solve_rows_packed(rmid + 1, rhi, klo, khi, loads, rats, delays, res, kt,
                      best);
    return;
  }
  solve_rows_packed(rlo, rmid, klo, best_k + 1, loads, rats, delays, res, kt,
                    best);
  solve_rows_packed(rmid + 1, rhi, best_k, khi, loads, rats, delays, res, kt,
                    best);
}

}  // namespace vabi::core
