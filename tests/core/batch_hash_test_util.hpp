// Shared helper for the crash-recovery and journal tests: a deterministic
// FNV-1a hash over everything a batch of solve outcomes is contractually
// required to reproduce bit-identically -- canonical root RAT form (nominal
// and term coefficients as raw bit patterns), buffer and wire assignments,
// buffer counts, the result-class dp_stats counters (core::stat_counters),
// and typed error codes. Wall-clock seconds and the organization and
// telemetry counters are deliberately excluded: they are not part of the
// determinism contract, and a journal-restored result does not carry all of
// them.
#pragma once

#include <cstdint>
#include <vector>

#include "core/journal.hpp"
#include "core/parallel.hpp"

namespace vabi::core::test_util {

inline std::uint64_t hash_result(const stat_result& r, std::uint64_t h) {
  h = fnv1a_f64(r.root_rat.nominal(), h);
  for (const auto& term : r.root_rat.terms()) {
    h = fnv1a_u64(term.id, h);
    h = fnv1a_f64(term.coeff, h);
  }
  h = fnv1a_u64(r.assignment.num_nodes(), h);
  for (std::size_t id = 0; id < r.assignment.num_nodes(); ++id) {
    h = fnv1a_u64(r.assignment.has_buffer(id)
                      ? static_cast<std::uint64_t>(r.assignment.buffer(id))
                      : ~std::uint64_t{0},
                  h);
  }
  h = fnv1a_u64(r.wires.num_nodes(), h);
  for (std::size_t id = 0; id < r.wires.num_nodes(); ++id) {
    h = fnv1a_u64(r.wires.width(id), h);
  }
  h = fnv1a_u64(r.num_buffers, h);
  h = fnv1a_u64(static_cast<std::uint64_t>(r.path), h);
  for (const stat_counter& c : stat_counters) {
    if (c.kind == stat_class::result) h = fnv1a_u64(r.stats.*c.member, h);
  }
  return h;
}

inline std::uint64_t hash_outcomes(
    const std::vector<solve_outcome<batch_result>>& slots) {
  std::uint64_t h = fnv1a_u64(slots.size(), fnv1a_seed);
  for (const auto& slot : slots) {
    if (slot.ok()) {
      h = fnv1a_u64(1, h);
      h = hash_result(slot->result, h);
    } else {
      h = fnv1a_u64(0, h);
      h = fnv1a_u64(static_cast<std::uint64_t>(slot.error().code), h);
      h = fnv1a_str(slot.error().detail, h);
    }
  }
  return h;
}

}  // namespace vabi::core::test_util
