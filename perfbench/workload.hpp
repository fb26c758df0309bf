// The benchmark's workload interface and the records workloads fill.
//
// A workload is driven by main.cpp in fixed phases:
//
//   setup      builds its inputs (timed and repeated: setup_s)
//   reference  one untimed pass over a fixed set of solves; doubles as the
//              warm-up and yields the result digest, the 95%-yield delay and
//              the per-layer counters, all exact for a given seed
//   request    one closed-loop request, repeated for the measured seconds
//   check      correctness checks against an independent reference
//   extras     traced run only: layer timings that need extra solves
//
// Workloads call the library's public entry points only and wrap each call
// in a span of the shared tracer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/solution.hpp"
#include "trace.hpp"

namespace perfbench {

struct run_context {
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  std::string work_dir;  ///< scratch files (journals) go here
  tracer* trace = nullptr;
  /// VABI_FAULT_SPEC is armed: solves also scan for NaN/inf (read-only,
  /// results unchanged) so poisoned forms fail typed instead of propagating.
  bool fault_drill = false;
};

/// Time spent in each setup layer, seconds.
struct setup_times {
  double characterize_s = 0.0;
  double model_s = 0.0;
  double build_s = 0.0;
};

/// dp_stats summed over the reference pass (peaks are maxima).
struct layer_counts {
  std::uint64_t candidates_created = 0;
  std::uint64_t candidates_pruned = 0;
  std::uint64_t merge_pairs = 0;
  std::uint64_t peak_list = 0;
  std::uint64_t allocations = 0;
  std::uint64_t peak_terms = 0;
  std::uint64_t dense_forms = 0;
  std::uint64_t terms_merged = 0;
  std::uint64_t prefilter_hits = 0;
  std::uint64_t li_shi_nodes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t nodes_reused = 0;
  std::uint64_t nodes_solved_over = 0;  ///< tree nodes of the cached solves
  std::uint64_t tiled_prunes = 0;
  std::uint64_t tile_prefilter_hits = 0;
  std::uint64_t pairs_batched = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_checkpoints = 0;

  void add(const vabi::core::dp_stats& s);
};

/// Solve accounting shared by every phase that counts toward failed_frac.
struct tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages

  void ok() { ++attempted; }
  void fail(const std::string& why);
};

struct reference_result {
  std::uint64_t digest = 0;
  double delay95_sum_ps = 0.0;  ///< sum over ok solves of -(5th pct root RAT)
  std::uint64_t delay95_count = 0;
  layer_counts counts;
};

/// What one closed-loop request produced.
struct request_result {
  /// Latency samples in ms. Single-solve workloads leave this empty and the
  /// loop in main.cpp records the request's wall time instead.
  std::vector<double> latencies_ms;
  /// Solves per second, when not solves / request wall: clients that run
  /// side by side and wait for each other at the end of a request report
  /// the sum of their own rates, so one stalled client does not set it.
  std::optional<double> solves_per_s;
  /// Thread-seconds spent inside solver calls (for parallel.busy_frac).
  double solver_busy_s = 0.0;
  /// (sinks, solve seconds) per solved net, for the Thm 1 slope.
  std::vector<std::pair<double, double>> size_time;
  /// For workloads that solve a fixed set of inputs over and over: the input
  /// of each latency sample (of the request's wall time when latencies_ms
  /// is empty). main.cpp then takes percentiles over per-input medians.
  std::vector<std::size_t> inputs;
};

/// One named correctness check.
struct check_log {
  struct entry {
    std::string name;
    bool passed = false;
    std::string detail;
  };
  std::vector<entry> entries;

  void record(std::string name, bool passed, std::string detail) {
    entries.push_back({std::move(name), passed, std::move(detail)});
  }
  bool all_passed() const {
    for (const auto& e : entries) {
      if (!e.passed) return false;
    }
    return true;
  }
};

using metric_map = std::map<std::string, double>;

/// Linear-interpolated quantile of a sample, q in [0, 1]; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

class workload {
 public:
  virtual ~workload() = default;

  /// Threads the workload's load uses (1 for single-client loops).
  virtual std::size_t threads_used() const = 0;
  /// Called once per object; main.cpp makes a fresh one per setup.
  virtual void setup(setup_times& times) = 0;
  virtual void reference(reference_result& ref, tally& t) = 0;
  virtual void request(std::uint64_t id, request_result& out, tally& t) = 0;
  virtual void check(check_log& log) = 0;
  /// Traced run only: layer metrics that need extra solves or the
  /// workload's own samples. An entry here overrides main.cpp's default
  /// for that metric (e.g. parallel.busy_frac).
  virtual void extras(metric_map& layers) { (void)layers; }
};

/// Workload names in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<workload> make_workload(const std::string& name,
                                        const run_context& ctx);

}  // namespace perfbench
