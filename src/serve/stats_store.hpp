// In-service aggregating statistics for the vabi_serve daemon.
//
// The daemon records one observation per admitted job, per completed solve,
// per shed session and per admission rejection; the store aggregates them
// into global and per-session views -- counts, queue depth (current and
// peak), and p50/p99 solve latency over a bounded reservoir -- and renders
// the whole thing as one JSON document in the same style as the repo's other
// --stats-json emitters (flat keys, machine-diffable, schema-tagged).
//
// Thread safety: every method takes the store's own mutex. The store is
// deliberately independent of the daemon's session mutex so stats_json() can
// be served while a solve completion is being recorded.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace vabi::serve {

/// Latency reservoir: keeps the most recent k_capacity samples (ring) and
/// reports percentiles over what it holds. Bounded memory for a daemon that
/// serves forever.
class latency_ring {
 public:
  static constexpr std::size_t k_capacity = 4096;

  void add(double ms);
  std::size_t count() const { return total_; }
  /// Percentile by nearest-rank over a sorted copy of the ring; 0 when empty.
  double percentile(double p) const;

 private:
  std::vector<double> samples_;
  std::size_t next_ = 0;
  std::size_t total_ = 0;
};

/// Fixed-bucket histogram of per-job timing yield (schema v2 field). Twenty
/// buckets of width 0.05 over [0, 1]; out-of-range samples clamp into the
/// edge buckets. Bounded memory forever, like latency_ring.
class yield_histogram {
 public:
  static constexpr std::size_t k_buckets = 20;

  void add(double yield);
  std::uint64_t count() const { return count_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  const std::array<std::uint64_t, k_buckets>& buckets() const {
    return buckets_;
  }

 private:
  std::array<std::uint64_t, k_buckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Per-session aggregates, keyed by session token.
struct session_stats {
  std::uint64_t jobs_admitted = 0;
  std::uint64_t jobs_completed = 0;  ///< ok results
  std::uint64_t jobs_failed = 0;     ///< typed non-ok results (incl cancelled)
  std::uint64_t jobs_restored = 0;   ///< recovered from the session journal
  latency_ring latency;
  yield_histogram yield;
};

class stats_store {
 public:
  void on_session_opened(const std::string& token);
  void on_session_closed(const std::string& token);
  void on_session_shed(const std::string& token);
  void on_resume(const std::string& token, std::uint64_t restored_jobs);
  void on_overload_rejection();
  void on_jobs_admitted(const std::string& token, std::uint64_t jobs);
  /// One solve finished: latency + outcome. `yield` is the job's timing
  /// yield in [0, 1] (histogrammed globally and per session); pass a
  /// negative value when no yield applies (failed jobs).
  void on_job_done(const std::string& token, bool ok, double latency_ms,
                   double yield = -1.0);
  void set_queue_depth(std::size_t depth);

  /// The whole store as JSON (schema "vabi_serve_stats v3"): global counters,
  /// global p50/p99 latency, yield histograms, and one record per session
  /// sorted by token. v2 added the "yield" objects (count, mean, 20 fixed
  /// buckets over [0, 1]) to v1; v3 drops the per-session cache_hits /
  /// cache_misses / nodes_reused, which read 0 on every daemon job (a job
  /// never consults a slab cache). Every other field keeps its meaning.
  std::string to_json() const;

  // Point reads for tests / logs.
  std::uint64_t overload_rejections() const;
  std::uint64_t sheds() const;
  std::uint64_t resumes() const;
  std::uint64_t jobs_completed() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t sessions_opened_ = 0;
  std::uint64_t sessions_active_ = 0;
  std::uint64_t sessions_shed_ = 0;
  std::uint64_t resumes_ = 0;
  std::uint64_t overload_rejections_ = 0;
  std::uint64_t jobs_admitted_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_failed_ = 0;
  std::uint64_t jobs_restored_ = 0;
  std::size_t queue_depth_ = 0;
  std::size_t peak_queue_depth_ = 0;
  latency_ring global_latency_;
  yield_histogram global_yield_;
  std::unordered_map<std::string, session_stats> sessions_;
};

}  // namespace vabi::serve
