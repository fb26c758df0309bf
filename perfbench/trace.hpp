// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around each call it makes into a
// library layer (generator, process model, solver entry point, journal,
// session), never inside the library. Every span carries a name, start and
// end on one steady clock, the index of the enclosing span and the request
// id it belongs to. All calls are issued from the benchmark's main thread
// (the closed loop waits for each call), so the recorder needs no locking.
//
// At exit the traced run writes the spans as Chrome trace-event JSON and
// prints a per-name self-time table: a span's self time is its duration
// minus the part covered by its child spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

inline double seconds_between(bench_clock::time_point a,
                              bench_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct span_record {
  const char* name = "";
  bench_clock::time_point start;
  bench_clock::time_point end;
  std::int32_t parent = -1;  ///< index into the span list, -1 at top level
  std::uint64_t request = 0;
};

class tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its index (-1 when tracing is off).
  std::int32_t open(const char* name, std::uint64_t request) {
    if (!enabled_) return -1;
    span_record s;
    s.name = name;
    s.parent = current_;
    s.request = request;
    s.start = bench_clock::now();
    spans_.push_back(s);
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }

  void close(std::int32_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = bench_clock::now();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  const std::vector<span_record>& spans() const { return spans_; }

  /// Sum of the durations of top-level spans that start at or after `from`.
  double top_level_seconds(bench_clock::time_point from) const;

  /// Self time of every span, in span order.
  std::vector<double> self_seconds() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_json(const std::string& path) const;

  /// Per-name count, total and self time, sorted by self time.
  std::string self_time_table() const;

 private:
  bool enabled_ = false;
  std::int32_t current_ = -1;
  std::vector<span_record> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class scoped_span {
 public:
  scoped_span(tracer& t, const char* name, std::uint64_t request)
      : tracer_(t), index_(t.open(name, request)) {}
  ~scoped_span() { tracer_.close(index_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  tracer& tracer_;
  std::int32_t index_;
};

}  // namespace perfbench
