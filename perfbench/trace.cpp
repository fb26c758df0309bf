#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {

double tracer::top_level_seconds(bench_clock::time_point from) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.parent == -1 && s.start >= from) total += seconds_between(s.start, s.end);
  }
  return total;
}

std::vector<double> tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = seconds_between(spans_[i].start, spans_[i].end);
  }
  // Children never overlap each other (one thread, properly nested), so a
  // parent's covered time is the plain sum of its children's durations.
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int32_t p = spans_[i].parent;
    if (p >= 0) {
      self[static_cast<std::size_t>(p)] -=
          seconds_between(spans_[i].start, spans_[i].end);
    }
  }
  return self;
}

bool tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto origin = spans_.empty() ? bench_clock::time_point{} : spans_[0].start;
  const auto us = [&](bench_clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const char* parent =
        s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name : "";
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"parent_name\":\"%s\",\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name, us(s.start),
                  us(s.end) - us(s.start), i, static_cast<int>(s.parent),
                  parent, static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string tracer::self_time_table() const {
  struct row {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, row> rows;
  const auto self = self_seconds();
  double all_self = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    row& r = rows[spans_[i].name];
    ++r.count;
    r.total += seconds_between(spans_[i].start, spans_[i].end);
    r.self += self[i];
    all_self += self[i];
  }
  std::vector<std::pair<std::string, row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-34s %8s %12s %12s %7s\n", "span", "count",
                "total_ms", "self_ms", "self_%");
  os << buf;
  for (const auto& [name, r] : sorted) {
    std::snprintf(buf, sizeof buf, "%-34s %8zu %12.3f %12.3f %6.2f%%\n",
                  name.c_str(), r.count, 1e3 * r.total, 1e3 * r.self,
                  all_self > 0.0 ? 100.0 * r.self / all_self : 0.0);
    os << buf;
  }
  return os.str();
}

}  // namespace perfbench
