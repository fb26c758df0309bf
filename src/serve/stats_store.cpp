#include "serve/stats_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace vabi::serve {

void latency_ring::add(double ms) {
  if (samples_.size() < k_capacity) {
    samples_.push_back(ms);
  } else {
    samples_[next_] = ms;
    next_ = (next_ + 1) % k_capacity;
  }
  ++total_;
}

double latency_ring::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(std::llround(rank));
  return sorted[std::min(idx, sorted.size() - 1)];
}

void yield_histogram::add(double yield) {
  const double clamped = std::clamp(yield, 0.0, 1.0);
  auto idx = static_cast<std::size_t>(clamped * static_cast<double>(k_buckets));
  if (idx >= k_buckets) idx = k_buckets - 1;  // yield == 1.0
  ++buckets_[idx];
  ++count_;
  sum_ += clamped;
}

void stats_store::on_session_opened(const std::string& token) {
  std::lock_guard lk(mu_);
  ++sessions_opened_;
  ++sessions_active_;
  sessions_.try_emplace(token);
}

void stats_store::on_session_closed(const std::string& token) {
  std::lock_guard lk(mu_);
  if (sessions_active_ > 0) --sessions_active_;
  sessions_.try_emplace(token);
}

void stats_store::on_session_shed(const std::string& token) {
  std::lock_guard lk(mu_);
  ++sessions_shed_;
  if (sessions_active_ > 0) --sessions_active_;
  sessions_.try_emplace(token);
}

void stats_store::on_resume(const std::string& token,
                            std::uint64_t restored_jobs) {
  std::lock_guard lk(mu_);
  ++resumes_;
  jobs_restored_ += restored_jobs;
  sessions_[token].jobs_restored += restored_jobs;
}

void stats_store::on_overload_rejection() {
  std::lock_guard lk(mu_);
  ++overload_rejections_;
}

void stats_store::on_jobs_admitted(const std::string& token,
                                   std::uint64_t jobs) {
  std::lock_guard lk(mu_);
  jobs_admitted_ += jobs;
  sessions_[token].jobs_admitted += jobs;
}

void stats_store::on_job_done(const std::string& token, bool ok,
                              double latency_ms, double yield) {
  std::lock_guard lk(mu_);
  session_stats& s = sessions_[token];
  if (ok) {
    ++jobs_completed_;
    ++s.jobs_completed;
  } else {
    ++jobs_failed_;
    ++s.jobs_failed;
  }
  s.latency.add(latency_ms);
  global_latency_.add(latency_ms);
  if (yield >= 0.0) {
    s.yield.add(yield);
    global_yield_.add(yield);
  }
}

void stats_store::set_queue_depth(std::size_t depth) {
  std::lock_guard lk(mu_);
  queue_depth_ = depth;
  peak_queue_depth_ = std::max(peak_queue_depth_, depth);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string fmt_ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string fmt_yield(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

std::string yield_json(const yield_histogram& h) {
  std::string out = "{\"count\": " + std::to_string(h.count()) +
                    ", \"mean\": " + fmt_yield(h.mean()) + ", \"buckets\": [";
  for (std::size_t i = 0; i < yield_histogram::k_buckets; ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(h.buckets()[i]);
  }
  out += "]}";
  return out;
}

}  // namespace

std::string stats_store::to_json() const {
  std::lock_guard lk(mu_);
  std::string out = "{\n";
  out += "  \"schema\": \"vabi_serve_stats v3\",\n";
  out += "  \"sessions_opened\": " + std::to_string(sessions_opened_) + ",\n";
  out += "  \"sessions_active\": " + std::to_string(sessions_active_) + ",\n";
  out += "  \"sessions_shed\": " + std::to_string(sessions_shed_) + ",\n";
  out += "  \"resumes\": " + std::to_string(resumes_) + ",\n";
  out += "  \"overload_rejections\": " + std::to_string(overload_rejections_) +
         ",\n";
  out += "  \"jobs_admitted\": " + std::to_string(jobs_admitted_) + ",\n";
  out += "  \"jobs_completed\": " + std::to_string(jobs_completed_) + ",\n";
  out += "  \"jobs_failed\": " + std::to_string(jobs_failed_) + ",\n";
  out += "  \"jobs_restored\": " + std::to_string(jobs_restored_) + ",\n";
  out += "  \"queue_depth\": " + std::to_string(queue_depth_) + ",\n";
  out +=
      "  \"peak_queue_depth\": " + std::to_string(peak_queue_depth_) + ",\n";
  out += "  \"solve_latency_ms\": {\"count\": " +
         std::to_string(global_latency_.count()) +
         ", \"p50\": " + fmt_ms(global_latency_.percentile(50.0)) +
         ", \"p99\": " + fmt_ms(global_latency_.percentile(99.0)) + "},\n";
  out += "  \"yield\": " + yield_json(global_yield_) + ",\n";
  out += "  \"sessions\": [";
  std::vector<const std::pair<const std::string, session_stats>*> rows;
  rows.reserve(sessions_.size());
  for (const auto& kv : sessions_) rows.push_back(&kv);
  std::sort(rows.begin(), rows.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  bool first = true;
  for (const auto* kv : rows) {
    const session_stats& s = kv->second;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"token\": \"" + json_escape(kv->first) + "\"";
    out += ", \"jobs_admitted\": " + std::to_string(s.jobs_admitted);
    out += ", \"jobs_completed\": " + std::to_string(s.jobs_completed);
    out += ", \"jobs_failed\": " + std::to_string(s.jobs_failed);
    out += ", \"jobs_restored\": " + std::to_string(s.jobs_restored);
    out += ", \"p50_ms\": " + fmt_ms(s.latency.percentile(50.0));
    out += ", \"p99_ms\": " + fmt_ms(s.latency.percentile(99.0));
    out += ", \"yield\": " + yield_json(s.yield);
    out += "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::uint64_t stats_store::overload_rejections() const {
  std::lock_guard lk(mu_);
  return overload_rejections_;
}

std::uint64_t stats_store::sheds() const {
  std::lock_guard lk(mu_);
  return sessions_shed_;
}

std::uint64_t stats_store::resumes() const {
  std::lock_guard lk(mu_);
  return resumes_;
}

std::uint64_t stats_store::jobs_completed() const {
  std::lock_guard lk(mu_);
  return jobs_completed_;
}

}  // namespace vabi::serve
