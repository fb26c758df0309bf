// Machine-readable bench artifacts: every record-emitting bench writes one
// flat JSON file (`--json <path>`) of the form
//
//   {"bench": "...", "git_sha": "...", "kernel_isa": "...",
//    "records": [{...}, {...}, ...]}
//
// so CI can upload and diff results across commits without scraping the
// human-oriented text tables. git_sha and kernel_isa attribute every artifact
// to a commit and the SIMD dispatch the run actually took (the same context
// bench_micro_ops attaches to its google-benchmark output). Values are
// restricted to strings and numbers; keys are code-controlled identifiers
// (no general escaping needed beyond quotes/backslashes).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/solution.hpp"
#include "stats/kernels.hpp"

#ifndef VABI_GIT_SHA
#define VABI_GIT_SHA "unknown"
#endif

namespace vabi::bench {

inline const char* git_sha() { return VABI_GIT_SHA; }

/// `--json PATH` from a bench command line; empty if absent.
inline std::string parse_json_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return {};
}

class json_records {
 public:
  json_records& begin() {
    rows_.emplace_back();
    return *this;
  }
  json_records& str(std::string key, std::string value) {
    rows_.back().emplace_back(std::move(key), std::move(value));
    return *this;
  }
  json_records& num(std::string key, double value) {
    rows_.back().emplace_back(std::move(key), value);
    return *this;
  }
  json_records& num(std::string key, std::uint64_t value) {
    rows_.back().emplace_back(std::move(key), value);
    return *this;
  }
  json_records& boolean(std::string key, bool value) {
    rows_.back().emplace_back(std::move(key), value);
    return *this;
  }
  /// Every dp_stats counter under its core::stat_counters name, prefixed
  /// with `prefix`.
  json_records& counters(const core::dp_stats& s,
                         const std::string& prefix = {}) {
    for (const core::stat_counter& c : core::stat_counters) {
      num(prefix + c.name, static_cast<std::uint64_t>(s.*c.member));
    }
    return *this;
  }

  /// Writes the artifact; returns false (and stays silent) on I/O failure so
  /// benches degrade to text-only output.
  bool write(const std::string& path, const std::string& bench_name) const {
    if (path.empty()) return false;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(
        f, "{\"bench\": \"%s\", \"git_sha\": \"%s\", \"kernel_isa\": \"%s\", "
           "\"records\": [",
        escape(bench_name).c_str(), escape(git_sha()).c_str(),
        stats::kernels::to_string(stats::kernels::active_isa()));
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "%s\n  {", r == 0 ? "" : ",");
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        const auto& [key, value] = rows_[r][i];
        std::fprintf(f, "%s\"%s\": ", i == 0 ? "" : ", ", key.c_str());
        if (const auto* s = std::get_if<std::string>(&value)) {
          std::fprintf(f, "\"%s\"", escape(*s).c_str());
        } else if (const auto* d = std::get_if<double>(&value)) {
          std::fprintf(f, "%.17g", *d);
        } else if (const auto* u = std::get_if<std::uint64_t>(&value)) {
          std::fprintf(f, "%llu", static_cast<unsigned long long>(*u));
        } else {
          std::fprintf(f, "%s", std::get<bool>(value) ? "true" : "false");
        }
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return true;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  using value = std::variant<std::string, double, std::uint64_t, bool>;
  std::vector<std::vector<std::pair<std::string, value>>> rows_;
};

}  // namespace vabi::bench
