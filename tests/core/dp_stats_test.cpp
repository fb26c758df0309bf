// The dp_stats counter table (core/solution.hpp) and what is generated from
// it: dp_stats::merge, results_identical and stats_json.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>

#include "core/statistical_dp.hpp"

namespace vabi::core {
namespace {

/// A dp_stats whose table counters read base, base + 1, ... in table order.
dp_stats numbered(std::size_t base) {
  dp_stats s;
  std::size_t v = base;
  for (const stat_counter& c : stat_counters) s.*c.member = v++;
  return s;
}

TEST(DpStats, TableListsEveryCounterOnceInMemberOrder) {
  std::set<std::string> names;
  for (const stat_counter& c : stat_counters) {
    EXPECT_TRUE(names.insert(c.name).second) << c.name;
  }
  // The size_t counters sit contiguously from candidates_created to
  // pairs_batched; with dense_forms, the one counter left out, the table
  // must account for all of them, so a member added without a table line
  // fails here.
  const dp_stats s;
  const auto* first = reinterpret_cast<const char*>(&s.candidates_created);
  const auto* past = reinterpret_cast<const char*>(&s.pairs_batched + 1);
  EXPECT_EQ(static_cast<std::size_t>(past - first),
            (std::size(stat_counters) + 1) * sizeof(std::size_t));
  const std::size_t* prev = nullptr;
  for (const stat_counter& c : stat_counters) {
    const std::size_t* at = &(s.*c.member);
    EXPECT_NE(at, &s.dense_forms) << c.name;
    if (prev != nullptr) {
      EXPECT_LT(prev, at) << c.name;
    }
    prev = at;
  }
}

TEST(DpStats, MergeSumsOrMaxesEachCounterAsItsTableLineSays) {
  dp_stats a = numbered(100);
  const dp_stats b = numbered(1000);
  // A second operand that is smaller on every field, so max keeps `a`'s.
  const dp_stats small = numbered(1);
  const dp_stats a0 = a;
  a.merge(b);
  dp_stats c = a0;
  c.merge(small);
  for (const stat_counter& k : stat_counters) {
    SCOPED_TRACE(k.name);
    if (k.reduction == stat_reduction::sum) {
      EXPECT_EQ(a.*k.member, a0.*k.member + b.*k.member);
      EXPECT_EQ(c.*k.member, a0.*k.member + small.*k.member);
    } else {
      EXPECT_EQ(a.*k.member, b.*k.member);
      EXPECT_EQ(c.*k.member, a0.*k.member);
    }
  }
  EXPECT_FALSE(a.aborted);
  EXPECT_EQ(a.wall_seconds, 0.0);  // the caller's to set
}

TEST(DpStats, MergePrefersThePrimaryAbortCause) {
  dp_stats observer;
  observer.aborted = true;
  observer.abort_code = solve_code::cancelled;
  observer.abort_reason = dp_stats::observed_abort;
  observer.abort_node = 3;
  dp_stats primary;
  primary.aborted = true;
  primary.abort_code = solve_code::candidate_cap;
  primary.abort_reason = "candidate list exceeded max_list_size";
  primary.abort_node = 7;

  for (const bool primary_first : {true, false}) {
    dp_stats total;
    total.merge(primary_first ? primary : observer);
    total.merge(primary_first ? observer : primary);
    total.merge(dp_stats{});
    EXPECT_TRUE(total.aborted);
    EXPECT_EQ(total.abort_code, solve_code::candidate_cap);
    EXPECT_EQ(total.abort_reason, primary.abort_reason);
    EXPECT_EQ(total.abort_node, 7u);
  }
}

TEST(DpStats, ResultsIdenticalComparesExactlyTheResultCounters) {
  stat_result a;
  a.stats = numbered(10);
  for (const stat_counter& c : stat_counters) {
    SCOPED_TRACE(c.name);
    stat_result b = a;
    ++(b.stats.*c.member);
    EXPECT_EQ(results_identical(a, b), c.kind != stat_class::result);
  }
  stat_result b = a;
  b.stats.wall_seconds = 1.0;
  b.stats.dense_forms = 1;
  EXPECT_TRUE(results_identical(a, b));
}

TEST(DpStats, StatsJsonNamesEveryTableFieldOnceWithItsValue) {
  stat_result r;
  r.stats = numbered(500);
  r.num_buffers = 4;
  // Neither double fits 6 significant digits; the wall time would print in
  // exponent form there.
  r.root_rat = stats::linear_form(-1656.9512345678901);
  r.stats.wall_seconds = 1234567.0891011121;
  const std::string json =
      stats_json(r, {{"rule", "\"2P\""}, {"threads", "4"}});

  // Each double parses back to the same bits.
  const auto parsed = [&json](const std::string& key) {
    const std::string needle = "\"" + key + "\": ";
    const auto at = json.find(needle);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos) return 0.0;
    return std::strtod(json.c_str() + at + needle.size(), nullptr);
  };
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed("root_rat_mean_ps")),
            std::bit_cast<std::uint64_t>(r.root_rat.mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed("wall_seconds")),
            std::bit_cast<std::uint64_t>(r.stats.wall_seconds));

  const auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (auto at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  for (const stat_counter& c : stat_counters) {
    const std::string key = std::string("\"") + c.name + "\": ";
    EXPECT_EQ(count(key), 1u) << c.name;
    EXPECT_EQ(count(key + std::to_string(r.stats.*c.member) + ",\n"), 1u)
        << c.name;
  }
  EXPECT_EQ(json.rfind("{\n  \"schema_version\": " +
                           std::to_string(stats_json_version) + ",\n",
                       0),
            0u);
  EXPECT_EQ(count("\"rule\": \"2P\",\n"), 1u);
  EXPECT_EQ(count("\"threads\": 4,\n"), 1u);
  EXPECT_EQ(count("\"solve_path\": \"primary\",\n"), 1u);
  EXPECT_EQ(count("\"num_buffers\": 4,\n"), 1u);
  EXPECT_EQ(count("\"aborted\": false,\n"), 1u);
  EXPECT_EQ(count("\"abort_code\": \"ok\"\n}\n"), 1u);
  // schema_version, two context members, three result fields, the table,
  // wall_seconds, aborted, abort_code.
  EXPECT_EQ(count("\": "), 1 + 2 + 3 + std::size(stat_counters) + 3);
}

}  // namespace
}  // namespace vabi::core
