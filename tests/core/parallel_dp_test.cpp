// Bit-identity of the parallel engine against the serial DP.
//
// The contract of core/parallel.hpp: for completed runs, the parallel
// drivers (intra-tree task DAG and multi-net batch) produce bit-identical
// results to solve_statistical_insertion -- identical canonical root RAT forms
// (same variation-source ids, same coefficients, compared with operator==,
// i.e. exact doubles), identical buffer and wire assignments, and identical
// dp_stats counters but the telemetry class -- for every pruning rule and
// any thread count.
// This is what lets callers switch thread counts freely without
// re-validating results, and it is the test CI runs under ThreadSanitizer.
#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <vector>

#include "core/statistical_dp.hpp"
#include "stats/rng.hpp"
#include "tree/generators.hpp"
#include "solved_test_util.hpp"

namespace vabi::core {
namespace {

using testutil::solved;

layout::bbox padded_die(const tree::routing_tree& t) {
  layout::bbox die = t.bounding_box();
  die.expand({die.lo.x - 1.0, die.lo.y - 1.0});
  die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
  return die;
}

layout::process_model make_model(const tree::routing_tree& t,
                                 layout::variation_mode mode) {
  layout::process_model_config c;
  c.mode = mode;
  return layout::process_model{padded_die(t), c};
}

tree::routing_tree make_net(std::size_t sinks, std::uint64_t seed) {
  tree::random_tree_options o;
  o.num_sinks = sinks;
  o.seed = seed;
  o.criticality_balance = 0.5;
  return tree::make_random_tree(o);
}

stat_options rule_options(pruning_kind rule) {
  stat_options o;
  o.library = timing::standard_library();
  o.driver_res_ohm = 150.0;
  o.rule = rule;
  o.root_percentile = 0.05;
  return o;
}

/// solve_outcomes with every job expected to succeed.
std::vector<batch_result> solve_all(batch_solver& solver,
                                    const std::vector<batch_job>& jobs) {
  std::vector<batch_result> out;
  for (auto& slot : solver.solve_outcomes(jobs)) {
    out.push_back(solved(std::move(slot)));
  }
  return out;
}

void expect_identical(const stat_result& a, const stat_result& b) {
  ASSERT_EQ(a.ok(), b.ok());
  EXPECT_EQ(a.root_rat, b.root_rat);  // exact canonical forms, same ids
  EXPECT_EQ(a.num_buffers, b.num_buffers);
  ASSERT_EQ(a.assignment.num_nodes(), b.assignment.num_nodes());
  for (std::size_t i = 0; i < a.assignment.num_nodes(); ++i) {
    const auto id = static_cast<tree::node_id>(i);
    ASSERT_EQ(a.assignment.has_buffer(id), b.assignment.has_buffer(id));
    if (a.assignment.has_buffer(id)) {
      EXPECT_EQ(a.assignment.buffer(id), b.assignment.buffer(id));
    }
    EXPECT_EQ(a.wires.width(id), b.wires.width(id));
  }
  // The parallel engine does the same work, not just equivalent work, and
  // organizes it the same way: every counter but telemetry matches.
  for (const stat_counter& c : stat_counters) {
    if (c.kind != stat_class::telemetry) {
      EXPECT_EQ(a.stats.*c.member, b.stats.*c.member) << c.name;
    }
  }
}

/// The serial run's counters, for callers that check a path engaged.
dp_stats check_rule_across_threads(const tree::routing_tree& net,
                                   const stat_options& options) {
  auto serial_model = make_model(net, layout::wid_mode());
  const auto serial =
      solved(solve_statistical_insertion(net, serial_model, options));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    thread_pool pool(threads);
    auto model = make_model(net, layout::wid_mode());
    const auto parallel =
        solved(solve_parallel_insertion(net, model, options, pool));
    expect_identical(serial, parallel);
    // The variation spaces must have grown identically too (same device
    // characterization order), or the form comparison above would be
    // comparing ids from different registries.
    EXPECT_EQ(model.space().size(), serial_model.space().size());
  }
  return serial.stats;
}

TEST(ParallelDp, TwoParamBitIdentical) {
  check_rule_across_threads(make_net(200, 42),
                            rule_options(pruning_kind::two_param));
}

TEST(ParallelDp, TwoParamYieldDrivenSelectionBitIdentical) {
  auto o = rule_options(pruning_kind::two_param);
  o.selection_percentile = 0.05;  // the non-mean selection path
  check_rule_across_threads(make_net(120, 7), o);
}

TEST(ParallelDp, CornerRuleBitIdentical) {
  check_rule_across_threads(make_net(150, 11),
                            rule_options(pruning_kind::corner));
}

TEST(ParallelDp, FourParamBitIdentical) {
  // 4P is the quadratic baseline; keep the net small so the cross-product
  // merge stays in test-suite budget.
  check_rule_across_threads(make_net(14, 5),
                            rule_options(pruning_kind::four_param));
}

TEST(ParallelDp, WireSizingBitIdentical) {
  auto o = rule_options(pruning_kind::two_param);
  o.wire_width_multipliers = {0.8, 1.0, 1.3};
  check_rule_across_threads(make_net(60, 23), o);
}

TEST(ParallelDp, ConfidenceRuleTiledPruneBitIdentical) {
  // p = 0.9 with three widths: lists pass the tiling threshold, so the
  // organization counters of the prefilter and the tiled sweep are compared.
  // Both need the adaptive policy: a forced pairwise sweep never tiles, and
  // a forced tiled one never reaches the pairwise prefilter.
  testutil::prune_guard adaptive{0};
  auto o = rule_options(pruning_kind::two_param);
  o.two_param.p_load = 0.9;
  o.two_param.p_rat = 0.9;
  o.wire_width_multipliers = {0.7, 1.0, 1.4};
  const dp_stats s = check_rule_across_threads(make_net(60, 29), o);
  EXPECT_GT(s.tiled_prunes, 0u);
  EXPECT_GT(s.dominance_prefilter_hits, 0u);
}

TEST(ParallelDp, LiShiFrontierBitIdentical) {
  auto o = rule_options(pruning_kind::two_param);
  o.library = timing::make_parameterized_library(16);
  o.selection_percentile = 0.5;
  o.li_shi = li_shi_mode::always;
  const dp_stats s = check_rule_across_threads(make_net(80, 37), o);
  EXPECT_GT(s.li_shi_nodes, 0u);
}

TEST(ParallelDp, TermDropEpsilonBitIdentical) {
  // Satellite of the arena refactor: the relative-epsilon term drop at the
  // statistical-merge sites must not break thread-count invariance (the drop
  // is a pure function of the blended form, applied at the same sites in the
  // serial and parallel engines).
  auto o = rule_options(pruning_kind::two_param);
  o.term_prune_rel_eps = 1e-9;
  check_rule_across_threads(make_net(150, 31), o);
}

TEST(ParallelDp, ArenaCountersPopulated) {
  // allocations / peak_terms are memory telemetry, not part of the
  // bit-identity contract (expect_identical does not compare them) -- but
  // they must be populated by both drivers.
  const auto net = make_net(100, 17);
  const auto o = rule_options(pruning_kind::two_param);
  auto serial_model = make_model(net, layout::wid_mode());
  const auto serial = solved(solve_statistical_insertion(net, serial_model, o));
  EXPECT_GT(serial.stats.allocations, 0u);
  EXPECT_GT(serial.stats.peak_terms, 0u);

  thread_pool pool(4);
  auto model = make_model(net, layout::wid_mode());
  const auto parallel = solved(solve_parallel_insertion(net, model, o, pool));
  EXPECT_GT(parallel.stats.allocations, 0u);
  EXPECT_GT(parallel.stats.peak_terms, 0u);
  // Same work => same candidate-list high-water mark in terms.
  EXPECT_EQ(parallel.stats.peak_terms, serial.stats.peak_terms);
}

TEST(ParallelDp, ResourceCapStillAborts) {
  const auto net = make_net(64, 3);
  auto o = rule_options(pruning_kind::four_param);
  o.max_candidates = 2'000;  // the full run needs ~9'200
  thread_pool pool(4);
  auto model = make_model(net, layout::wid_mode());
  const auto r = solve_parallel_insertion(net, model, o, pool);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), solve_code::candidate_cap);
  EXPECT_FALSE(r.error().detail.empty());
}

TEST(BatchSolver, MatchesIndividualSerialRuns) {
  std::vector<tree::routing_tree> nets;
  for (std::uint64_t seed : {101, 102, 103, 104, 105, 106}) {
    nets.push_back(make_net(80, seed));
  }

  std::vector<batch_job> jobs;
  for (const auto& net : nets) {
    batch_job j;
    j.tree = &net;
    j.options = rule_options(pruning_kind::two_param);
    j.model.mode = layout::wid_mode();
    jobs.push_back(std::move(j));
  }

  batch_solver::config cfg;
  cfg.num_threads = 4;
  batch_solver solver{cfg};
  const auto results = solve_all(solver, jobs);
  ASSERT_EQ(results.size(), jobs.size());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "job " << i);
    layout::process_model model{padded_die(nets[i]), jobs[i].model};
    const auto serial = solved(
        solve_statistical_insertion(nets[i], model, jobs[i].options));
    expect_identical(serial, results[i].result);
    EXPECT_EQ(results[i].model.space().size(), model.space().size());
  }
}

TEST(BatchSolver, OutcomesIdenticalSeesEveryResultField) {
  // Merged shards and restored journal records are checked slot by slot
  // with outcomes_identical: a changed RAT coefficient or a moved buffer
  // fails it even where the nominal RAT and the buffer count agree.
  const auto net = make_net(40, 9);
  auto model = make_model(net, layout::wid_mode());
  const auto r = solved(solve_statistical_insertion(
      net, model, rule_options(pruning_kind::two_param)));
  ASSERT_GT(r.num_buffers, 0u);
  ASSERT_FALSE(r.root_rat.terms().empty());
  const auto slot = [&net](const stat_result& res) {
    return solve_outcome<batch_result>{
        batch_result{res, make_model(net, layout::wid_mode()), {}}};
  };
  EXPECT_TRUE(outcomes_identical(slot(r), slot(r)));

  stat_result coeff = r;
  std::vector<stats::lf_term> terms(r.root_rat.terms().begin(),
                                    r.root_rat.terms().end());
  terms.back().coeff *= 1.5;
  coeff.root_rat = stats::linear_form{r.root_rat.nominal(), terms};
  EXPECT_FALSE(outcomes_identical(slot(r), slot(coeff)));

  stat_result moved = r;
  tree::node_id from = 0;
  while (!r.assignment.has_buffer(from)) ++from;
  tree::node_id to = 0;
  while (r.assignment.has_buffer(to)) ++to;
  moved.assignment.place(to, r.assignment.buffer(from));
  moved.assignment.remove(from);
  EXPECT_FALSE(outcomes_identical(slot(r), slot(moved)));

  const auto failed = [](solve_code code, const char* detail) {
    return solve_outcome<batch_result>{solve_error{code, 3, detail}};
  };
  EXPECT_TRUE(outcomes_identical(failed(solve_code::candidate_cap, "a"),
                                 failed(solve_code::candidate_cap, "b")));
  EXPECT_FALSE(outcomes_identical(failed(solve_code::candidate_cap, "a"),
                                  failed(solve_code::memory_cap, "a")));
  EXPECT_FALSE(
      outcomes_identical(slot(r), failed(solve_code::candidate_cap, "a")));
}

TEST(BatchSolver, GeneratedJobsAreThreadCountInvariant) {
  const auto run_with = [](std::size_t threads) {
    std::vector<batch_job> jobs(5);
    for (auto& j : jobs) {
      tree::random_tree_options g;
      g.num_sinks = 60;
      g.criticality_balance = 0.5;
      j.generate = g;
      j.options = rule_options(pruning_kind::two_param);
      j.model.mode = layout::wid_mode();
    }
    batch_solver::config cfg;
    cfg.num_threads = threads;
    cfg.batch_seed = 99;  // per-job stream = derive_seed(99, i)
    batch_solver solver{cfg};
    return solve_all(solver, jobs);
  };

  const auto one = run_with(1);
  const auto four = run_with(4);
  ASSERT_EQ(one.size(), four.size());
  bool jobs_differ = false;
  for (std::size_t i = 0; i < one.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "job " << i);
    expect_identical(one[i].result, four[i].result);
    ASSERT_TRUE(one[i].generated.has_value());
    // Net generation really went through the derived per-job stream.
    EXPECT_EQ(one[i].generated->num_sinks(), 60u);
    if (i > 0 && one[i].result.root_rat != one[0].result.root_rat) {
      jobs_differ = true;
    }
  }
  EXPECT_TRUE(jobs_differ);  // distinct streams => distinct nets
}

TEST(BatchSolver, WorkerArenasReusedAcrossWavesStayIdentical) {
  // The solver keeps per-thread worker arenas alive between solve_outcomes()
  // calls (begin_run() rewinds epochs but keeps the recycled slabs). Two
  // consecutive waves through the same solver -- with more jobs than
  // threads, so every worker solves several nets back-to-back on warm
  // arenas -- must produce the same results as a fresh solver. This is the
  // reuse path CI exercises under ThreadSanitizer.
  std::vector<tree::routing_tree> nets;
  for (std::uint64_t seed : {201, 202, 203, 204, 205, 206, 207}) {
    nets.push_back(make_net(70, seed));
  }
  std::vector<batch_job> jobs;
  for (const auto& net : nets) {
    batch_job j;
    j.tree = &net;
    j.options = rule_options(pruning_kind::two_param);
    j.model.mode = layout::wid_mode();
    jobs.push_back(std::move(j));
  }

  batch_solver::config cfg;
  cfg.num_threads = 2;  // 7 jobs on 2 threads => guaranteed arena reuse
  batch_solver reused{cfg};
  const auto wave1 = solve_all(reused, jobs);
  const auto wave2 = solve_all(reused, jobs);

  batch_solver fresh{cfg};
  const auto reference = solve_all(fresh, jobs);

  ASSERT_EQ(wave1.size(), jobs.size());
  ASSERT_EQ(wave2.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "job " << i);
    expect_identical(reference[i].result, wave1[i].result);
    expect_identical(reference[i].result, wave2[i].result);
  }
}

TEST(BatchSolver, PropagatesJobErrors) {
  batch_job bad;  // neither tree nor generate
  batch_solver::config cfg;
  cfg.num_threads = 2;
  batch_solver solver{cfg};
  const auto slots = solver.solve_outcomes({bad});
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0].code(), solve_code::internal);
  EXPECT_EQ(slots[0].error().detail,
            "batch_job: neither tree nor generate is set");
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  thread_pool pool(4);
  constexpr int n = 500;
  std::atomic<int> count{0};
  std::latch done{n};
  for (int i = 0; i < n; ++i) {
    pool.submit([&] {
      count.fetch_add(1, std::memory_order_relaxed);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(count.load(), n);
}

TEST(ThreadPool, NestedSubmissionFromWorkers) {
  thread_pool pool(2);
  constexpr int n = 64;
  std::atomic<int> count{0};
  std::latch done{2 * n};
  for (int i = 0; i < n; ++i) {
    pool.submit([&] {
      count.fetch_add(1, std::memory_order_relaxed);
      pool.submit([&] {  // child task submitted from inside a worker
        count.fetch_add(1, std::memory_order_relaxed);
        done.count_down();
      });
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(count.load(), 2 * n);
}

TEST(ThreadPool, DestructorDrainsNestedSubmissions) {
  // Regression test for the shutdown drain hazard: destroying the pool while
  // tasks are queued -- and while running tasks are still submitting
  // children -- must execute every task before the workers join. Before the
  // `active` counter a worker could observe stop && ready == 0 and exit
  // while a peer's in-flight task was about to submit a child, losing it (a
  // data race TSan flags; CI runs this suite under TSan).
  constexpr int n = 64;
  std::atomic<int> count{0};
  {
    thread_pool pool(4);
    for (int i = 0; i < n; ++i) {
      pool.submit([&count, &pool] {
        count.fetch_add(1, std::memory_order_relaxed);
        pool.submit([&count] {
          count.fetch_add(1, std::memory_order_relaxed);
        });
      });
    }
    // No latch: the destructor is the only synchronization.
  }
  EXPECT_EQ(count.load(), 2 * n);
}

TEST(DeriveSeed, StreamsAreDistinctAndStable) {
  EXPECT_EQ(stats::derive_seed(99, 0), stats::derive_seed(99, 0));
  EXPECT_NE(stats::derive_seed(99, 0), stats::derive_seed(99, 1));
  EXPECT_NE(stats::derive_seed(99, 0), stats::derive_seed(100, 0));
}

}  // namespace
}  // namespace vabi::core
