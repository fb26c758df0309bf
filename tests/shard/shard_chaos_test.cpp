// Kill/restart chaos harness for the shard coordinator. Two matrices:
//
//   ShardChaos.WorkerSigkillMatrix -- the coordinator stays up while its
//   worker processes are SIGKILLed at measured points spread across the
//   batch's real runtime (the observer's tick callback issues the kill from
//   the coordinator's own thread, so no second thread races the forks). The
//   coordinator must restart/retire its way to a merged result that is
//   hash-identical to a single-process solve, with exactly-once accounting:
//   every job solved exactly once, jobs already durable in a dead worker's
//   shard recovered rather than re-solved.
//
//   ShardChaos.CoordinatorSigkillThenResumeMatrix -- the *coordinator* is
//   SIGKILLed (taking its workers with it via PDEATHSIG), then a fresh
//   coordinator resumes from the orphaned shard directory. The resumed merge
//   must equal the unkilled reference, and the resumed run must not re-solve
//   anything the corpse made durable.
//
// Environment knobs (CI):
//   VABI_KILL_POINTS   kill points per matrix (default 10; CI runs >= 20)
//   VABI_JOURNAL_DIR   keep offending shard directories here on failure for
//                      artifact upload instead of deleting them.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "../core/batch_hash_test_util.hpp"
#include "core/parallel.hpp"
#include "shard/shard_coordinator.hpp"
#include "timing/buffer_library.hpp"

namespace vabi::shard {
namespace {

using core::test_util::hash_outcomes;

constexpr std::uint64_t k_seed = 55;

std::vector<core::batch_job> chaos_jobs() {
  std::vector<core::batch_job> jobs(10);
  for (auto& job : jobs) {
    tree::random_tree_options g;
    g.num_sinks = 60;
    job.generate = g;
    job.options.library = timing::standard_library();
  }
  return jobs;
}

std::size_t kill_points() {
  if (const char* env = std::getenv("VABI_KILL_POINTS")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 10;
}

std::string base_dir() {
  if (const char* dir = std::getenv("VABI_JOURNAL_DIR")) return dir;
  return ::testing::TempDir();
}

/// Shard directory that survives test failure for CI artifact upload. The
/// pid suffix keeps concurrent test processes apart: `ctest -j` runs each
/// matrix in its own process, and both time a reference run in "timing".
struct chaos_dir {
  std::string path;
  explicit chaos_dir(const std::string& name) {
    std::string b = base_dir();
    if (!b.empty() && b.back() != '/') b += '/';
    path = b + "shard_chaos_" + name + "_" + std::to_string(::getpid());
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~chaos_dir() {
    if (::testing::Test::HasFailure()) {
      std::cerr << "[shard_chaos] keeping shards for inspection: " << path
                << "\n";
      return;
    }
    // A SIGKILLed coordinator's workers die via PDEATHSIG a beat later, and
    // a checkpoint rename in flight can add/remove entries while remove_all
    // iterates -- use the non-throwing overload and retry until quiescent.
    std::error_code ec;
    for (int i = 0; i < 10; ++i) {
      std::filesystem::remove_all(path, ec);
      if (!ec) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
};

std::uint64_t reference_hash() {
  static const std::uint64_t hash = [] {
    core::batch_solver::config cfg;
    cfg.num_threads = 2;
    cfg.batch_seed = k_seed;
    core::batch_solver solver{cfg};
    return hash_outcomes(solver.solve_outcomes(chaos_jobs()));
  }();
  return hash;
}

coordinator_options chaos_options(const std::string& dir) {
  coordinator_options o;
  o.num_workers = 3;
  o.journal_dir = dir;
  o.batch_seed = k_seed;
  o.restart_budget = 100;  // chaos may kill the same slot many times
  o.heartbeat_interval_ms = 5.0;
  o.heartbeat_timeout_ms = 500.0;
  o.restart_backoff_base_ms = 1.0;
  o.restart_backoff_max_ms = 10.0;
  return o;
}

/// Wall time of one unkilled sharded run, to spread kill points across the
/// coordinator's actual lifetime.
double sharded_run_seconds() {
  static const double seconds = [] {
    chaos_dir dir{"timing"};
    shard_coordinator coord(chaos_options(dir.path));
    const auto t0 = std::chrono::steady_clock::now();
    auto out = coord.run(chaos_jobs());
    EXPECT_TRUE(out.ok());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }();
  return seconds;
}

TEST(ShardChaos, WorkerSigkillMatrix) {
  const std::uint64_t want = reference_hash();
  const double full_seconds = sharded_run_seconds();
  const std::size_t points = kill_points();
  const auto jobs = chaos_jobs();

  for (std::size_t k = 0; k < points; ++k) {
    SCOPED_TRACE("kill point " + std::to_string(k) + "/" +
                 std::to_string(points));
    chaos_dir dir{"worker_" + std::to_string(k)};
    // Spread kills across [0, ~120%] of the measured runtime; rotate which
    // slot dies so every worker is a victim at some point.
    const double frac =
        1.2 * static_cast<double>(k) / static_cast<double>(points);
    const auto kill_after = std::chrono::duration<double>(frac * full_seconds);
    const std::size_t victim_slot = k % 3;

    auto opts = chaos_options(dir.path);
    shard_coordinator coord(opts);
    std::vector<long> pids(opts.num_workers, -1);
    const auto t0 = std::chrono::steady_clock::now();
    bool killed = false;
    auto out = coord.run(jobs, [&](const coordinator_event& ev) {
      if (ev.what == coordinator_event::kind::spawned ||
          ev.what == coordinator_event::kind::restarted) {
        pids[ev.slot] = ev.pid;
      }
      if (ev.what == coordinator_event::kind::died) pids[ev.slot] = -1;
      if (!killed && ev.what == coordinator_event::kind::tick &&
          std::chrono::steady_clock::now() - t0 >= kill_after) {
        killed = true;
        // Prefer the scheduled victim; fall back to any live worker.
        long pid = pids[victim_slot];
        if (pid <= 0) {
          for (long p : pids) {
            if (p > 0) pid = p;
          }
        }
        if (pid > 0) ::kill(static_cast<pid_t>(pid), SIGKILL);
      }
    });
    ASSERT_TRUE(out.ok()) << out.error().message();

    EXPECT_EQ(hash_outcomes(out->merged.slots), want)
        << "sharded merge diverged after SIGKILL";
    // Exactly-once: every job solved once; a kill may cost restarts but
    // never a duplicate or a lost job.
    std::uint64_t by_workers = 0;
    for (const auto& w : out->workers) by_workers += w.jobs_completed;
    EXPECT_EQ(by_workers + out->jobs_solved_inline + out->jobs_recovered,
              jobs.size());
    if (HasFailure()) break;  // keep this kill point's shards
  }
}

TEST(ShardChaos, CoordinatorSigkillThenResumeMatrix) {
  const std::uint64_t want = reference_hash();
  const double full_seconds = sharded_run_seconds();
  const std::size_t points = kill_points();
  const auto jobs = chaos_jobs();

  for (std::size_t k = 0; k < points; ++k) {
    SCOPED_TRACE("kill point " + std::to_string(k) + "/" +
                 std::to_string(points));
    chaos_dir dir{"coord_" + std::to_string(k)};
    const double frac =
        1.2 * static_cast<double>(k) / static_cast<double>(points);
    const auto delay = std::chrono::microseconds(
        static_cast<long>(frac * full_seconds * 1e6));

    // The whole coordinator runs in a forked child (which then forks its own
    // workers -- it is single-threaded at that point), and is SIGKILLed
    // mid-flight. PDEATHSIG reaps the worker grandchildren.
    const pid_t pid = fork();
    ASSERT_NE(pid, -1) << "fork failed";
    if (pid == 0) {
      shard_coordinator coord(chaos_options(dir.path));
      auto out = coord.run(chaos_jobs());
      std::_Exit(out.ok() ? 0 : 3);
    }
    std::this_thread::sleep_for(delay);
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    // PDEATHSIG has SIGKILL pending on the corpse's workers by the time
    // waitpid returns, but a worker blocked inside an fsync/rename finishes
    // that syscall before dying -- give the grandchildren a beat so a late
    // checkpoint rename cannot race the resumed run's shard scan (which
    // would read as duplicate coverage).
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // Resume from whatever the corpse left: shards from dead workers, torn
    // tails included. Nothing durable may be re-solved.
    auto opts = chaos_options(dir.path);
    opts.resume = true;
    shard_coordinator coord(opts);
    auto out = coord.run(jobs);
    ASSERT_TRUE(out.ok()) << out.error().message();
    EXPECT_EQ(hash_outcomes(out->merged.slots), want)
        << "resumed sharded merge diverged (recovered " << out->jobs_recovered
        << " jobs)";
    std::uint64_t by_workers = 0;
    for (const auto& w : out->workers) by_workers += w.jobs_completed;
    EXPECT_EQ(by_workers + out->jobs_solved_inline + out->jobs_recovered,
              jobs.size());
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace vabi::shard
