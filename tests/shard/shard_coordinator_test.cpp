// Supervision tests of the sharded multi-process batch coordinator: the
// merged result of an N-worker run is hash-identical to a single-process
// solve, resume recovers completed jobs without re-solving them, and every
// supervision path -- spawn failure, a wedged worker, dropped heartbeats,
// an exhausted restart budget -- converges to a complete, bit-identical
// merge. Fork-safety note: every test body is effectively single-threaded
// at the moment run() forks (batch_solver pools and the serve daemon are
// scoped and joined), the same discipline crash_recovery_test.cpp uses.
#include "shard/shard_coordinator.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "../core/batch_hash_test_util.hpp"
#include "core/parallel.hpp"
#include "serve/server.hpp"
#include "testing/fault_injection.hpp"
#include "timing/buffer_library.hpp"

namespace vabi::shard {
namespace {

using core::test_util::hash_outcomes;

constexpr std::uint64_t k_seed = 33;

std::vector<core::batch_job> small_jobs(std::size_t n = 8,
                                        std::size_t sinks = 16) {
  std::vector<core::batch_job> jobs(n);
  for (auto& job : jobs) {
    tree::random_tree_options g;
    g.num_sinks = sinks;
    job.generate = g;
    job.options.library = timing::standard_library();
  }
  return jobs;
}

std::uint64_t reference_hash(const std::vector<core::batch_job>& jobs) {
  core::batch_solver::config cfg;
  cfg.num_threads = 1;
  cfg.batch_seed = k_seed;
  core::batch_solver solver{cfg};
  return hash_outcomes(solver.solve_outcomes(jobs));
}

/// The single-process reference of a remote-mode submit, built through the
/// daemon's wire_job -> batch_job mapping.
std::uint64_t remote_reference_hash(const serve::submit_msg& submit) {
  auto batch = serve::make_batch_jobs(submit);
  EXPECT_TRUE(batch.ok()) << batch.error().message();
  core::batch_solver::config cfg;
  cfg.num_threads = 1;
  cfg.batch_seed = submit.batch_seed;
  core::batch_solver solver{cfg};
  return hash_outcomes(solver.solve_outcomes(batch->jobs));
}

class ShardCoordinatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/vabi-shard-test-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    testing::disarm();
    std::filesystem::remove_all(dir_);
  }

  coordinator_options base_options(std::size_t workers = 3) {
    coordinator_options o;
    o.num_workers = workers;
    o.journal_dir = dir_;
    o.batch_seed = k_seed;
    // Fast supervision for tests: quick beats, quick verdicts, quick respawn.
    o.heartbeat_interval_ms = 5.0;
    o.heartbeat_timeout_ms = 250.0;
    o.restart_backoff_base_ms = 1.0;
    o.restart_backoff_max_ms = 20.0;
    return o;
  }

  std::string dir_;
};

TEST_F(ShardCoordinatorTest, MergedResultHashEqualsSingleProcess) {
  const auto jobs = small_jobs();
  const std::uint64_t want = reference_hash(jobs);

  shard_coordinator coord(base_options(3));
  auto out = coord.run(jobs);
  ASSERT_TRUE(out.ok()) << out.error().message();

  EXPECT_EQ(hash_outcomes(out->merged.slots), want);
  EXPECT_EQ(out->jobs_solved_by_workers, jobs.size());
  EXPECT_EQ(out->jobs_recovered, 0u);
  EXPECT_EQ(out->jobs_solved_inline, 0u);
  EXPECT_EQ(out->restarts_total, 0u);
  EXPECT_GE(out->merged.shards_read, 3u);  // one shard per worker slot
  // Exactly-once accounting: every job solved exactly once, somewhere.
  std::uint64_t by_workers = 0;
  for (const auto& w : out->workers) by_workers += w.jobs_completed;
  EXPECT_EQ(by_workers, jobs.size());
}

TEST_F(ShardCoordinatorTest, ResumeRecoversEverythingAndResolvesNothing) {
  const auto jobs = small_jobs();
  const std::uint64_t want = reference_hash(jobs);

  {
    shard_coordinator coord(base_options(2));
    auto first = coord.run(jobs);
    ASSERT_TRUE(first.ok()) << first.error().message();
  }

  auto opts = base_options(2);
  opts.resume = true;
  shard_coordinator coord(opts);
  auto out = coord.run(jobs);
  ASSERT_TRUE(out.ok()) << out.error().message();

  EXPECT_EQ(out->jobs_recovered, jobs.size());
  EXPECT_EQ(out->jobs_solved_by_workers, 0u);
  EXPECT_EQ(out->jobs_solved_inline, 0u);
  EXPECT_EQ(hash_outcomes(out->merged.slots), want);
}

TEST_F(ShardCoordinatorTest, SpawnFailureConsumesBudgetAndSurvivorsFinish) {
  const auto jobs = small_jobs();
  const std::uint64_t want = reference_hash(jobs);

  // Slot 0 can never fork; its budget burns down and the other slots (or the
  // inline fallback) absorb its share of the fingerprint space.
  testing::arm("worker_spawn_fail:node=0");
  auto opts = base_options(3);
  opts.restart_budget = 2;
  // No backoff: slot 0's initial spawn fails before the loop, and each
  // supervision tick's respawn fails after it, so the slot retires by the
  // end of tick 2. A survivor takes at most one job per tick and none is
  // dispatched before tick 2 (readiness arrives in tick 1), so two
  // survivors need ticks 2-5 for the eight jobs: the loop cannot end with
  // slot 0 still in backoff.
  opts.restart_backoff_base_ms = 0.0;
  opts.restart_backoff_max_ms = 0.0;
  shard_coordinator coord(opts);
  auto out = coord.run(jobs);
  ASSERT_TRUE(out.ok()) << out.error().message();

  EXPECT_EQ(out->workers_retired, 1u);
  EXPECT_EQ(out->workers[0].jobs_completed, 0u);
  EXPECT_EQ(out->workers[0].restarts, 2u);
  EXPECT_EQ(hash_outcomes(out->merged.slots), want);
}

TEST_F(ShardCoordinatorTest, HungWorkerIsKilledAndBatchStillMerges) {
  const auto jobs = small_jobs();
  const std::uint64_t want = reference_hash(jobs);

  // Slot 1 wedges on its first command, every incarnation: heartbeats stop,
  // the timeout SIGKILLs it, backoff respawns it. The survivors steal its
  // queue meanwhile, so the batch must merge bit-identically regardless of
  // whether the wedged slot ever gets another command.
  testing::arm("worker_hang:node=1");
  auto opts = base_options(3);
  opts.restart_budget = 1;
  shard_coordinator coord(opts);
  auto out = coord.run(jobs);
  ASSERT_TRUE(out.ok()) << out.error().message();

  EXPECT_GE(out->restarts_total, 1u);
  EXPECT_GE(out->workers[1].restarts, 1u);
  EXPECT_EQ(hash_outcomes(out->merged.slots), want);
}

TEST_F(ShardCoordinatorTest, DroppedHeartbeatsNeverLoseDurableWork) {
  const auto jobs = small_jobs();
  const std::uint64_t want = reference_hash(jobs);

  // Slot 0's heartbeats all vanish. Its job_done events still reset the
  // silence clock, so it makes progress; once idle it looks hung and is
  // killed -- and every record it journaled must be recovered, not
  // re-solved.
  testing::arm("heartbeat_drop:node=0");
  shard_coordinator coord(base_options(3));
  auto out = coord.run(jobs);
  ASSERT_TRUE(out.ok()) << out.error().message();

  EXPECT_EQ(hash_outcomes(out->merged.slots), want);
  std::uint64_t by_workers = 0;
  for (const auto& w : out->workers) by_workers += w.jobs_completed;
  EXPECT_EQ(out->jobs_recovered + by_workers + out->jobs_solved_inline,
            jobs.size());
}

TEST_F(ShardCoordinatorTest, AllSlotsRetiredFallsBackToInlineSolving) {
  const auto jobs = small_jobs(4);
  const std::uint64_t want = reference_hash(jobs);

  // No worker ever comes up; the coordinator must still deliver the batch.
  testing::arm("worker_spawn_fail");
  auto opts = base_options(2);
  opts.restart_budget = 1;
  shard_coordinator coord(opts);
  auto out = coord.run(jobs);
  ASSERT_TRUE(out.ok()) << out.error().message();

  EXPECT_EQ(out->workers_retired, 2u);
  EXPECT_EQ(out->jobs_solved_by_workers, 0u);
  EXPECT_EQ(out->jobs_solved_inline, jobs.size());
  EXPECT_EQ(hash_outcomes(out->merged.slots), want);
}

TEST_F(ShardCoordinatorTest, TornShardRecordsAreRepairedInline) {
  const auto jobs = small_jobs();
  const std::uint64_t want = reference_hash(jobs);

  // Shard 0's checkpoints all write torn images (the fault selector is the
  // shard index): worker 0's job_done events arrive, but its *last* record
  // is never durable. Completion is defined by what is on disk, so the
  // repair pass must detect the torn record and re-solve it inline.
  testing::arm("shard_write_short:node=0");
  shard_coordinator coord(base_options(2));
  auto out = coord.run(jobs);
  ASSERT_TRUE(out.ok()) << out.error().message();

  EXPECT_GE(out->jobs_solved_inline, 1u);
  EXPECT_EQ(out->jobs_solved_by_workers + out->jobs_solved_inline,
            jobs.size());
  EXPECT_EQ(hash_outcomes(out->merged.slots), want);
}

TEST_F(ShardCoordinatorTest, ObserverSeesLifecycleEvents) {
  const auto jobs = small_jobs(4);
  std::size_t spawned = 0, ready = 0, done = 0, ticks = 0;
  shard_coordinator coord(base_options(2));
  auto out = coord.run(jobs, [&](const coordinator_event& ev) {
    switch (ev.what) {
      case coordinator_event::kind::spawned: ++spawned; break;
      case coordinator_event::kind::ready: ++ready; break;
      case coordinator_event::kind::job_done: ++done; break;
      case coordinator_event::kind::tick: ++ticks; break;
      default: break;
    }
  });
  ASSERT_TRUE(out.ok()) << out.error().message();
  EXPECT_EQ(spawned, 2u);
  EXPECT_EQ(ready, 2u);
  EXPECT_EQ(done, jobs.size());
  EXPECT_GT(ticks, 0u);
}

TEST_F(ShardCoordinatorTest, RemoteModeMatchesSingleProcess) {
  // Worker slots are sessions against a real vabi_serve daemon over a unix
  // socket; the shards they journal locally must merge to the same bits as
  // the fork-mode / single-process solve of the same submit.
  serve::serve_options so;
  so.unix_socket_path = dir_ + "/serve.sock";
  so.journal_dir = dir_ + "/serve-journals";
  std::filesystem::create_directories(so.journal_dir);
  serve::solver_daemon daemon(std::move(so));
  ASSERT_EQ(daemon.start(), "");

  serve::submit_msg submit;
  submit.batch_seed = k_seed;
  for (std::size_t i = 0; i < 6; ++i) {
    serve::wire_job j;
    j.num_sinks = 12;
    submit.jobs.push_back(j);
  }

  const std::string shard_dir = dir_ + "/shards";
  std::filesystem::create_directories(shard_dir);
  auto opts = base_options(2);
  opts.journal_dir = shard_dir;
  shard_coordinator coord(opts);
  auto out = coord.run_remote(submit, dir_ + "/serve.sock");
  ASSERT_TRUE(out.ok()) << out.error().message();
  EXPECT_EQ(out->jobs_solved_by_workers, submit.jobs.size());

  // Reference: the same submit solved locally through the daemon's own
  // wire_job -> batch_job mapping, which is exactly what merge_shards
  // validated against.
  EXPECT_EQ(hash_outcomes(out->merged.slots), remote_reference_hash(submit));
}

TEST_F(ShardCoordinatorTest, RerunWithoutResumeStartsOverInTheSameDirectory) {
  const auto jobs = small_jobs();
  const std::uint64_t want = reference_hash(jobs);
  {
    shard_coordinator coord(base_options(3));
    auto first = coord.run(jobs);
    ASSERT_TRUE(first.ok()) << first.error().message();
    // shard-00002 holds records, and a 2-worker rerun never rewrites it.
    ASSERT_GE(first->workers[2].jobs_completed, 1u);
  }
  // Without resume the earlier run's shards are not this run's: they must
  // not reach its merge as overlapping (or, for another batch, foreign)
  // shards.
  shard_coordinator coord(base_options(2));
  auto out = coord.run(jobs);
  ASSERT_TRUE(out.ok()) << out.error().message();
  EXPECT_EQ(out->jobs_recovered, 0u);
  EXPECT_EQ(hash_outcomes(out->merged.slots), want);
}

TEST_F(ShardCoordinatorTest, RemoteSlotThatGivesUpFlushesItsShard) {
  serve::serve_options so;
  so.unix_socket_path = dir_ + "/serve.sock";
  so.journal_dir = dir_ + "/serve-journals";
  std::filesystem::create_directories(so.journal_dir);
  serve::solver_daemon daemon(std::move(so));
  ASSERT_EQ(daemon.start(), "");

  serve::submit_msg submit;
  submit.batch_seed = k_seed;
  for (std::size_t i = 0; i < 8; ++i) {
    serve::wire_job j;
    j.num_sinks = 12;
    submit.jobs.push_back(j);
  }

  const std::string shard_dir = dir_ + "/shards";
  std::filesystem::create_directories(shard_dir);
  auto opts = base_options(2);
  opts.journal_dir = shard_dir;
  opts.checkpoint_every_jobs = 100;  // nothing durable before a flush
  // Three results arrive; every later delivery tears its session, and every
  // connection after the two slots' first is refused. Both clients spend
  // their budgets with appended, never-checkpointed records in their shards.
  testing::arm("wire_drop_session:after=3;wire_accept_fail:after=2");
  shard_coordinator coord(opts);
  auto out = coord.run_remote(submit, dir_ + "/serve.sock");
  testing::disarm();
  ASSERT_TRUE(out.ok()) << out.error().message();

  // Exactly once: what a slot counted is on disk, so repair re-solves only
  // the rest.
  std::uint64_t by_workers = 0;
  for (const auto& w : out->workers) by_workers += w.jobs_completed;
  EXPECT_EQ(out->jobs_recovered + by_workers + out->jobs_solved_inline,
            out->jobs_total);
  EXPECT_EQ(hash_outcomes(out->merged.slots), remote_reference_hash(submit));
}

}  // namespace
}  // namespace vabi::shard
