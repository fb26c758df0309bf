// vabi_shard: multi-process sharded batch solving with exactly-once resume.
//
// Partitions a batch of generated nets across N forked worker processes
// (or N sessions against a running vabi_serve daemon with --remote-*), each
// writing its own journal shard under --journal-dir. Crashed or hung workers
// are restarted with exponential backoff under a per-slot --kill-budget;
// jobs already durable in a dead worker's shard are recovered, never
// re-solved. On completion the shards are merged into one result set that is
// bit-identical to a single-process journaled run -- which --verify asserts
// by actually running one and comparing the results job by job.
//
//   vabi_shard --nets 32 --sinks 12 --seed 7 --workers 4 --journal-dir /tmp/s
//   vabi_shard ... --resume          # pick up after a kill -9
//   (a rerun without --resume starts over: it removes the existing shards)
//   vabi_shard ... --remote-socket /tmp/vabi.sock
//
// Exit codes: 0 merged ok, 1 usage, 2 coordinator/journal failure,
// 3 shard merge mismatch, 4 --verify divergence.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/solve_status.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "shard/shard_coordinator.hpp"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: vabi_shard [options]\n"
      "  --nets N              number of generated nets (default 16)\n"
      "  --sinks S             sinks per net (default 12)\n"
      "  --seed SEED           batch seed (default 1)\n"
      "  --workers W           worker processes/sessions (default 2)\n"
      "  --journal-dir D       directory for shard journals (required)\n"
      "  --resume              recover jobs from existing shards first\n"
      "                        (without it, existing shards are removed)\n"
      "  --kill-budget K       restarts per slot before retiring (default 3)\n"
      "  --heartbeat-ms MS     worker heartbeat interval (default 25)\n"
      "  --timeout-ms MS       silent-worker kill threshold (default 2000)\n"
      "  --remote-socket PATH  use vabi_serve sessions on a unix socket\n"
      "  --remote-port P       use vabi_serve sessions on 127.0.0.1:P\n"
      "  --verify              also solve single-process, compare each job\n");
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t nets = 16;
  std::size_t sinks = 12;
  std::uint64_t seed = 1;
  std::string remote_socket;
  int remote_port = -1;
  bool verify = false;
  vabi::shard::coordinator_options copts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--nets") {
      nets = static_cast<std::size_t>(std::atoi(value().c_str()));
    } else if (a == "--sinks") {
      sinks = static_cast<std::size_t>(std::atoi(value().c_str()));
    } else if (a == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--workers") {
      copts.num_workers = static_cast<std::size_t>(std::atoi(value().c_str()));
    } else if (a == "--journal-dir") {
      copts.journal_dir = value();
    } else if (a == "--resume") {
      copts.resume = true;
    } else if (a == "--kill-budget") {
      copts.restart_budget =
          static_cast<std::size_t>(std::atoi(value().c_str()));
    } else if (a == "--heartbeat-ms") {
      copts.heartbeat_interval_ms = std::atof(value().c_str());
    } else if (a == "--timeout-ms") {
      copts.heartbeat_timeout_ms = std::atof(value().c_str());
    } else if (a == "--remote-socket") {
      remote_socket = value();
    } else if (a == "--remote-port") {
      remote_port = std::atoi(value().c_str());
    } else if (a == "--verify") {
      verify = true;
    } else {
      std::fprintf(stderr, "vabi_shard: unknown option '%s'\n", a.c_str());
      usage();
    }
  }
  if (copts.journal_dir.empty()) {
    std::fprintf(stderr, "vabi_shard: --journal-dir is required\n");
    usage();
  }
  copts.batch_seed = seed;

  // One submit message defines the batch for every mode: the forked workers
  // and --verify solve serve::make_batch_jobs' mapping of it (standard
  // library, the wire options' defaults), which is what a daemon solves.
  vabi::serve::submit_msg submit;
  submit.batch_seed = seed;
  submit.jobs.resize(nets);
  for (auto& wj : submit.jobs) wj.num_sinks = sinks;
  auto batch = vabi::serve::make_batch_jobs(submit);
  if (!batch.ok()) {
    std::fprintf(stderr, "vabi_shard: %s\n", batch.error().message().c_str());
    return 2;
  }
  const std::vector<vabi::core::batch_job>& jobs = batch->jobs;

  vabi::shard::shard_coordinator coord(copts);
  vabi::core::solve_outcome<vabi::shard::coordinator_report> run_result =
      !remote_socket.empty()
          ? coord.run_remote(submit, remote_socket)
      : remote_port > 0
          ? coord.run_remote(submit, "port:" + std::to_string(remote_port))
          : coord.run(jobs);

  if (!run_result.ok()) {
    std::fprintf(stderr, "vabi_shard: %s\n",
                 run_result.error().message().c_str());
    return run_result.error().code == vabi::core::solve_code::shard_mismatch
               ? 3
               : 2;
  }

  const vabi::shard::coordinator_report& rep = *run_result;
  const auto& merged = rep.merged.slots;
  // Solver failures stay typed inside their slots, so a run whose every job
  // failed still merges (and verifies); the count makes that visible.
  const auto is_failed = [](const auto& slot) { return !slot.ok(); };
  const auto first_failed =
      std::find_if(merged.begin(), merged.end(), is_failed);
  const auto failed = static_cast<std::size_t>(
      std::count_if(first_failed, merged.end(), is_failed));
  std::printf(
      "vabi_shard: %zu jobs merged from %zu shards in %.3fs "
      "(failed=%zu recovered=%zu workers=%zu inline=%zu restarts=%zu "
      "retired=%zu)\n",
      rep.jobs_total, rep.merged.shards_read, rep.wall_seconds, failed,
      rep.jobs_recovered, rep.jobs_solved_by_workers, rep.jobs_solved_inline,
      rep.restarts_total, rep.workers_retired);
  if (failed > 0) {
    std::fprintf(stderr, "vabi_shard: job %zu failed: %s\n",
                 static_cast<std::size_t>(first_failed - merged.begin()),
                 first_failed->error().message().c_str());
  }
  for (std::size_t w = 0; w < rep.workers.size(); ++w) {
    const vabi::shard::worker_stats& ws = rep.workers[w];
    const double rate =
        rep.wall_seconds > 0.0
            ? static_cast<double>(ws.jobs_completed) / rep.wall_seconds
            : 0.0;
    std::printf(
        "  worker %zu: jobs=%llu (%.1f/s) restarts=%llu shards=%llu "
        "heartbeats=%llu\n",
        w, static_cast<unsigned long long>(ws.jobs_completed), rate,
        static_cast<unsigned long long>(ws.restarts),
        static_cast<unsigned long long>(ws.shards_opened),
        static_cast<unsigned long long>(ws.heartbeats));
  }

  if (verify) {
    vabi::core::batch_solver::config scfg;
    scfg.batch_seed = seed;
    vabi::core::batch_solver solver{scfg};
    const auto reference = solver.solve_outcomes(jobs);
    const auto [at, _] =
        std::mismatch(reference.begin(), reference.end(), merged.begin(),
                      merged.end(), vabi::core::outcomes_identical);
    if (at != reference.end() || reference.size() != merged.size()) {
      std::fprintf(stderr,
                   "vabi_shard: VERIFY FAILED -- merged result diverges from "
                   "single-process solve at job %zu\n",
                   static_cast<std::size_t>(at - reference.begin()));
      return 4;
    }
    std::printf(
        "vabi_shard: verify ok -- merged == single-process (%zu jobs)\n",
        reference.size());
  }
  return 0;
}
