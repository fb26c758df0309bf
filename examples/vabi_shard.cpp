// vabi_shard: multi-process sharded batch solving with exactly-once resume.
//
// Partitions a batch of generated nets across N forked worker processes
// (or N sessions against a running vabi_serve daemon with --remote-*), each
// writing its own journal shard under --journal-dir. Crashed or hung workers
// are restarted with exponential backoff under a per-slot --kill-budget;
// jobs already durable in a dead worker's shard are recovered, never
// re-solved. On completion the shards are merged into one result set that is
// bit-identical to a single-process journaled run -- which --verify asserts
// by actually running one and comparing result hashes.
//
//   vabi_shard --nets 32 --sinks 12 --seed 7 --workers 4 --journal-dir /tmp/s
//   vabi_shard ... --resume          # pick up after a kill -9
//   (a rerun without --resume starts over: it removes the existing shards)
//   vabi_shard ... --remote-socket /tmp/vabi.sock
//
// Exit codes: 0 merged ok, 1 usage, 2 coordinator/journal failure,
// 3 shard merge mismatch, 4 --verify hash divergence.
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/parallel.hpp"
#include "core/solve_status.hpp"
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
      "  --verify              also solve single-process and compare hashes\n");
  std::exit(1);
}

/// Order-sensitive hash over the merged outcomes, mirroring the one the
/// shard tests use: nominal-RAT bits + buffer count for ok slots, the code
/// for failed ones.
std::uint64_t hash_slots(
    const std::vector<vabi::core::solve_outcome<vabi::core::batch_result>>&
        slots) {
  std::uint64_t h = vabi::core::fnv1a_seed;
  for (const auto& slot : slots) {
    h = vabi::core::fnv1a_u64(slot.ok() ? 1 : 0, h);
    if (slot.ok()) {
      h = vabi::core::fnv1a_u64(
          std::bit_cast<std::uint64_t>(slot->result.root_rat.nominal()), h);
      h = vabi::core::fnv1a_u64(slot->result.num_buffers, h);
    } else {
      h = vabi::core::fnv1a_u64(
          static_cast<std::uint64_t>(slot.error().code), h);
    }
  }
  return h;
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

  std::vector<vabi::core::batch_job> jobs(nets);
  for (auto& job : jobs) {
    vabi::tree::random_tree_options g;
    g.num_sinks = sinks;
    job.generate = g;
  }

  vabi::shard::shard_coordinator coord(copts);
  vabi::core::solve_outcome<vabi::shard::coordinator_report> run_result =
      [&]() {
        if (!remote_socket.empty()) {
          vabi::serve::submit_msg submit;
          submit.batch_seed = seed;
          for (std::size_t i = 0; i < nets; ++i) {
            vabi::serve::wire_job wj;
            wj.num_sinks = sinks;
            submit.jobs.push_back(wj);
          }
          return coord.run_remote(submit, remote_socket);
        }
        if (remote_port > 0) {
          vabi::serve::submit_msg submit;
          submit.batch_seed = seed;
          for (std::size_t i = 0; i < nets; ++i) {
            vabi::serve::wire_job wj;
            wj.num_sinks = sinks;
            submit.jobs.push_back(wj);
          }
          return coord.run_remote(submit,
                                  "port:" + std::to_string(remote_port));
        }
        return coord.run(jobs);
      }();

  if (!run_result.ok()) {
    std::fprintf(stderr, "vabi_shard: %s\n",
                 run_result.error().message().c_str());
    return run_result.error().code == vabi::core::solve_code::shard_mismatch
               ? 3
               : 2;
  }

  const vabi::shard::coordinator_report& rep = *run_result;
  std::printf(
      "vabi_shard: %zu jobs merged from %zu shards in %.3fs "
      "(recovered=%zu workers=%zu inline=%zu restarts=%zu retired=%zu)\n",
      rep.jobs_total, rep.merged.shards_read, rep.wall_seconds,
      rep.jobs_recovered, rep.jobs_solved_by_workers, rep.jobs_solved_inline,
      rep.restarts_total, rep.workers_retired);
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
    if (reference.size() != rep.merged.slots.size() ||
        hash_slots(reference) != hash_slots(rep.merged.slots)) {
      std::fprintf(stderr,
                   "vabi_shard: VERIFY FAILED -- merged result diverges from "
                   "single-process solve\n");
      return 4;
    }
    std::printf("vabi_shard: verify ok -- merged == single-process (hash %llx)\n",
                static_cast<unsigned long long>(hash_slots(reference)));
  }
  return 0;
}
