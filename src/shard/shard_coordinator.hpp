// Multi-process sharded batch solving with exactly-once resume.
//
// shard_coordinator scales a batch past one process: it partitions the
// batch's jobs-fingerprint space across N worker slots (job i starts on slot
// fingerprint(i) % N; idle slots steal from the longest queue), runs one
// worker process per slot, and supervises them:
//
//   - fork mode (run): each slot is a forked child talked to over two pipes
//     (9-byte command/event messages). The child writes its own journal
//     shard (`shard-<index>.vjl`, a "vabi journal v1" file with a
//     core::shard_info frame) and checkpoints every job, heartbeating on a
//     side thread. The coordinator itself stays single-threaded -- an
//     epoll-style poll loop over the event pipes -- so every fork happens
//     from a single-threaded process (the repo's fork-safety rule).
//   - remote mode (run_remote): each slot is a serve_client session against
//     a running vabi_serve daemon. The coordinator prepares every job's net
//     locally and ships it as an explicit tree text (tree text round-trips
//     doubles bit-exactly), then rewrites the returned record's job index
//     and fingerprint to the batch-global values before journaling it into
//     the slot's local shard -- so the on-disk shards are indistinguishable
//     from fork-mode ones and the same merge applies. Connection faults are
//     absorbed by the client's own reconnect/resume machinery.
//
// Failure model (fork mode): a worker that exits, is SIGKILLed, or stops
// heartbeating past the timeout is declared dead. Its shard journal is read
// back immediately -- every record already durable is *recovered*, never
// re-solved -- the in-flight job returns to its queue, and the slot restarts
// with exponential backoff under a per-slot restart budget. Each incarnation
// writes a fresh shard (monotonic index); dead shards are immutable. A slot
// whose budget is exhausted is retired and its remaining jobs flow to the
// survivors. If every slot retires, or a journaled-then-torn record left a
// job uncovered on disk (shard_write_short), the coordinator solves the
// remainder inline into a repair shard -- completion is guaranteed under any
// chaos the fault points can produce. Remote mode shares this repair pass,
// and every shard read goes through read_shard (shard_merge.hpp).
//
// On completion the coordinator runs merge_shards (shard_merge.hpp): the
// merged slots are bit-identical to a single-process solve_journaled run of
// the same jobs, asserted by hash in tests/shard and bench_fig5_scaling.
//
// Exactly-once accounting: worker_stats::jobs_completed counts the distinct
// jobs whose records ended up durable in that slot's shards; recovered +
// sum(jobs_completed) + inline == jobs_total, with zero jobs solved twice.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/solve_status.hpp"
#include "serve/wire.hpp"
#include "shard/shard_merge.hpp"

namespace vabi::shard {

struct coordinator_options {
  std::size_t num_workers = 2;  ///< worker slots (>= 1)
  std::string journal_dir;      ///< required; shards land here
  /// Per-job seeds derive from this exactly like batch_solver's.
  std::optional<std::uint64_t> batch_seed;
  /// Recover jobs from the shards a previous (killed) run left behind.
  /// Without it the run starts over: the `shard-*.vjl` files already in
  /// journal_dir are removed before the first worker starts.
  bool resume = false;
  /// Worker-side journal checkpoint interval. 1 (the default) makes every
  /// job durable the moment it finishes -- the exactly-once sweet spot.
  std::size_t checkpoint_every_jobs = 1;
  /// Restarts each slot may consume before it is retired (--kill-budget).
  std::size_t restart_budget = 3;
  double heartbeat_interval_ms = 25.0;
  /// A worker silent for this long is declared hung and SIGKILLed.
  double heartbeat_timeout_ms = 2000.0;
  /// Restart k of a slot waits min(base * 2^k, max) before respawning.
  double restart_backoff_base_ms = 10.0;
  double restart_backoff_max_ms = 500.0;
};

/// Per-slot accounting, summed across the slot's incarnations.
struct worker_stats {
  std::uint64_t jobs_completed = 0;  ///< distinct jobs durably journaled
  std::uint64_t restarts = 0;        ///< respawns after death/hang/spawn-fail
  std::uint64_t shards_opened = 0;   ///< incarnations (one shard each)
  std::uint64_t heartbeats = 0;
};

/// One supervision event, delivered to the observer from the coordinator's
/// own thread (fork mode). `tick` fires every poll-loop iteration, which is
/// what the chaos test uses to SIGKILL workers at measured kill points
/// without a second thread racing the coordinator's forks.
struct coordinator_event {
  enum class kind : std::uint8_t {
    tick,       ///< one poll-loop iteration
    spawned,    ///< slot forked a worker (pid set)
    ready,      ///< worker opened its shard and reported in
    job_done,   ///< worker durably journaled job `job`
    died,       ///< worker exited / was killed / hung past the timeout
    restarted,  ///< slot respawned after backoff
    retired,    ///< slot exhausted its restart budget
  };
  kind what = kind::tick;
  std::size_t slot = 0;
  long pid = -1;
  std::uint64_t job = 0;
};

struct coordinator_report {
  std::size_t jobs_total = 0;
  std::size_t jobs_recovered = 0;          ///< from pre-existing shards (resume)
  std::size_t jobs_solved_by_workers = 0;  ///< durable in worker shards
  std::size_t jobs_solved_inline = 0;      ///< coordinator repair/fallback
  std::size_t restarts_total = 0;
  std::size_t workers_retired = 0;
  std::size_t shards_on_disk = 0;
  std::vector<worker_stats> workers;  ///< slot i; remote mode: session i
  merged_batch merged;                ///< the combined, bit-identical result
  double wall_seconds = 0.0;
};

class shard_coordinator {
 public:
  using observer = std::function<void(const coordinator_event&)>;

  explicit shard_coordinator(coordinator_options opts);

  /// Fork mode. Must be called from a single-threaded process (forks).
  /// The outer outcome is an error when the shards cannot be used at all
  /// (journal_corrupt / shard_mismatch / invalid_options); per-job solver
  /// failures stay typed inside merged.slots.
  core::solve_outcome<coordinator_report> run(
      const std::vector<core::batch_job>& jobs, const observer& obs = {});

  /// Remote mode: slots are vabi_serve sessions on `endpoint` (unix socket
  /// path, or "port:<n>" for loopback TCP). The submit's reduced wire
  /// options are mapped to full solver options exactly as the server maps
  /// them, so the local reference fingerprints match what merge validates.
  /// The observer is not called from remote mode (worker threads).
  core::solve_outcome<coordinator_report> run_remote(
      const serve::submit_msg& submit, const std::string& endpoint);

 private:
  coordinator_options opts_;
};

}  // namespace vabi::shard
