// vabi_serve: a long-running, fault-tolerant streaming solver daemon.
//
// The daemon accepts concurrent sessions over a unix-domain socket and/or
// TCP, runs their batches on one shared work-stealing thread_pool, and
// streams each per-net result the moment it completes -- a thin, robust
// service layer over the exact batch machinery vabi_cli uses
// (prepare_batch_job + solve_statistical_insertion + the journal codec), so
// a remotely solved job is bit-identical to a local one.
//
// Robustness model (the reason this module exists):
//
//  * Admission control -- the pending-job queue is bounded
//    (serve_options::max_queued_jobs). A submit that would overflow it gets
//    a typed `overloaded` reply carrying the current depth and capacity;
//    nothing is partially admitted.
//  * Deadlines -- each session may carry a wall deadline. Expiry arms the
//    session's cancel_token: running jobs wind down as solve_code::cancelled
//    at the next node boundary, pending ones never start. Deadlines are
//    deliberately NOT implemented by mutating stat_options::max_wall_seconds
//    (that field is fingerprinted into the journal; changing it would brick
//    reconnect/resume).
//  * Priority -- sessions submit with a priority; the daemon keeps its own
//    ordered pending queue (priority desc, admission order asc) and feeds
//    the pool at most pool-width jobs at a time, so a high-priority session
//    overtakes queued work without preemption.
//  * Backpressure -- results for a slow reader accumulate in a bounded
//    per-session output buffer. When it overflows, the overflow parks and a
//    stall clock starts; a session stalled past stall_timeout_seconds is
//    *shed* (connection closed, batch cancelled, stats.sheds++) without
//    disturbing any other session. Shed work is not lost: completed jobs
//    are already in the session journal, so the client reconnects and
//    resumes.
//  * Graceful drain -- request_drain() (wired to SIGINT/SIGTERM in
//    examples/vabi_serve.cpp) stops admitting (new submits get a typed
//    `draining` reply), lets in-flight jobs finish, flushes every session
//    journal, then stops.
//  * Crash-safe reconnect -- every session with a journal_dir is backed by
//    a journal (journal_dir/<token>.vjl) in the exact solve_journaled
//    format. A client that reconnects with its token and resubmits the same
//    batch gets journaled results restored -- fingerprint-validated, zero
//    jobs re-solved, bit-identical bytes -- and only the remainder solved.
//
// Threading: one IO thread owns every socket (poll + self-pipe wakeup);
// pool workers solve jobs and hand results back under the daemon mutex. All
// session/queue state is guarded by that one mutex -- small critical
// sections, no lock ordering, TSan-clean by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "core/statistical_dp.hpp"
#include "layout/process_model.hpp"
#include "serve/stats_store.hpp"
#include "serve/wire.hpp"

namespace vabi::serve {

/// A submit's jobs as solver jobs, with the trees explicit-tree jobs borrow.
struct wire_batch {
  std::vector<core::batch_job> jobs;
  std::vector<std::unique_ptr<tree::routing_tree>> trees;
};

/// The one wire_job -> batch_job mapping, for the daemon and every caller
/// that must agree with it bit for bit. The wire options map onto solver
/// options exactly as examples/vabi_cli.cpp's make_stat_options maps its
/// flags, so a daemon-solved net matches a CLI-solved one option for option
/// -- and, because the journal fingerprints cover the mapped options,
/// journal for journal. Tree texts are parsed; generator seeds are left 0
/// for prepare/fingerprint to re-derive from submit_msg::batch_seed.
/// invalid_options / invalid_tree (naming the field or job) otherwise.
core::solve_outcome<wire_batch> make_batch_jobs(const submit_msg& submit);

struct serve_options {
  /// Unix-domain listener path ("" = none). An existing socket file at this
  /// path is unlinked at start (stale from a previous run).
  std::string unix_socket_path;
  /// TCP listener on 127.0.0.1 (-1 = none, 0 = ephemeral; see tcp_port()).
  int tcp_port = -1;
  /// Worker threads of the shared pool (0 = default_thread_count()).
  std::size_t num_threads = 0;
  /// Concurrent sessions; further connections are accepted and immediately
  /// refused with a typed overloaded message.
  std::size_t max_sessions = 64;
  /// Admission bound on pending + running jobs across all sessions.
  std::size_t max_queued_jobs = 1024;
  /// Per-session output buffer cap before backpressure parking begins.
  std::size_t max_output_buffer_bytes = std::size_t{4} << 20;
  /// A session continuously stalled (output parked, nothing drained) longer
  /// than this is shed.
  double stall_timeout_seconds = 10.0;
  /// stop() waits this long for in-flight jobs before cancelling them.
  double drain_timeout_seconds = 30.0;
  /// Session-journal directory ("" = sessions are not journal-backed and
  /// reconnect/resume re-solves everything).
  std::string journal_dir;
  /// Journal checkpoint cadence (journal_writer's count trigger).
  std::size_t checkpoint_every_jobs = 8;
};

class solver_daemon {
 public:
  explicit solver_daemon(serve_options opts);
  ~solver_daemon();

  solver_daemon(const solver_daemon&) = delete;
  solver_daemon& operator=(const solver_daemon&) = delete;

  /// Binds the listeners and starts the IO thread. Returns "" on success or
  /// a description of the bind/listen failure.
  std::string start();

  /// Stops admitting work (submits are answered with `draining`); in-flight
  /// jobs keep running. Idempotent, callable from a signal-forwarding
  /// thread.
  void request_drain();

  /// request_drain + wait (bounded by drain_timeout_seconds, then cancel) +
  /// flush journals + join the IO thread. Idempotent.
  void stop();

  bool draining() const;

  /// The TCP port actually bound (meaningful after start(); resolves an
  /// ephemeral tcp_port = 0 request).
  int tcp_port() const;
  const std::string& unix_socket_path() const;

  /// Aggregated service statistics (also served in-band via stats_request).
  std::string stats_json() const;
  stats_store& stats();

  // Observability for tests.
  std::size_t active_sessions() const;
  std::size_t queue_depth() const;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

}  // namespace vabi::serve
