#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/yield.hpp"
#include "core/journal.hpp"
#include "core/parallel.hpp"
#include "serve/wire.hpp"
#include "stats/rng.hpp"
#include "testing/fault_injection.hpp"
#include "timing/buffer_library.hpp"
#include "tree/tree_io.hpp"

namespace vabi::serve {

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Tokens become journal filenames; anything outside this alphabet is
/// rejected at hello (no path traversal through a session token).
bool valid_token(const std::string& token) {
  if (token.empty() || token.size() > 64) return false;
  for (char c : token) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Deterministic wire_options -> solver-config mapping. Returns "" on
/// success or a description of the invalid field.
std::string map_wire_options(const wire_options& w, core::stat_options& out,
                             layout::process_model_config& model) {
  if (w.rule > 2) return "unknown pruning rule " + std::to_string(w.rule);
  if (w.mode > 2) return "unknown variation mode " + std::to_string(w.mode);
  if (w.profile > 1) {
    return "unknown spatial profile " + std::to_string(w.profile);
  }
  if (w.degrade > 2) {
    return "unknown degrade policy " + std::to_string(w.degrade);
  }
  out = core::stat_options{};
  out.library = timing::standard_library();
  out.driver_res_ohm = w.driver_res_ohm;
  out.rule = static_cast<core::pruning_kind>(w.rule);
  out.two_param.p_load = w.pbar;
  out.two_param.p_rat = w.pbar;
  out.root_percentile = w.yield_percentile;
  out.selection_percentile = w.yield_percentile;
  if (out.rule == core::pruning_kind::four_param) {
    out.max_list_size = 200000;
    out.max_wall_seconds = 300.0;
  }
  if (w.per_net_deadline_seconds > 0.0) {
    out.max_wall_seconds = w.per_net_deadline_seconds;
  }
  out.degrade = static_cast<core::degrade_policy>(w.degrade);
  model = layout::process_model_config{};
  model.mode = w.mode == 0   ? layout::nom_mode()
               : w.mode == 1 ? layout::d2d_mode()
                             : layout::wid_mode();
  model.spatial.profile = w.profile == 0
                              ? layout::spatial_profile::homogeneous
                              : layout::spatial_profile::heterogeneous;
  return "";
}

}  // namespace

core::solve_outcome<wire_batch> make_batch_jobs(const submit_msg& submit) {
  core::stat_options options;
  layout::process_model_config model_config;
  if (std::string err = map_wire_options(submit.options, options, model_config);
      !err.empty()) {
    return core::solve_error{core::solve_code::invalid_options,
                             tree::invalid_node, std::move(err)};
  }
  wire_batch out;
  out.jobs.reserve(submit.jobs.size());
  for (std::size_t i = 0; i < submit.jobs.size(); ++i) {
    const wire_job& wj = submit.jobs[i];
    core::batch_job job;
    job.options = options;
    job.model = model_config;
    if (wj.has_tree) {
      try {
        out.trees.push_back(std::make_unique<tree::routing_tree>(
            tree::read_tree_from_string(wj.tree_text)));
      } catch (const std::exception& e) {
        return core::solve_error{core::solve_code::invalid_tree,
                                 tree::invalid_node,
                                 "job " + std::to_string(i) + ": " + e.what()};
      }
      job.tree = out.trees.back().get();
    } else {
      tree::random_tree_options g;
      g.num_sinks = static_cast<std::size_t>(wj.num_sinks);
      g.die_side_um = wj.die_side_um;
      g.criticality_balance = wj.criticality_balance;
      g.seed = 0;  // re-derived from batch_seed at prepare/fingerprint time
      job.generate = g;
    }
    out.jobs.push_back(std::move(job));
  }
  return out;
}

// ---------------------------------------------------------------------------
// impl
// ---------------------------------------------------------------------------

struct solver_daemon::impl {
  /// One admitted batch. Outlives its connection: a torn session leaves the
  /// batch draining (cancelled) with its journal intact, which is what a
  /// reconnect resumes from.
  struct session_batch {
    std::string token;
    std::uint8_t priority = 1;
    std::optional<std::uint64_t> batch_seed;
    std::vector<core::batch_job> jobs;
    /// Owns the trees of explicit-tree wire jobs (batch_job borrows).
    std::vector<std::unique_ptr<tree::routing_tree>> owned_trees;
    std::vector<std::uint64_t> fingerprints;
    std::unique_ptr<core::journal_writer> writer;
    core::cancel_token cancel;
    clock_type::time_point started;
    // All guarded by the daemon mutex.
    std::size_t remaining = 0;
    std::uint64_t solved = 0;
    std::uint64_t restored = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
  };

  struct session {
    std::uint64_t sid = 0;
    int fd = -1;
    bool greeted = false;
    bool resume_requested = false;
    std::string token;
    frame_splitter in;
    // Output: bounded buffer + parked overflow (backpressure).
    std::deque<std::vector<std::uint8_t>> out;
    std::size_t out_off = 0;    ///< bytes of out.front() already written
    std::size_t out_bytes = 0;  ///< total bytes queued in `out`
    std::deque<std::vector<std::uint8_t>> parked;
    bool stalled = false;
    clock_type::time_point stall_since;
    bool closing = false;  ///< flush `out`, then close
    bool deadline_reported = false;
    bool has_deadline = false;
    clock_type::time_point deadline;
    std::shared_ptr<session_batch> batch;
    /// A resubmit waiting for this token's previous batch to drain.
    std::optional<submit_msg> pending_submit;
  };

  struct pending_job {
    std::uint8_t priority = 1;
    std::uint64_t seq = 0;
    std::shared_ptr<session_batch> batch;
    std::size_t index = 0;
  };
  struct pending_cmp {
    bool operator()(const pending_job& a, const pending_job& b) const {
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;  // FIFO within a priority level
    }
  };

  explicit impl(serve_options o) : opts(std::move(o)), pool(opts.num_threads) {}

  serve_options opts;
  stats_store stats;

  mutable std::mutex mu;
  std::condition_variable drain_cv;
  bool draining = false;
  bool stopping = false;
  bool started = false;

  int wake_r = -1;
  int wake_w = -1;
  int unix_fd = -1;
  int tcp_fd = -1;
  int tcp_port = -1;

  std::map<std::uint64_t, std::unique_ptr<session>> sessions;
  std::unordered_map<std::string, std::uint64_t> token_to_sid;
  std::unordered_map<std::string, std::shared_ptr<session_batch>> batches;
  std::priority_queue<pending_job, std::vector<pending_job>, pending_cmp>
      pending;
  std::size_t inflight = 0;
  std::uint64_t next_sid = 1;
  std::uint64_t next_seq = 1;
  std::uint64_t token_counter = 0;

  std::thread io;
  /// Declared after everything its tasks touch: destroyed first, so queued
  /// tasks drain while the rest of the impl is still alive.
  core::thread_pool pool;

  // -- plumbing -------------------------------------------------------------

  void wake() {
    if (wake_w < 0) return;
    const char b = 1;
    ssize_t ignored = ::write(wake_w, &b, 1);  // EAGAIN = already signaled
    (void)ignored;
  }

  void enqueue_frame_locked(session& s, std::vector<std::uint8_t> frame) {
    if (s.fd < 0) return;
    // An empty queue always admits one frame even past the cap: a single
    // frame can legitimately exceed max_output_buffer_bytes (a big canonical
    // form), and parking it with nothing in flight would deadlock the
    // session into a stall-shed.
    if (!s.stalled &&
        (s.out.empty() ||
         s.out_bytes + frame.size() <= opts.max_output_buffer_bytes)) {
      s.out_bytes += frame.size();
      s.out.push_back(std::move(frame));
    } else {
      if (!s.stalled) {
        s.stalled = true;
        s.stall_since = clock_type::now();
      }
      s.parked.push_back(std::move(frame));
    }
    wake();
  }

  void send_locked(session& s, const message& m) {
    enqueue_frame_locked(s, encode_frame(m));
  }

  session* session_for_token_locked(const std::string& token) {
    auto it = token_to_sid.find(token);
    if (it == token_to_sid.end()) return nullptr;
    auto sit = sessions.find(it->second);
    return sit == sessions.end() ? nullptr : sit->second.get();
  }

  enum class close_reason { normal, shed, torn };

  void close_session_locked(std::uint64_t sid, close_reason reason) {
    auto it = sessions.find(sid);
    if (it == sessions.end()) return;
    session& s = *it->second;
    if (s.fd >= 0) {
      ::close(s.fd);
      s.fd = -1;
    }
    if (!s.token.empty()) {
      auto tit = token_to_sid.find(s.token);
      if (tit != token_to_sid.end() && tit->second == sid) {
        token_to_sid.erase(tit);
      }
      if (reason == close_reason::shed) {
        stats.on_session_shed(s.token);
      } else if (s.greeted) {
        stats.on_session_closed(s.token);
      }
    }
    // A gone client gets no more results: cancel what its batch has not
    // finished. Completed jobs are already journaled; cancelled ones are
    // not, so a reconnect restores the former and re-solves only the rest.
    if (s.batch != nullptr && s.batch->remaining > 0) {
      s.batch->cancel.request_stop();
    }
    sessions.erase(it);
  }

  // -- result flow ----------------------------------------------------------

  void deliver_result_locked(const std::shared_ptr<session_batch>& b,
                             const core::journal_record& rec, bool resumed,
                             std::uint64_t cache_hits,
                             std::uint64_t cache_misses,
                             std::uint64_t nodes_reused) {
    session* s = session_for_token_locked(b->token);
    if (s == nullptr || s->batch != b) return;
    result_msg m;
    m.resumed = resumed;
    m.record = rec;
    m.cache_hits = cache_hits;
    m.cache_misses = cache_misses;
    m.nodes_reused = nodes_reused;
    send_locked(*s, message{std::move(m)});
    if (testing::should_fire(testing::fault_point::wire_drop_session,
                             rec.job_index)) {
      close_session_locked(s->sid, close_reason::torn);
    }
  }

  void finish_batch_locked(const std::shared_ptr<session_batch>& b) {
    if (b->writer != nullptr) b->writer->flush();
    if (session* s = session_for_token_locked(b->token);
        s != nullptr && s->batch == b) {
      batch_done_msg done;
      done.solved = b->solved;
      done.restored = b->restored;
      done.failed = b->failed;
      done.cancelled = b->cancelled;
      done.wall_seconds = seconds_since(b->started);
      send_locked(*s, message{done});
    }
    auto it = batches.find(b->token);
    if (it != batches.end() && it->second == b) batches.erase(it);
    drain_cv.notify_all();
  }

  void dispatch_locked() {
    while (inflight < pool.size() && !pending.empty()) {
      pending_job pj = pending.top();
      pending.pop();
      if (pj.batch->cancel.stop_requested()) {
        // Never started: complete inline as cancelled (not journaled, so a
        // resume re-solves it).
        core::journal_record rec;
        rec.job_index = pj.index;
        rec.fingerprint = pj.batch->fingerprints[pj.index];
        rec.ok = false;
        rec.code = core::solve_code::cancelled;
        rec.detail = "cancelled before start";
        ++pj.batch->cancelled;
        deliver_result_locked(pj.batch, rec, false, 0, 0, 0);
        if (--pj.batch->remaining == 0) finish_batch_locked(pj.batch);
        continue;
      }
      ++inflight;
      pool.submit([this, b = pj.batch, i = pj.index] { run_job(b, i); });
    }
    stats.set_queue_depth(pending.size() + inflight);
  }

  /// Pool-worker body: solve job i of batch b and hand the outcome back.
  /// core::solve_batch_job gives batch_solver's isolation guarantees --
  /// nothing the job does escapes the worker.
  void run_job(const std::shared_ptr<session_batch>& b, std::size_t i) {
    const clock_type::time_point t0 = clock_type::now();
    const auto out =
        core::solve_batch_job(b->jobs[i], i, b->batch_seed, &b->cancel);
    const core::journal_record rec =
        core::make_journal_record(i, b->fingerprints[i], out);
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t nodes_reused = 0;
    double yield = -1.0;  // < 0: no yield figure (failed/cancelled jobs)
    if (out.ok()) {
      cache_hits = out->result.stats.cache_hits;
      cache_misses = out->result.stats.cache_misses;
      nodes_reused = out->result.stats.nodes_reused;
      // Paper Section-5.3 yield convention, self-contained per job: the
      // probability the root RAT clears its own mean relaxed by 10%.
      yield = analysis::timing_yield(
          rec.result.root_rat, out->model.space(),
          analysis::target_rat_from_mean(rec.result.root_rat.nominal()));
    }
    const double latency_ms = seconds_since(t0) * 1e3;

    std::lock_guard lk(mu);
    --inflight;
    const bool was_cancelled =
        !rec.ok && rec.code == core::solve_code::cancelled;
    if (!was_cancelled && b->writer != nullptr) b->writer->append(rec);
    if (rec.ok) {
      ++b->solved;
    } else if (was_cancelled) {
      ++b->cancelled;
    } else {
      ++b->failed;
    }
    stats.on_job_done(b->token, rec.ok, latency_ms, cache_hits, cache_misses,
                      nodes_reused, yield);
    deliver_result_locked(b, rec, false, cache_hits, cache_misses,
                          nodes_reused);
    if (--b->remaining == 0) finish_batch_locked(b);
    dispatch_locked();
    wake();
    drain_cv.notify_all();
  }

  // -- admission ------------------------------------------------------------

  std::string journal_path_for(const std::string& token) const {
    if (opts.journal_dir.empty()) return "";
    return opts.journal_dir + "/" + token + ".vjl";
  }

  void reply_error_locked(session& s, core::solve_code code,
                          std::string detail) {
    session_error_msg e;
    e.code = static_cast<std::uint8_t>(code);
    e.detail = std::move(detail);
    send_locked(s, message{std::move(e)});
  }

  void handle_submit_locked(session& s, submit_msg m) {
    if (draining) {
      send_locked(s, message{draining_msg{"daemon is draining"}});
      return;
    }
    if (s.batch != nullptr && s.batch->remaining > 0) {
      reply_error_locked(s, core::solve_code::invalid_options,
                         "session already has a batch in flight");
      return;
    }
    if (m.jobs.empty()) {
      reply_error_locked(s, core::solve_code::invalid_options,
                         "submit carries no jobs");
      return;
    }
    // A reconnect whose previous incarnation still has jobs in flight:
    // cancel the orphan and park the submit until it drains, so the journal
    // is quiescent before we read it back.
    if (auto it = batches.find(s.token);
        it != batches.end() && it->second->remaining > 0) {
      it->second->cancel.request_stop();
      s.pending_submit = std::move(m);
      dispatch_locked();  // skim already-cancelled pending entries
      return;
    }
    if (opts.max_queued_jobs > 0 &&
        pending.size() + inflight + m.jobs.size() > opts.max_queued_jobs) {
      stats.on_overload_rejection();
      overloaded_msg o;
      o.queued = pending.size() + inflight;
      o.capacity = opts.max_queued_jobs;
      o.detail = "job queue full; retry with backoff";
      send_locked(s, message{std::move(o)});
      return;
    }

    auto b = std::make_shared<session_batch>();
    b->token = s.token;
    b->priority = m.priority;
    b->batch_seed = m.batch_seed;
    b->started = clock_type::now();

    auto mapped = make_batch_jobs(m);
    if (!mapped.ok()) {
      reply_error_locked(s, mapped.error().code,
                         std::move(mapped.error().detail));
      return;
    }
    b->jobs = std::move(mapped->jobs);
    b->owned_trees = std::move(mapped->trees);
    const core::batch_fingerprints fps =
        core::fingerprint_batch(b->jobs, b->batch_seed);
    b->fingerprints = fps.per_job;

    // -- resume: the journaled results that may stand in for a solve, under
    // the rules solve_journaled applies. The restored slots are only
    // checked: what a client receives is the journal's bytes, verbatim --
    std::vector<core::journal_record> restored;
    const std::string jpath = journal_path_for(s.token);
    if (s.resume_requested && !jpath.empty()) {
      auto read = core::read_batch_journal(jpath, fps, b->batch_seed);
      if (!read.ok()) {
        reply_error_locked(s, read.error().code,
                           std::move(read.error().detail));
        return;
      }
      for (const core::journal_record& rec : read->records) {
        const auto i = static_cast<std::size_t>(rec.job_index);
        auto slot =
            core::restore_journal_record(b->jobs[i], i, b->batch_seed, rec);
        if (!slot.ok()) {
          reply_error_locked(s, slot.error().code,
                             std::move(slot.error().detail));
          return;
        }
      }
      restored = std::move(read->records);
    }
    if (!jpath.empty()) {
      b->writer = std::make_unique<core::journal_writer>(
          jpath, core::batch_journal_header(fps, b->batch_seed),
          opts.checkpoint_every_jobs);
      for (const auto& rec : restored) b->writer->restore(rec);
    }

    // -- admit --------------------------------------------------------------
    s.batch = b;
    batches[s.token] = b;
    if (m.session_deadline_ms > 0) {
      s.has_deadline = true;
      s.deadline_reported = false;
      s.deadline = clock_type::now() +
                   std::chrono::milliseconds(m.session_deadline_ms);
    } else {
      s.has_deadline = false;
    }
    stats.on_jobs_admitted(s.token, b->jobs.size());

    accepted_msg acc;
    acc.num_jobs = b->jobs.size();
    acc.restored = restored.size();
    send_locked(s, message{acc});

    // Stream restored results first (in original journal append order --
    // the bytes are the journal's, verbatim), then queue the remainder.
    b->restored = restored.size();
    std::vector<bool> is_restored(b->jobs.size(), false);
    if (!restored.empty()) {
      stats.on_resume(s.token, restored.size());
      for (const auto& rec : restored) {
        is_restored[rec.job_index] = true;
        deliver_result_locked(b, rec, true, 0, 0, 0);
      }
    }
    b->remaining = 0;
    for (std::size_t i = 0; i < b->jobs.size(); ++i) {
      if (is_restored[i]) continue;
      ++b->remaining;
      pending.push(pending_job{b->priority, next_seq++, b, i});
    }
    if (b->remaining == 0) {
      finish_batch_locked(b);
    } else {
      dispatch_locked();
    }
  }

  void handle_message_locked(session& s, message&& m) {
    if (auto* hello = std::get_if<hello_msg>(&m)) {
      if (hello->version != k_protocol_version) {
        reply_error_locked(s, core::solve_code::invalid_options,
                           "protocol version mismatch");
        s.closing = true;
        return;
      }
      std::string token = hello->token;
      if (token.empty()) token = "s" + std::to_string(++token_counter);
      if (!valid_token(token)) {
        reply_error_locked(s, core::solve_code::invalid_options,
                           "invalid session token");
        s.closing = true;
        return;
      }
      // A reconnect takes the token over from its (dead) predecessor.
      if (session* old = session_for_token_locked(token);
          old != nullptr && old->sid != s.sid) {
        close_session_locked(old->sid, close_reason::torn);
      }
      s.token = token;
      s.greeted = true;
      s.resume_requested = hello->resume;
      token_to_sid[token] = s.sid;
      stats.on_session_opened(token);
      hello_ack_msg ack;
      ack.token = token;
      send_locked(s, message{std::move(ack)});
      return;
    }
    if (!s.greeted) {
      reply_error_locked(s, core::solve_code::invalid_options,
                         "first message must be hello");
      s.closing = true;
      return;
    }
    if (auto* submit = std::get_if<submit_msg>(&m)) {
      handle_submit_locked(s, std::move(*submit));
    } else if (std::get_if<cancel_msg>(&m) != nullptr) {
      if (s.batch != nullptr && s.batch->remaining > 0) {
        s.batch->cancel.request_stop();
      }
    } else if (std::get_if<stats_request_msg>(&m) != nullptr) {
      send_locked(s, message{stats_reply_msg{stats.to_json()}});
    } else if (std::get_if<bye_msg>(&m) != nullptr) {
      s.closing = true;
    } else {
      reply_error_locked(s, core::solve_code::invalid_options,
                         "unexpected server-side message from client");
      s.closing = true;
    }
  }

  // -- IO thread ------------------------------------------------------------

  void handle_readable_locked(session& s) {
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = wire_read(s.fd, buf, sizeof buf);
      if (n > 0) {
        s.in.feed(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_session_locked(s.sid, close_reason::torn);  // EOF or error
      return;
    }
    for (;;) {
      message m;
      std::string err;
      const decode_status st = s.in.next(m, err);
      if (st == decode_status::need_more) break;
      if (st == decode_status::corrupt) {
        reply_error_locked(s, core::solve_code::internal, err);
        s.closing = true;
        break;
      }
      const std::uint64_t sid = s.sid;
      handle_message_locked(s, std::move(m));
      if (sessions.find(sid) == sessions.end()) return;  // closed itself
    }
  }

  void flush_writable_locked(session& s) {
    while (!s.out.empty()) {
      const std::vector<std::uint8_t>& front = s.out.front();
      if (testing::should_fire(testing::fault_point::wire_short_write,
                               s.sid)) {
        close_session_locked(s.sid, close_reason::torn);
        return;
      }
      const ssize_t n = ::send(s.fd, front.data() + s.out_off,
                               front.size() - s.out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        close_session_locked(s.sid, close_reason::torn);
        return;
      }
      s.out_off += static_cast<std::size_t>(n);
      s.out_bytes -= static_cast<std::size_t>(n);
      if (s.out_off == front.size()) {
        s.out.pop_front();
        s.out_off = 0;
      }
    }
    // Un-park overflow as room frees up (an empty queue always takes one
    // frame, mirroring enqueue_frame_locked).
    while (!s.parked.empty() &&
           (s.out.empty() ||
            s.out_bytes + s.parked.front().size() <=
                opts.max_output_buffer_bytes)) {
      s.out_bytes += s.parked.front().size();
      s.out.push_back(std::move(s.parked.front()));
      s.parked.pop_front();
    }
    if (s.stalled && s.parked.empty() &&
        s.out_bytes <= opts.max_output_buffer_bytes) {
      s.stalled = false;
    }
    if (s.closing && s.out.empty() && s.parked.empty()) {
      close_session_locked(s.sid, close_reason::normal);
    }
  }

  void accept_connections_locked(int listen_fd) {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or transient error: try again next wakeup
      }
      if (testing::should_fire(testing::fault_point::wire_accept_fail,
                               static_cast<std::uint64_t>(listen_fd))) {
        ::close(fd);
        continue;
      }
      if (!set_nonblocking(fd) || sessions.size() >= opts.max_sessions) {
        if (sessions.size() >= opts.max_sessions) {
          stats.on_overload_rejection();
          overloaded_msg o;
          o.queued = sessions.size();
          o.capacity = opts.max_sessions;
          o.detail = "session limit reached";
          const std::vector<std::uint8_t> frame =
              encode_frame(message{std::move(o)});
          (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
        }
        ::close(fd);
        continue;
      }
      auto s = std::make_unique<session>();
      s->sid = next_sid++;
      s->fd = fd;
      const std::uint64_t sid = s->sid;
      sessions.emplace(sid, std::move(s));
    }
  }

  void tick_locked() {
    const clock_type::time_point now = clock_type::now();
    std::vector<std::uint64_t> to_shed;
    for (auto& [sid, sp] : sessions) {
      session& s = *sp;
      if (s.has_deadline && !s.deadline_reported && now >= s.deadline &&
          s.batch != nullptr && s.batch->remaining > 0) {
        s.deadline_reported = true;
        s.batch->cancel.request_stop();
        reply_error_locked(s, core::solve_code::deadline_exceeded,
                           "session deadline expired");
        dispatch_locked();  // complete never-started pending jobs now
      }
      if (s.stalled &&
          std::chrono::duration<double>(now - s.stall_since).count() >
              opts.stall_timeout_seconds) {
        to_shed.push_back(sid);
      }
    }
    for (const std::uint64_t sid : to_shed) {
      close_session_locked(sid, close_reason::shed);
    }
    // Retry submits parked behind a draining predecessor batch.
    for (auto& [sid, sp] : sessions) {
      session& s = *sp;
      if (!s.pending_submit.has_value()) continue;
      auto it = batches.find(s.token);
      if (it != batches.end() && it->second->remaining > 0) continue;
      submit_msg m = std::move(*s.pending_submit);
      s.pending_submit.reset();
      handle_submit_locked(s, std::move(m));
    }
  }

  void io_loop() {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_sids;
    for (;;) {
      fds.clear();
      fd_sids.clear();
      {
        std::lock_guard lk(mu);
        if (stopping) break;
        fds.push_back(pollfd{wake_r, POLLIN, 0});
        fd_sids.push_back(0);
        if (!draining) {
          if (unix_fd >= 0) {
            fds.push_back(pollfd{unix_fd, POLLIN, 0});
            fd_sids.push_back(0);
          }
          if (tcp_fd >= 0) {
            fds.push_back(pollfd{tcp_fd, POLLIN, 0});
            fd_sids.push_back(0);
          }
        }
        for (auto& [sid, sp] : sessions) {
          short events = POLLIN;
          if (!sp->out.empty()) events |= POLLOUT;
          fds.push_back(pollfd{sp->fd, events, 0});
          fd_sids.push_back(sid);
        }
      }
      (void)::poll(fds.data(), fds.size(), 20);
      {
        std::lock_guard lk(mu);
        if (stopping) break;
        if ((fds[0].revents & POLLIN) != 0) {
          std::uint8_t drainbuf[256];
          while (::read(wake_r, drainbuf, sizeof drainbuf) > 0) {
          }
        }
        for (std::size_t i = 1; i < fds.size(); ++i) {
          const pollfd& p = fds[i];
          if (fd_sids[i] == 0) {
            if ((p.revents & POLLIN) != 0) accept_connections_locked(p.fd);
            continue;
          }
          auto it = sessions.find(fd_sids[i]);
          if (it == sessions.end()) continue;
          session& s = *it->second;
          if ((p.revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
            if ((p.revents & (POLLERR)) != 0) {
              close_session_locked(s.sid, close_reason::torn);
              continue;
            }
            flush_writable_locked(s);
            if (sessions.find(fd_sids[i]) == sessions.end()) continue;
          }
          if ((p.revents & POLLIN) != 0) handle_readable_locked(s);
        }
        tick_locked();
        // Opportunistic flush: results enqueued by pool workers since the
        // last poll go out without waiting for POLLOUT.
        std::vector<std::uint64_t> flushable;
        for (auto& [sid, sp] : sessions) {
          if (!sp->out.empty() || sp->closing) flushable.push_back(sid);
        }
        for (const std::uint64_t sid : flushable) {
          auto it = sessions.find(sid);
          if (it != sessions.end()) flush_writable_locked(*it->second);
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// public surface
// ---------------------------------------------------------------------------

solver_daemon::solver_daemon(serve_options opts)
    : impl_(std::make_unique<impl>(std::move(opts))) {}

solver_daemon::~solver_daemon() { stop(); }

std::string solver_daemon::start() {
  impl& d = *impl_;
  if (d.started) return "daemon already started";
  int pipefd[2];
  if (::pipe(pipefd) != 0) return "pipe() failed";
  d.wake_r = pipefd[0];
  d.wake_w = pipefd[1];
  set_nonblocking(d.wake_r);
  set_nonblocking(d.wake_w);

  if (!d.opts.unix_socket_path.empty()) {
    if (d.opts.unix_socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return "unix socket path too long";
    }
    d.unix_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (d.unix_fd < 0) return "socket(AF_UNIX) failed";
    ::unlink(d.opts.unix_socket_path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, d.opts.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(d.unix_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(d.unix_fd, 64) != 0) {
      return "cannot bind/listen on " + d.opts.unix_socket_path + ": " +
             std::strerror(errno);
    }
    set_nonblocking(d.unix_fd);
  }
  if (d.opts.tcp_port >= 0) {
    d.tcp_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (d.tcp_fd < 0) return "socket(AF_INET) failed";
    const int one = 1;
    ::setsockopt(d.tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(d.opts.tcp_port));
    if (::bind(d.tcp_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(d.tcp_fd, 64) != 0) {
      return "cannot bind/listen on tcp port " +
             std::to_string(d.opts.tcp_port) + ": " + std::strerror(errno);
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof bound;
    ::getsockname(d.tcp_fd, reinterpret_cast<sockaddr*>(&bound), &blen);
    d.tcp_port = static_cast<int>(ntohs(bound.sin_port));
    set_nonblocking(d.tcp_fd);
  }
  d.started = true;
  d.io = std::thread([this] { impl_->io_loop(); });
  return "";
}

void solver_daemon::request_drain() {
  impl& d = *impl_;
  {
    std::lock_guard lk(d.mu);
    d.draining = true;
  }
  d.wake();
  d.drain_cv.notify_all();
}

void solver_daemon::stop() {
  impl& d = *impl_;
  if (!d.started) return;
  request_drain();
  {
    std::unique_lock lk(d.mu);
    const auto drained = [&d] {
      return d.batches.empty() && d.pending.empty() && d.inflight == 0;
    };
    d.drain_cv.wait_for(
        lk, std::chrono::duration<double>(d.opts.drain_timeout_seconds),
        drained);
    if (!drained()) {
      for (auto& [token, b] : d.batches) b->cancel.request_stop();
      d.drain_cv.wait_for(lk, std::chrono::seconds(10), drained);
    }
    for (auto& [token, b] : d.batches) {
      if (b->writer != nullptr) b->writer->flush();
    }
    d.stopping = true;
  }
  d.wake();
  if (d.io.joinable()) d.io.join();
  {
    std::lock_guard lk(d.mu);
    for (auto& [sid, sp] : d.sessions) {
      if (sp->fd >= 0) ::close(sp->fd);
      sp->fd = -1;
    }
    d.sessions.clear();
    d.token_to_sid.clear();
    if (d.unix_fd >= 0) ::close(d.unix_fd);
    if (d.tcp_fd >= 0) ::close(d.tcp_fd);
    d.unix_fd = d.tcp_fd = -1;
    if (!d.opts.unix_socket_path.empty()) {
      ::unlink(d.opts.unix_socket_path.c_str());
    }
    if (d.wake_r >= 0) ::close(d.wake_r);
    if (d.wake_w >= 0) ::close(d.wake_w);
    d.wake_r = d.wake_w = -1;
    d.started = false;
  }
}

bool solver_daemon::draining() const {
  std::lock_guard lk(impl_->mu);
  return impl_->draining;
}

int solver_daemon::tcp_port() const {
  std::lock_guard lk(impl_->mu);
  return impl_->tcp_port;
}

std::string solver_daemon::stats_json() const {
  return impl_->stats.to_json();
}

stats_store& solver_daemon::stats() { return impl_->stats; }

std::size_t solver_daemon::active_sessions() const {
  std::lock_guard lk(impl_->mu);
  return impl_->sessions.size();
}

std::size_t solver_daemon::queue_depth() const {
  std::lock_guard lk(impl_->mu);
  return impl_->pending.size() + impl_->inflight;
}

}  // namespace vabi::serve
