#include "shard/shard_coordinator.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "testing/fault_injection.hpp"
#include "tree/tree_io.hpp"

namespace vabi::shard {

namespace {

using clock_type = std::chrono::steady_clock;

// 9-byte pipe messages: u8 kind | u64 arg (LE). Writes of 9 bytes are atomic
// on a pipe (PIPE_BUF), so the child's heartbeat thread and job loop can
// share one event pipe without framing locks.
constexpr std::uint8_t ev_ready = 1;
constexpr std::uint8_t ev_heartbeat = 2;
constexpr std::uint8_t ev_job_done = 3;
constexpr std::uint8_t cmd_solve = 1;
constexpr std::uint8_t cmd_shutdown = 2;
constexpr std::uint64_t k_no_job = ~std::uint64_t{0};
constexpr std::size_t k_msg_size = 9;

void encode_msg(std::uint8_t* buf, std::uint8_t kind, std::uint64_t arg) {
  buf[0] = kind;
  for (int i = 0; i < 8; ++i) {
    buf[1 + i] = static_cast<std::uint8_t>(arg >> (8 * i));
  }
}

std::uint64_t decode_arg(const std::uint8_t* buf) {
  std::uint64_t arg = 0;
  for (int i = 0; i < 8; ++i) {
    arg |= static_cast<std::uint64_t>(buf[1 + i]) << (8 * i);
  }
  return arg;
}

bool write_exact(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, p + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_msg(int fd, std::uint8_t kind, std::uint64_t arg) {
  std::uint8_t buf[k_msg_size];
  encode_msg(buf, kind, arg);
  return write_exact(fd, buf, sizeof buf);
}

bool read_exact(int fd, void* data, std::size_t size) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, p + got, size - got);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // EOF or error: the peer is gone
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

std::string shard_path_for(const std::string& dir, std::uint32_t index) {
  char name[32];
  std::snprintf(name, sizeof name, "shard-%05u.vjl", index);
  return dir + "/" + name;
}

core::solve_error options_error(std::string detail) {
  return core::solve_error{core::solve_code::invalid_options,
                           tree::invalid_node, std::move(detail)};
}

/// Solves one job serially (workers parallelize across processes, not
/// threads) and returns its durable record. Never throws.
core::journal_record solve_one(const std::vector<core::batch_job>& jobs,
                               std::uint64_t job, std::uint64_t fingerprint,
                               const std::optional<std::uint64_t>& batch_seed) {
  const auto i = static_cast<std::size_t>(job);
  return core::make_journal_record(
      i, fingerprint, core::solve_batch_job(jobs[i], i, batch_seed));
}

// -- worker child body ------------------------------------------------------

struct worker_args {
  std::size_t slot = 0;
  int cmd_rd = -1;
  int ev_wr = -1;
  const std::vector<core::batch_job>* jobs = nullptr;
  std::optional<std::uint64_t> batch_seed;
  const std::vector<std::uint64_t>* fingerprints = nullptr;
  core::journal_header header;
  core::shard_info shard;
  std::string shard_path;
  std::size_t checkpoint_every_jobs = 1;
  double heartbeat_interval_ms = 25.0;
};

[[noreturn]] void run_worker(const worker_args& a) {
  // Die with the coordinator: a SIGKILLed coordinator must not leave orphan
  // solvers grinding on.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  ::signal(SIGPIPE, SIG_IGN);

  core::journal_writer writer{a.shard_path, a.header, a.shard,
                              a.checkpoint_every_jobs};
  std::atomic<bool> stop_beats{false};
  send_msg(a.ev_wr, ev_ready, 0);

  // Heartbeats ride a side thread (created post-fork: fork-safe) so a long
  // solve never looks like a hang. heartbeat_drop silences them without
  // stopping the worker -- the supervisor-side view of a wedged process.
  std::thread beater([&] {
    const auto interval = std::chrono::duration<double, std::milli>(
        a.heartbeat_interval_ms);
    while (!stop_beats.load(std::memory_order_relaxed)) {
      if (!testing::should_fire(testing::fault_point::heartbeat_drop,
                                a.slot)) {
        if (!send_msg(a.ev_wr, ev_heartbeat, 0)) break;
      }
      std::this_thread::sleep_for(interval);
    }
  });

  for (;;) {
    std::uint8_t buf[k_msg_size];
    if (!read_exact(a.cmd_rd, buf, sizeof buf)) break;  // coordinator gone
    if (buf[0] == cmd_shutdown) break;
    if (buf[0] != cmd_solve) continue;
    const std::uint64_t job = decode_arg(buf);
    if (testing::should_fire(testing::fault_point::worker_hang, a.slot)) {
      // Wedge: stop heartbeating and never answer. The coordinator's
      // heartbeat timeout must detect and SIGKILL us.
      stop_beats.store(true, std::memory_order_relaxed);
      for (;;) ::pause();
    }
    core::journal_record rec =
        solve_one(*a.jobs, job, (*a.fingerprints)[job], a.batch_seed);
    writer.append(rec);
    send_msg(a.ev_wr, ev_job_done, job);
  }

  stop_beats.store(true, std::memory_order_relaxed);
  beater.join();
  writer.flush();
  std::_Exit(0);
}

// -- coordinator-side slot state -------------------------------------------

struct slot_state {
  enum class phase : std::uint8_t {
    unspawned,
    running,
    backoff,
    retired,
    finished,
  };
  phase ph = phase::unspawned;
  pid_t pid = -1;
  int cmd_wr = -1;
  int ev_rd = -1;
  bool ready = false;
  std::uint64_t in_flight = k_no_job;
  clock_type::time_point last_beat;
  clock_type::time_point backoff_until;
  std::string shard_path;  ///< current incarnation's shard
  worker_stats stats;
  std::vector<std::uint8_t> carry;  ///< partial event-pipe bytes
};

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// What both coordinator modes share about one sharded batch.
struct shard_batch {
  const std::vector<core::batch_job>* jobs = nullptr;
  std::optional<std::uint64_t> batch_seed;
  const coordinator_options* opts = nullptr;
  batch_fingerprints fps;
  core::journal_header header;
  std::vector<bool> done;  ///< job durable in a shard (recovered on resume)
  /// Pending jobs per slot: job i starts on slot fingerprint(i) % slots.
  std::vector<std::deque<std::uint64_t>> queues;
  /// Slot that claimed each job; repair un-claims jobs whose records never
  /// became durable.
  std::vector<int> claimed_by;
  std::uint32_t next_shard_index = 0;
  coordinator_report report;
  clock_type::time_point t0 = clock_type::now();

  core::shard_info shard(std::uint32_t index) const {
    core::shard_info si;
    si.shard_index = index;
    si.shard_count = static_cast<std::uint32_t>(opts->num_workers);
    si.parent_fingerprint = fps.combined;
    return si;
  }
};

/// Opens the batch under opts.journal_dir. With resume, every job a shard
/// on disk already holds counts as recovered and new shards are numbered
/// past the old ones. Without, the shards an earlier run left are removed
/// first, so this run's merge sees only its own.
core::solve_outcome<shard_batch> open_batch(
    const std::vector<core::batch_job>& jobs,
    const std::optional<std::uint64_t>& batch_seed,
    const coordinator_options& opts) {
  if (opts.journal_dir.empty()) {
    return options_error("shard_coordinator: journal_dir is required");
  }
  shard_batch b;
  b.jobs = &jobs;
  b.batch_seed = batch_seed;
  b.opts = &opts;
  b.fps = fingerprint_batch(jobs, batch_seed);
  b.header = core::batch_journal_header(b.fps, batch_seed);
  b.done.assign(jobs.size(), false);
  b.claimed_by.assign(jobs.size(), -1);
  b.report.jobs_total = jobs.size();
  b.report.workers.resize(opts.num_workers);
  if (opts.resume) {
    auto scan = scan_shards(opts.journal_dir, b.fps, batch_seed);
    if (!scan.ok()) return std::move(scan.error());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      b.done[i] = scan->records[i].has_value();
    }
    b.report.jobs_recovered = scan->records_read;
    b.next_shard_index = scan->next_shard_index;
  } else {
    for (const std::string& path : list_shard_files(opts.journal_dir)) {
      std::remove(path.c_str());
    }
  }
  b.queues.resize(opts.num_workers);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!b.done[i]) b.queues[b.fps.per_job[i] % opts.num_workers].push_back(i);
  }
  return b;
}

/// Slot w's next queued job: the front of its own queue, else the back of
/// the longest sibling queue (work stealing, so the victim's own dispatch
/// order is undisturbed). k_no_job when every queue is empty.
std::uint64_t pop_job(std::vector<std::deque<std::uint64_t>>& queues,
                      std::size_t w) {
  if (!queues[w].empty()) {
    const std::uint64_t j = queues[w].front();
    queues[w].pop_front();
    return j;
  }
  auto& victim = *std::max_element(
      queues.begin(), queues.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  if (victim.empty()) return k_no_job;
  const std::uint64_t j = victim.back();
  victim.pop_back();
  return j;
}

/// Coverage repair, then the merge. An event or an append proves a worker
/// wrote a record, not that it is durable (shard_write_short tears a
/// checkpoint after the fact): completion is what the shards on disk hold.
/// Jobs they miss are un-claimed from the slot that claimed them and solved
/// inline into one repair shard -- also the terminal fallback when every
/// slot retired with jobs still pending.
core::solve_outcome<coordinator_report> repair_and_merge(shard_batch& b) {
  const std::vector<core::batch_job>& jobs = *b.jobs;
  const coordinator_options& opts = *b.opts;
  coordinator_report& report = b.report;
  auto scan = scan_shards(opts.journal_dir, b.fps, b.batch_seed);
  if (!scan.ok()) return std::move(scan.error());
  report.shards_on_disk = scan->shards_read;
  std::optional<core::journal_writer> repair;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (scan->records[i].has_value()) continue;
    if (b.claimed_by[i] >= 0) {
      auto& ws = report.workers[static_cast<std::size_t>(b.claimed_by[i])];
      if (ws.jobs_completed > 0) --ws.jobs_completed;
      if (report.jobs_solved_by_workers > 0) --report.jobs_solved_by_workers;
    }
    if (!repair.has_value()) {
      repair.emplace(shard_path_for(opts.journal_dir, b.next_shard_index),
                     b.header, b.shard(b.next_shard_index),
                     opts.checkpoint_every_jobs);
      ++b.next_shard_index;
      ++report.shards_on_disk;
    }
    repair->append(solve_one(jobs, i, b.fps.per_job[i], b.batch_seed));
    ++report.jobs_solved_inline;
  }
  if (repair.has_value()) repair->flush();

  auto merged = merge_shards(jobs, b.batch_seed, opts.journal_dir);
  if (!merged.ok()) return std::move(merged.error());
  report.merged = std::move(*merged);
  report.wall_seconds =
      std::chrono::duration<double>(clock_type::now() - b.t0).count();
  return std::move(report);
}

}  // namespace

shard_coordinator::shard_coordinator(coordinator_options opts)
    : opts_(std::move(opts)) {
  if (opts_.num_workers == 0) opts_.num_workers = 1;
}

core::solve_outcome<coordinator_report> shard_coordinator::run(
    const std::vector<core::batch_job>& jobs, const observer& obs) {
  auto opened = open_batch(jobs, opts_.batch_seed, opts_);
  if (!opened.ok()) return std::move(opened.error());
  shard_batch& b = *opened;
  coordinator_report& report = b.report;
  std::vector<bool>& done = b.done;

  std::vector<slot_state> slots(opts_.num_workers);
  std::deque<std::uint64_t> overflow;  // retired slots' unfinished jobs

  // Writes into a dead worker's command pipe must come back as EPIPE, not a
  // process-killing signal.
  struct sigpipe_guard {
    sighandler_t prev = ::signal(SIGPIPE, SIG_IGN);
    ~sigpipe_guard() { ::signal(SIGPIPE, prev); }
  } sigpipe_ignored;

  // Whatever path leaves this scope, no child outlives it.
  struct child_reaper {
    std::vector<slot_state>* slots;
    ~child_reaper() {
      for (auto& s : *slots) {
        if (s.pid > 0) {
          ::kill(s.pid, SIGKILL);
          ::waitpid(s.pid, nullptr, 0);
          s.pid = -1;
        }
        close_fd(s.cmd_wr);
        close_fd(s.ev_rd);
      }
    }
  } reaper{&slots};

  const auto emit = [&](coordinator_event::kind what, std::size_t slot,
                        long pid, std::uint64_t job) {
    if (obs) obs(coordinator_event{what, slot, pid, job});
  };

  const auto backoff_delay = [&](std::uint64_t restarts) {
    const double ms = std::min(
        opts_.restart_backoff_max_ms,
        opts_.restart_backoff_base_ms *
            std::pow(2.0, static_cast<double>(restarts)));
    return std::chrono::duration_cast<clock_type::duration>(
        std::chrono::duration<double, std::milli>(ms));
  };

  // Declares slot w's worker dead: recover its shard posthumously, requeue
  // the in-flight job, and either schedule a backoff restart or retire the
  // slot. `restartable` is false for spawn failures that already consumed
  // the attempt.
  const auto handle_death = [&](std::size_t w) {
    slot_state& s = slots[w];
    close_fd(s.cmd_wr);
    close_fd(s.ev_rd);
    s.pid = -1;
    s.ready = false;
    s.carry.clear();
    // Posthumous recovery: everything the dead worker made durable counts,
    // exactly once. The shard file is immutable now (the process is gone).
    // A shard that fails the checks recovers nothing here; the merge
    // reports it.
    if (!s.shard_path.empty()) {
      auto read = read_shard(s.shard_path, b.fps, b.batch_seed);
      if (read.ok()) {
        for (const auto& rec : read->records) {
          if (!done[rec.job_index]) {
            done[rec.job_index] = true;
            b.claimed_by[rec.job_index] = static_cast<int>(w);
            ++s.stats.jobs_completed;
            ++report.jobs_solved_by_workers;
          }
        }
      }
    }
    if (s.in_flight != k_no_job) {
      if (!done[s.in_flight]) b.queues[w].push_front(s.in_flight);
      s.in_flight = k_no_job;
    }
    if (s.stats.restarts < opts_.restart_budget) {
      s.ph = slot_state::phase::backoff;
      s.backoff_until = clock_type::now() + backoff_delay(s.stats.restarts);
      ++s.stats.restarts;
      ++report.restarts_total;
    } else {
      s.ph = slot_state::phase::retired;
      ++report.workers_retired;
      overflow.insert(overflow.end(), b.queues[w].begin(), b.queues[w].end());
      b.queues[w].clear();
      emit(coordinator_event::kind::retired, w, -1, 0);
    }
  };

  const auto spawn = [&](std::size_t w, bool is_restart) -> void {
    slot_state& s = slots[w];
    if (testing::should_fire(testing::fault_point::worker_spawn_fail, w)) {
      handle_death(w);  // a failed fork consumes a restart attempt
      return;
    }
    int cmd[2] = {-1, -1};
    int ev[2] = {-1, -1};
    if (::pipe(cmd) != 0 || ::pipe(ev) != 0) {
      close_fd(cmd[0]);
      close_fd(cmd[1]);
      handle_death(w);
      return;
    }

    worker_args args;
    args.slot = w;
    args.cmd_rd = cmd[0];
    args.ev_wr = ev[1];
    args.jobs = &jobs;
    args.batch_seed = opts_.batch_seed;
    args.fingerprints = &b.fps.per_job;
    args.header = b.header;
    args.shard = b.shard(b.next_shard_index);
    args.shard_path = shard_path_for(opts_.journal_dir, b.next_shard_index);
    args.checkpoint_every_jobs = opts_.checkpoint_every_jobs;
    args.heartbeat_interval_ms = opts_.heartbeat_interval_ms;

    const pid_t pid = ::fork();
    if (pid < 0) {
      close_fd(cmd[0]);
      close_fd(cmd[1]);
      close_fd(ev[0]);
      close_fd(ev[1]);
      handle_death(w);
      return;
    }
    if (pid == 0) {
      // Child: drop every coordinator-side fd, including other slots'.
      ::close(cmd[1]);
      ::close(ev[0]);
      for (auto& other : slots) {
        if (other.cmd_wr >= 0) ::close(other.cmd_wr);
        if (other.ev_rd >= 0) ::close(other.ev_rd);
      }
      run_worker(args);  // never returns
    }
    ::close(cmd[0]);
    ::close(ev[1]);
    s.pid = pid;
    s.cmd_wr = cmd[1];
    s.ev_rd = ev[0];
    const int fl = ::fcntl(s.ev_rd, F_GETFL, 0);
    ::fcntl(s.ev_rd, F_SETFL, fl | O_NONBLOCK);
    s.ph = slot_state::phase::running;
    s.ready = false;
    s.last_beat = clock_type::now();
    s.shard_path = args.shard_path;
    ++b.next_shard_index;
    ++s.stats.shards_opened;
    emit(is_restart ? coordinator_event::kind::restarted
                    : coordinator_event::kind::spawned,
         w, pid, 0);
  };

  // Pulls the next undone job for slot w: pop_job, then the retired-slot
  // overflow.
  const auto next_job_for = [&](std::size_t w) -> std::uint64_t {
    for (std::uint64_t j = pop_job(b.queues, w); j != k_no_job;
         j = pop_job(b.queues, w)) {
      if (!done[j]) return j;
    }
    while (!overflow.empty()) {
      const std::uint64_t j = overflow.front();
      overflow.pop_front();
      if (!done[j]) return j;
    }
    return k_no_job;
  };

  const auto dispatch = [&] {
    for (std::size_t w = 0; w < slots.size(); ++w) {
      slot_state& s = slots[w];
      if (s.ph != slot_state::phase::running || !s.ready) continue;
      if (s.in_flight != k_no_job) continue;
      const std::uint64_t j = next_job_for(w);
      if (j == k_no_job) continue;
      if (!send_msg(s.cmd_wr, cmd_solve, j)) {
        // EPIPE: the worker died between events; requeue and let the
        // waitpid sweep run the death protocol.
        b.queues[w].push_front(j);
        continue;
      }
      s.in_flight = j;
    }
  };

  const auto all_done = [&] {
    return std::find(done.begin(), done.end(), false) == done.end();
  };
  if (!all_done()) {
    for (std::size_t w = 0; w < slots.size(); ++w) spawn(w, false);
  }

  // -- the supervision loop (single-threaded; forks stay safe) -------------
  const auto heartbeat_timeout = std::chrono::duration_cast<
      clock_type::duration>(std::chrono::duration<double, std::milli>(
      opts_.heartbeat_timeout_ms));

  while (!all_done()) {
    bool any_alive = false;
    for (const auto& s : slots) {
      if (s.ph == slot_state::phase::running ||
          s.ph == slot_state::phase::backoff) {
        any_alive = true;
        break;
      }
    }
    if (!any_alive) break;  // every slot retired: inline fallback below

    dispatch();
    emit(coordinator_event::kind::tick, 0, -1, 0);

    std::vector<pollfd> pfds;
    std::vector<std::size_t> pfd_slot;
    for (std::size_t w = 0; w < slots.size(); ++w) {
      if (slots[w].ph == slot_state::phase::running && slots[w].ev_rd >= 0) {
        pfds.push_back(pollfd{slots[w].ev_rd, POLLIN, 0});
        pfd_slot.push_back(w);
      }
    }
    const int rv = ::poll(pfds.data(), pfds.size(), 5);
    if (rv < 0 && errno != EINTR) break;

    // Drain events. Reads may coalesce several 9-byte messages (and split
    // one across reads); `carry` re-frames them.
    const auto now = clock_type::now();
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLHUP)) == 0) continue;
      slot_state& s = slots[pfd_slot[k]];
      std::uint8_t buf[k_msg_size * 64];
      for (;;) {
        const ssize_t n = ::read(s.ev_rd, buf, sizeof buf);
        if (n <= 0) break;  // EAGAIN / EOF; deaths surface via waitpid
        s.carry.insert(s.carry.end(), buf, buf + n);
      }
      std::size_t at = 0;
      while (s.carry.size() - at >= k_msg_size) {
        const std::uint8_t kind = s.carry[at];
        const std::uint64_t arg = decode_arg(s.carry.data() + at);
        at += k_msg_size;
        s.last_beat = now;
        if (kind == ev_ready) {
          s.ready = true;
          emit(coordinator_event::kind::ready, pfd_slot[k], s.pid, 0);
        } else if (kind == ev_heartbeat) {
          ++s.stats.heartbeats;
        } else if (kind == ev_job_done) {
          if (arg < done.size() && !done[arg]) {
            done[arg] = true;
            b.claimed_by[arg] = static_cast<int>(pfd_slot[k]);
            ++s.stats.jobs_completed;
            ++report.jobs_solved_by_workers;
          }
          if (s.in_flight == arg) s.in_flight = k_no_job;
          emit(coordinator_event::kind::job_done, pfd_slot[k], s.pid, arg);
        }
      }
      s.carry.erase(s.carry.begin(),
                    s.carry.begin() + static_cast<std::ptrdiff_t>(at));
    }

    // Reap deaths (SIGKILLed by chaos, crashed, or killed below).
    for (std::size_t w = 0; w < slots.size(); ++w) {
      slot_state& s = slots[w];
      if (s.ph != slot_state::phase::running || s.pid <= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
      if (r == s.pid) {
        emit(coordinator_event::kind::died, w, r, 0);
        handle_death(w);
      }
    }

    // Hung workers: silent past the timeout -> SIGKILL; reaped next sweep.
    for (std::size_t w = 0; w < slots.size(); ++w) {
      slot_state& s = slots[w];
      if (s.ph != slot_state::phase::running || s.pid <= 0) continue;
      if (now - s.last_beat > heartbeat_timeout) {
        ::kill(s.pid, SIGKILL);
        s.last_beat = now;  // don't re-kill every tick while it reaps
      }
    }

    // Backoff expiry -> respawn.
    for (std::size_t w = 0; w < slots.size(); ++w) {
      if (slots[w].ph == slot_state::phase::backoff &&
          now >= slots[w].backoff_until) {
        spawn(w, true);
      }
    }
  }

  // Graceful shutdown of the survivors; stragglers get SIGKILL.
  for (auto& s : slots) {
    if (s.ph == slot_state::phase::running && s.cmd_wr >= 0) {
      send_msg(s.cmd_wr, cmd_shutdown, 0);
    }
  }
  const auto drain_deadline = clock_type::now() + std::chrono::seconds(10);
  for (std::size_t w = 0; w < slots.size(); ++w) {
    slot_state& s = slots[w];
    if (s.ph != slot_state::phase::running || s.pid <= 0) continue;
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
      if (r == s.pid) break;
      if (clock_type::now() >= drain_deadline) {
        ::kill(s.pid, SIGKILL);
        ::waitpid(s.pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    s.pid = -1;
    close_fd(s.cmd_wr);
    close_fd(s.ev_rd);
    s.ph = slot_state::phase::finished;
  }

  for (std::size_t w = 0; w < slots.size(); ++w) {
    report.workers[w] = slots[w].stats;
  }
  return repair_and_merge(b);
}

// ---------------------------------------------------------------------------
// Remote-worker mode.
// ---------------------------------------------------------------------------

core::solve_outcome<coordinator_report> shard_coordinator::run_remote(
    const serve::submit_msg& submit, const std::string& endpoint) {
  // Rebuild the batch exactly as the server would admit it, so the local
  // fingerprints (and hence the shard headers and the merge) describe the
  // same solve the remote workers perform.
  auto mapped = serve::make_batch_jobs(submit);
  if (!mapped.ok()) return std::move(mapped.error());
  const std::vector<core::batch_job>& jobs = mapped->jobs;
  auto opened = open_batch(jobs, submit.batch_seed, opts_);
  if (!opened.ok()) return std::move(opened.error());
  shard_batch& b = *opened;
  coordinator_report& report = b.report;

  // The slot threads share the queues and claims under one mutex.
  std::mutex mu;
  const auto take = [&](std::size_t w) {
    std::lock_guard lk(mu);
    return pop_job(b.queues, w);
  };
  const auto give_back = [&](std::uint64_t j) {
    std::lock_guard lk(mu);
    b.queues[j % b.queues.size()].push_front(j);
  };
  const auto claim = [&](std::uint64_t j, std::size_t w) {
    std::lock_guard lk(mu);
    b.claimed_by[j] = static_cast<int>(w);
  };

  serve::client_options copts;
  if (endpoint.rfind("port:", 0) == 0) {
    copts.tcp_port = std::atoi(endpoint.c_str() + 5);
  } else {
    copts.unix_socket_path = endpoint;
  }

  std::vector<std::thread> threads;
  threads.reserve(opts_.num_workers);
  for (std::size_t w = 0; w < opts_.num_workers; ++w) {
    const std::uint32_t shard_index = b.next_shard_index++;
    threads.emplace_back([&, w, shard_index] {
      core::journal_writer writer{
          shard_path_for(opts_.journal_dir, shard_index), b.header,
          b.shard(shard_index), opts_.checkpoint_every_jobs};
      ++report.workers[w].shards_opened;
      serve::client_options wopts = copts;
      serve::serve_client client{wopts};
      // Journals job j's record under its batch-global identity: the remote
      // solve was a single-job batch with its own indices.
      const auto commit = [&](core::journal_record rec, std::uint64_t j) {
        rec.job_index = j;
        rec.fingerprint = b.fps.per_job[j];
        writer.append(rec);
        claim(j, w);
        ++report.workers[w].jobs_completed;
      };
      for (;;) {
        const std::uint64_t j = take(w);
        if (j == k_no_job) break;
        const auto i = static_cast<std::size_t>(j);
        // Prepare locally and ship the explicit tree: the per-job seed is
        // derived *here*, so the remote single-job batch needs no seed
        // coordination, and tree text round-trips bit-exactly.
        serve::submit_msg one;
        one.batch_seed = 1;  // irrelevant: the shipped job is an explicit tree
        one.options = submit.options;
        serve::wire_job wj;
        wj.has_tree = true;
        try {
          core::prepared_job setup =
              core::prepare_batch_job(jobs[i], i, b.batch_seed);
          wj.tree_text = tree::write_tree_to_string(*setup.net);
        } catch (const std::exception& e) {
          core::journal_record rec;
          rec.ok = false;
          rec.code = core::solve_code::internal;
          rec.detail = e.what();
          commit(std::move(rec), j);
          continue;
        }
        one.jobs.push_back(std::move(wj));
        std::optional<core::journal_record> got;
        const auto summary = client.run_batch(
            one, [&](const serve::result_msg& m) { got = m.record; });
        if (!summary.complete || !got.has_value()) {
          give_back(j);  // survivors (or the inline fallback) pick it up
          break;         // this slot's client budget is spent
        }
        commit(std::move(*got), j);
      }
      // Every exit flushes: records appended since the last checkpoint are
      // results this slot already counted.
      writer.flush();
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& wst : report.workers) {
    report.jobs_solved_by_workers += wst.jobs_completed;
  }
  return repair_and_merge(b);
}

}  // namespace vabi::shard
