// End-to-end robustness tests of the vabi_serve daemon: concurrent sessions
// whose streamed results are bit-identical to the direct solver, crash-safe
// reconnect/resume with zero completed jobs re-solved, typed admission-control
// rejection under overload, session deadlines, backpressure shedding of a
// stuck reader that leaves other sessions untouched, graceful drain, and the
// aggregated stats schema. Everything runs over a real unix-domain socket
// against a real daemon -- the same code paths examples/vabi_serve.cpp and
// examples/vabi_client.cpp exercise in CI's loopback smoke job.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "core/statistical_dp.hpp"
#include "serve/client.hpp"
#include "serve/wire.hpp"
#include "testing/fault_injection.hpp"
#include "tree/generators.hpp"

namespace vabi::serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/vabi-serve-test-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    daemon_.reset();
    testing::disarm();
    std::filesystem::remove_all(dir_);
  }

  serve_options base_options() {
    serve_options o;
    o.unix_socket_path = dir_ + "/serve.sock";
    o.journal_dir = dir_;
    return o;
  }

  void start_daemon(serve_options o) {
    daemon_ = std::make_unique<solver_daemon>(std::move(o));
    ASSERT_EQ(daemon_->start(), "");
  }

  client_options client_opts(const std::string& token = "") {
    client_options c;
    c.unix_socket_path = dir_ + "/serve.sock";
    c.token = token;
    c.retry.base_delay_ms = 20.0;
    c.retry.max_delay_ms = 200.0;
    return c;
  }

  static submit_msg make_submit(std::size_t jobs, std::size_t sinks,
                                std::uint64_t seed) {
    submit_msg m;
    m.batch_seed = seed;
    for (std::size_t i = 0; i < jobs; ++i) {
      wire_job j;
      j.num_sinks = sinks;
      m.jobs.push_back(j);
    }
    return m;
  }

  /// The direct-solver reference for one generated wire job: the exact
  /// mapping + prepare + solve pipeline the daemon runs, executed locally.
  static core::solve_outcome<core::stat_result> solve_direct(
      const submit_msg& m, std::size_t index, std::uint64_t* num_sources) {
    auto batch = make_batch_jobs(m);
    EXPECT_TRUE(batch.ok()) << batch.error().message();
    const core::batch_job& job = batch->jobs[index];
    core::prepared_job setup =
        core::prepare_batch_job(job, index, m.batch_seed);
    auto solved = core::solve_statistical_insertion(*setup.net, *setup.model,
                                                    job.options, nullptr);
    if (num_sources != nullptr) *num_sources = setup.model->space().size();
    return solved;
  }

  std::string dir_;
  std::unique_ptr<solver_daemon> daemon_;
};

bool poll_until(const std::function<bool()>& done, double timeout_s = 20.0) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < timeout_s) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return done();
}

// --- bit-identity across concurrent sessions -------------------------------

TEST_F(ServeTest, ConcurrentSessionsBitIdenticalToDirectSolver) {
  start_daemon(base_options());
  constexpr std::size_t k_sessions = 8;

  struct session_run {
    submit_msg submit;
    std::map<std::uint64_t, result_msg> results;
    batch_summary summary;
  };
  std::vector<session_run> runs(k_sessions);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < k_sessions; ++i) {
    runs[i].submit = make_submit(/*jobs=*/2 + i % 3, /*sinks=*/8 + 2 * i,
                                 /*seed=*/100 + i);
    threads.emplace_back([this, &run = runs[i], i] {
      serve_client client(client_opts("sess" + std::to_string(i)));
      ASSERT_TRUE(client.connect()) << client.last_error();
      run.summary = client.run_batch(run.submit, [&](const result_msg& r) {
        run.results[r.record.job_index] = r;
      });
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < k_sessions; ++i) {
    const session_run& run = runs[i];
    ASSERT_TRUE(run.summary.complete) << "session " << i << ": "
                                      << run.summary.error;
    EXPECT_EQ(run.summary.solved, run.submit.jobs.size());
    EXPECT_EQ(run.summary.failed, 0u);
    ASSERT_EQ(run.results.size(), run.submit.jobs.size());
    for (std::size_t j = 0; j < run.submit.jobs.size(); ++j) {
      ASSERT_TRUE(run.results.count(j)) << "session " << i << " job " << j;
      const core::journal_record& rec = run.results.at(j).record;
      ASSERT_TRUE(rec.ok) << rec.detail;
      std::uint64_t num_sources = 0;
      auto direct = solve_direct(run.submit, j, &num_sources);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(rec.num_sources, num_sources);
      EXPECT_TRUE(core::results_identical(rec.result, *direct))
          << "session " << i << " job " << j
          << " diverged from the direct solver";
    }
  }
  EXPECT_EQ(daemon_->active_sessions(), 0u);
}

// --- crash-safe reconnect / resume -----------------------------------------

TEST_F(ServeTest, DroppedSessionReconnectsWithZeroCompletedJobsReSolved) {
  start_daemon(base_options());
  constexpr std::size_t k_jobs = 6;
  const submit_msg submit = make_submit(k_jobs, /*sinks=*/12, /*seed=*/7);

  // The daemon force-closes the connection right after delivering one job's
  // result (the result frame itself is lost with the connection -- worst
  // case). The client must reconnect with backoff, resubmit the identical
  // batch, get journaled results restored, and see every job exactly once.
  // Which job's delivery tears the session comes from the VABI_FAULT_SPEC
  // seed clause, so nightly's seed matrix moves the kill point around.
  const std::uint64_t drop_job = testing::env_seed() % k_jobs;
  testing::arm("wire_drop_session:job=" + std::to_string(drop_job));
  std::map<std::uint64_t, result_msg> results;
  batch_summary summary;
  std::thread client_thread([&] {
    client_options copts = client_opts("droptest");
    copts.retry.base_delay_ms = 150.0;  // widen the disarm window
    serve_client client(copts);
    ASSERT_TRUE(client.connect()) << client.last_error();
    summary = client.run_batch(submit, [&](const result_msg& r) {
      results[r.record.job_index] = r;
    });
  });
  ASSERT_TRUE(poll_until([] {
    return testing::fired_count(testing::fault_point::wire_drop_session) >= 1;
  }));
  testing::disarm();  // the client is in backoff; let the reconnect succeed
  client_thread.join();

  ASSERT_TRUE(summary.complete) << summary.error;
  EXPECT_GE(summary.reconnects, 1u);
  EXPECT_GE(summary.restored, 1u);  // at least job 2 came back from the journal
  EXPECT_EQ(summary.solved + summary.restored, k_jobs);
  ASSERT_EQ(results.size(), k_jobs);
  // Zero completed jobs re-solved: jobs_completed counts ok *solves* (not
  // restores), so a re-solved job would push it past the batch size.
  EXPECT_EQ(daemon_->stats().jobs_completed(), k_jobs);
  EXPECT_EQ(daemon_->stats().resumes(), 1u);

  // The restored results are bit-identical to the direct solver, same as
  // streamed ones -- they are the journal's bytes.
  for (std::size_t j = 0; j < k_jobs; ++j) {
    ASSERT_TRUE(results.count(j));
    ASSERT_TRUE(results.at(j).record.ok) << results.at(j).record.detail;
    auto direct = solve_direct(submit, j, nullptr);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(core::results_identical(results.at(j).record.result, *direct))
        << "job " << j;
  }
}

TEST_F(ServeTest, ResumeUnderAnotherBatchSeedIsTypedMismatchAndSolvesNothing) {
  start_daemon(base_options());
  {
    serve_client first(client_opts("reseeded"));
    ASSERT_TRUE(first.connect()) << first.last_error();
    const batch_summary done =
        first.run_batch(make_submit(3, /*sinks=*/10, /*seed=*/7));
    ASSERT_TRUE(done.complete) << done.error;
  }
  const std::uint64_t solved = daemon_->stats().jobs_completed();
  ASSERT_EQ(solved, 3u);

  // Same token and jobs, resumed under seed 8: the session journal was
  // written under seed 7, so none of its records may stand in for a solve.
  // A raw socket, because the typed code of the reply is what is checked.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = dir_ + "/serve.sock";
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  hello_msg hello;
  hello.token = "reseeded";
  hello.resume = true;
  auto frame = encode_frame(message{hello});
  ASSERT_TRUE(wire_write_all(fd, frame.data(), frame.size()));
  frame = encode_frame(message{make_submit(3, /*sinks=*/10, /*seed=*/8)});
  ASSERT_TRUE(wire_write_all(fd, frame.data(), frame.size()));

  frame_splitter in;
  std::optional<session_error_msg> reply;
  bool admitted = false;
  while (!reply.has_value()) {
    pollfd p{fd, POLLIN, 0};
    ASSERT_GT(::poll(&p, 1, 20000), 0) << "no reply to the resumed submit";
    std::uint8_t buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    ASSERT_GT(n, 0) << "daemon closed the session without a reply";
    in.feed(buf, static_cast<std::size_t>(n));
    message m;
    std::string err;
    while (in.next(m, err) == decode_status::ok) {
      if (auto* e = std::get_if<session_error_msg>(&m)) reply = *e;
      if (std::get_if<accepted_msg>(&m) != nullptr) admitted = true;
    }
  }
  ::close(fd);
  EXPECT_EQ(reply->code,
            static_cast<std::uint8_t>(core::solve_code::journal_mismatch))
      << reply->detail;
  EXPECT_FALSE(admitted);
  EXPECT_EQ(daemon_->stats().jobs_completed(), solved);
  EXPECT_EQ(daemon_->queue_depth(), 0u);
}

// --- admission control ------------------------------------------------------

TEST_F(ServeTest, OverloadIsTypedAndAdmittedSessionsComplete) {
  serve_options o = base_options();
  o.num_threads = 1;
  o.max_queued_jobs = 4;
  start_daemon(o);

  batch_summary a_summary;
  std::thread a_thread([&] {
    serve_client a(client_opts("bulk"));
    ASSERT_TRUE(a.connect()) << a.last_error();
    a_summary = a.run_batch(make_submit(4, /*sinks=*/200, /*seed=*/3));
  });
  // Wait until A's jobs occupy the queue, then B's 2 jobs must be rejected
  // whole (nothing partially admitted).
  ASSERT_TRUE(poll_until([this] { return daemon_->queue_depth() >= 3; }));
  client_options b_opts = client_opts("latecomer");
  b_opts.retry.max_overload_retries = 0;  // report the rejection, don't wait
  serve_client b(b_opts);
  ASSERT_TRUE(b.connect()) << b.last_error();
  const batch_summary b_summary =
      b.run_batch(make_submit(2, /*sinks=*/8, /*seed=*/4));
  EXPECT_TRUE(b_summary.overloaded);
  EXPECT_FALSE(b_summary.complete);
  EXPECT_EQ(b_summary.overload_retries, 0u);
  EXPECT_NE(b_summary.error.find("queue full"), std::string::npos)
      << b_summary.error;
  EXPECT_GE(daemon_->stats().overload_rejections(), 1u);

  a_thread.join();
  ASSERT_TRUE(a_summary.complete) << a_summary.error;
  EXPECT_EQ(a_summary.solved, 4u);
}

TEST_F(ServeTest, OverloadRetriesWithBackoffUntilAdmitted) {
  serve_options o = base_options();
  o.num_threads = 1;
  o.max_queued_jobs = 4;
  start_daemon(o);

  batch_summary a_summary;
  std::thread a_thread([&] {
    serve_client a(client_opts("bulk"));
    ASSERT_TRUE(a.connect()) << a.last_error();
    a_summary = a.run_batch(make_submit(4, /*sinks=*/120, /*seed=*/3));
  });
  ASSERT_TRUE(poll_until([this] { return daemon_->queue_depth() >= 3; }));

  // B is rejected while A occupies the queue, but its overload budget keeps
  // resubmitting on the same connection with backoff; once A drains, B is
  // admitted and completes. Overload retries are counted separately from
  // reconnects: the server was healthy the whole time.
  client_options b_opts = client_opts("patient");
  b_opts.retry.max_overload_retries = 200;
  b_opts.retry.base_delay_ms = 5.0;
  b_opts.retry.max_delay_ms = 25.0;
  serve_client b(b_opts);
  ASSERT_TRUE(b.connect()) << b.last_error();
  const batch_summary b_summary =
      b.run_batch(make_submit(2, /*sinks=*/8, /*seed=*/4));
  a_thread.join();

  ASSERT_TRUE(b_summary.complete) << b_summary.error;
  EXPECT_FALSE(b_summary.overloaded);
  EXPECT_GE(b_summary.overload_retries, 1u);
  EXPECT_EQ(b_summary.reconnects, 0u);
  EXPECT_EQ(b_summary.solved, 2u);
}

// --- session deadlines ------------------------------------------------------

TEST_F(ServeTest, SessionDeadlineCancelsViaTokenNotOptions) {
  serve_options o = base_options();
  o.num_threads = 1;
  start_daemon(o);

  serve_client client(client_opts("hurried"));
  ASSERT_TRUE(client.connect()) << client.last_error();
  submit_msg submit = make_submit(6, /*sinks=*/400, /*seed=*/9);
  submit.session_deadline_ms = 10;
  const batch_summary summary = client.run_batch(submit);
  EXPECT_FALSE(summary.complete);
  EXPECT_NE(summary.error.find("deadline"), std::string::npos)
      << summary.error;
  // The daemon winds the batch down as cancelled; nothing leaks.
  EXPECT_TRUE(poll_until([this] { return daemon_->queue_depth() == 0; }));
}

// --- backpressure shed ------------------------------------------------------

TEST_F(ServeTest, StuckReaderIsShedWithoutDisturbingOthers) {
  serve_options o = base_options();
  o.journal_dir = "";  // volume test; no journals
  o.max_output_buffer_bytes = 512;
  o.stall_timeout_seconds = 0.2;
  start_daemon(o);

  // A raw socket that submits a result-heavy batch and never reads: the
  // kernel socket buffer fills, then the 512-byte output cap, then the
  // stall clock runs out and the daemon sheds the session.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = dir_ + "/serve.sock";
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  hello_msg hello;
  hello.token = "stuck";
  auto frame = encode_frame(message{hello});
  ASSERT_TRUE(wire_write_all(fd, frame.data(), frame.size()));
  frame = encode_frame(message{make_submit(96, /*sinks=*/48, /*seed=*/5)});
  ASSERT_TRUE(wire_write_all(fd, frame.data(), frame.size()));

  // Meanwhile a well-behaved session on the same daemon runs to completion.
  serve_client polite(client_opts("polite"));
  ASSERT_TRUE(polite.connect()) << polite.last_error();
  const batch_summary summary =
      polite.run_batch(make_submit(3, /*sinks=*/10, /*seed=*/6));
  ASSERT_TRUE(summary.complete) << summary.error;
  EXPECT_EQ(summary.solved, 3u);

  EXPECT_TRUE(poll_until([this] { return daemon_->stats().sheds() >= 1; },
                         60.0))
      << "stuck session was never shed";
  ::close(fd);
  // Shedding cancelled the stuck batch: the queue drains.
  EXPECT_TRUE(poll_until([this] { return daemon_->queue_depth() == 0; },
                         60.0));
}

// --- graceful drain ---------------------------------------------------------

TEST_F(ServeTest, DrainRefusesNewWorkAndFinishesInFlight) {
  serve_options o = base_options();
  o.num_threads = 2;
  start_daemon(o);

  // The last job is large, so A's batch is still running long after it is
  // admitted: the drain below starts with that job in flight.
  submit_msg a_submit = make_submit(6, /*sinks=*/100, /*seed=*/11);
  a_submit.jobs.back().num_sinks = 10000;
  batch_summary a_summary;
  // A jthread joins on every exit, so a failed assertion below reports
  // instead of destroying a joinable thread (std::terminate).
  std::jthread a_thread([&] {
    serve_client a(client_opts("finisher"));
    ASSERT_TRUE(a.connect()) << a.last_error();
    a_summary = a.run_batch(a_submit);
  });
  // B connects before the drain begins (the listener stops accepting after).
  serve_client b(client_opts("toolate"));
  ASSERT_TRUE(b.connect()) << b.last_error();
  // A's batch is admitted. The queue empties again once its jobs finish,
  // but a completed job stays counted, so the wait cannot miss the window.
  ASSERT_TRUE(poll_until([this] {
    return daemon_->queue_depth() > 0 || daemon_->stats().jobs_completed() > 0;
  }));
  daemon_->request_drain();
  // A run whose batch had already finished would drain nothing in flight.
  EXPECT_LT(daemon_->stats().jobs_completed(), 6u)
      << "A's batch finished before the drain began";
  EXPECT_TRUE(daemon_->draining());

  const batch_summary b_summary =
      b.run_batch(make_submit(1, /*sinks=*/8, /*seed=*/12));
  EXPECT_TRUE(b_summary.draining);
  EXPECT_FALSE(b_summary.complete);

  a_thread.join();
  ASSERT_TRUE(a_summary.complete) << a_summary.error;
  EXPECT_EQ(a_summary.solved, 6u);
  daemon_->stop();
}

// --- stats ------------------------------------------------------------------

TEST_F(ServeTest, StatsJsonCarriesSchemaAndSessionCounters) {
  start_daemon(base_options());
  serve_client client(client_opts("counted"));
  ASSERT_TRUE(client.connect()) << client.last_error();
  const batch_summary summary =
      client.run_batch(make_submit(3, /*sinks=*/10, /*seed=*/21));
  ASSERT_TRUE(summary.complete) << summary.error;

  // Both surfaces -- in-band stats_request and the local accessor -- render
  // the same schema.
  const std::string in_band = client.fetch_stats();
  const std::string local = daemon_->stats_json();
  for (const std::string& json : {in_band, local}) {
    EXPECT_NE(json.find("\"schema\": \"vabi_serve_stats v3\""),
              std::string::npos);
    EXPECT_NE(json.find("\"counted\""), std::string::npos);
    EXPECT_NE(json.find("\"jobs_completed\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"solve_latency_ms\""), std::string::npos);
    // v3 dropped the session cache counters: daemon jobs never consult a
    // slab cache, so they read 0 on every job.
    EXPECT_EQ(json.find("\"cache_hits\""), std::string::npos);
    EXPECT_EQ(json.find("\"nodes_reused\""), std::string::npos);
    // v2 added per-session and global timing-yield histograms (a backward
    // compatible field addition: v1 consumers ignore unknown keys).
    EXPECT_NE(json.find("\"yield\": {\"count\": 3"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"buckets\": ["), std::string::npos);
  }
}

// --- transient accept failure ----------------------------------------------

TEST_F(ServeTest, ClientBudgetRidesOutTransientAcceptFailure) {
  start_daemon(base_options());
  testing::arm("wire_accept_fail");
  std::atomic<bool> connected{false};
  std::thread client_thread([&] {
    client_options copts = client_opts("persistent");
    copts.retry.max_attempts = 10;
    copts.retry.base_delay_ms = 100.0;
    serve_client client(copts);
    connected = client.connect();
    EXPECT_TRUE(connected.load()) << client.last_error();
  });
  ASSERT_TRUE(poll_until([] {
    return testing::fired_count(testing::fault_point::wire_accept_fail) >= 1;
  }));
  testing::disarm();
  client_thread.join();
  EXPECT_TRUE(connected.load());
}

}  // namespace
}  // namespace vabi::serve
