// Figure 5: runtime of the 2P-pruned variation-aware engine vs sink count.
//
// The paper's point: with the 2P rule both merging and pruning are linear, so
// the end-to-end runtime scales roughly linearly in the number of sinks. We
// sweep generated nets and report seconds per net plus the least-squares
// exponent of runtime ~ sinks^k (k near 1, far below the 4P blow-up).
//
// A second section measures multi-net batch throughput on the parallel batch
// solver: run it once with `--threads 1` and once with `--threads 8` to see
// the wall-clock scaling on a realistic many-nets workload (the jobs are
// generated from fixed per-job seeds, so every thread count solves the
// identical batch).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "harness.hpp"
#include "json_out.hpp"
#include "shard/shard_coordinator.hpp"

int main(int argc, char** argv) {
  using namespace vabi;
  bench::experiment_config cfg;
  const std::size_t threads = bench::parse_threads(argc, argv);

  std::vector<std::size_t> sizes{100, 200, 400, 800, 1600, 3200};
  if (bench::full_mode()) {
    sizes.push_back(6400);
    sizes.push_back(12800);
    sizes.push_back(25600);
  }

  std::cout << "=== Figure 5: 2P runtime vs number of sinks (WID model) ===\n";
  analysis::text_table t{{"Sinks", "Positions", "Runtime (s)", "Candidates",
                          "Peak list", "Allocs", "Peak terms"}};
  std::vector<std::pair<double, double>> loglog;
  for (const std::size_t sinks : sizes) {
    tree::benchmark_spec spec;
    spec.name = "gen" + std::to_string(sinks);
    spec.sinks = sinks;
    spec.die_side_um = 4000.0 * std::sqrt(static_cast<double>(sinks) / 250.0);
    spec.seed = 900 + sinks;
    const auto net = tree::build_benchmark(spec);
    const auto r = bench::optimize(net, spec, cfg, layout::wid_mode(),
                                   layout::spatial_profile::heterogeneous);
    // `Allocs` is the whole-net term-storage heap-allocation count. The
    // scratch pools warm up and stop allocating, so what remains (sealed
    // node blocks + escaping survivor forms) grows roughly with the node
    // count -- a small constant per candidate, where the value-semantics
    // engine paid several per *operation*.
    t.add_row({std::to_string(sinks), std::to_string(net.num_buffer_positions()),
               analysis::fmt(r.stats.wall_seconds, 3),
               std::to_string(r.stats.candidates_created),
               std::to_string(r.stats.peak_list_size),
               std::to_string(r.stats.allocations),
               std::to_string(r.stats.peak_terms)});
    loglog.emplace_back(std::log(static_cast<double>(sinks)),
                        std::log(std::max(r.stats.wall_seconds, 1e-6)));
  }
  t.print(std::cout);

  // Least-squares slope of log(time) vs log(sinks).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [x, y] : loglog) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(loglog.size());
  const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  std::cout << "runtime ~ sinks^" << analysis::fmt(slope, 2)
            << "  (paper: roughly linear scaling, Fig. 5)\n";

  // -- Batch throughput on the parallel solver ------------------------------
  const std::size_t num_jobs = bench::full_mode() ? 128 : 48;
  const std::size_t job_sinks = bench::full_mode() ? 800 : 400;
  std::vector<core::batch_job> jobs(num_jobs);
  for (auto& j : jobs) {
    tree::random_tree_options g;
    g.num_sinks = job_sinks;
    g.criticality_balance = 0.5;
    j.generate = g;  // seed comes from the solver's batch_seed stream
    j.options = bench::make_stat_options(cfg, core::pruning_kind::two_param);
    j.model = bench::make_model_config(cfg, layout::wid_mode(),
                                       layout::spatial_profile::heterogeneous);
  }

  // -- Sharded multi-process batch: supervision cost + merge identity -------
  // The coordinator forks its worker processes, so this runs while the
  // process is still single-threaded -- before the batch_solver below brings
  // up its pool. A prefix of the same batch (same batch_seed, hence identical
  // per-job seeds) is solved across worker processes, each journaling its own
  // shard; slot by slot, the merged slots must equal the same prefix of the
  // in-process solve below (core::outcomes_identical).
  const std::size_t shard_nets =
      std::min<std::size_t>(num_jobs, bench::full_mode() ? 32 : 16);
  const std::size_t shard_workers =
      std::max<std::size_t>(2, std::min<std::size_t>(threads, 8));
  std::vector<core::batch_job> shard_jobs(jobs.begin(),
                                          jobs.begin() + shard_nets);
  shard::coordinator_report shard_report;
  bool shard_ok = false;
  double shard_seconds = 0.0;
  std::string shard_error;
  {
    char shard_dir[] = "/tmp/bench_fig5_shards_XXXXXX";
    if (::mkdtemp(shard_dir) != nullptr) {
      shard::coordinator_options sopts;
      sopts.num_workers = shard_workers;
      sopts.journal_dir = shard_dir;
      sopts.batch_seed = 7;  // the batch_solver's seed below
      shard::shard_coordinator coord(sopts);
      const auto ts0 = std::chrono::steady_clock::now();
      auto sharded = coord.run(shard_jobs);
      shard_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - ts0)
              .count();
      if (sharded.ok()) {
        shard_ok = true;
        shard_report = std::move(*sharded);
      } else {
        shard_error = sharded.error().message();
      }
      std::filesystem::remove_all(shard_dir);
    } else {
      shard_error = "mkdtemp failed";
    }
  }

  core::batch_solver::config solver_cfg;
  solver_cfg.num_threads = threads;
  solver_cfg.batch_seed = 7;
  core::batch_solver solver{solver_cfg};

  const auto t0 = std::chrono::steady_clock::now();
  const auto outcomes = solver.solve_outcomes(jobs);
  const double batch_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Per-net status artifact: one record per job, uploaded by the CI bench
  // smoke so a regression that starts tripping caps on some nets is visible
  // as typed per-net codes, not a lost batch.
  bench::json_records status;
  std::size_t total_buffers = 0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& slot = outcomes[i];
    status.begin()
        .num("job", static_cast<std::uint64_t>(i))
        .str("status", core::to_string(slot.ok() ? core::solve_code::ok
                                                 : slot.error().code));
    if (slot.ok()) {
      total_buffers += slot->result.num_buffers;
      status.str("path", core::to_string(slot->result.path))
          .num("num_buffers",
               static_cast<std::uint64_t>(slot->result.num_buffers))
          .num("seconds", slot->result.stats.wall_seconds)
          .counters(slot->result.stats);
    } else {
      ++failed;
      status.str("detail", slot.error().detail);
    }
  }
  std::cout << "\n=== Batch throughput: " << num_jobs << " nets x "
            << job_sinks << " sinks, 2P (WID model) ===\n"
            << "threads " << threads << ": " << analysis::fmt(batch_seconds, 2)
            << " s total, "
            << analysis::fmt(static_cast<double>(num_jobs) / batch_seconds, 1)
            << " nets/s (" << total_buffers << " buffers inserted, " << failed
            << " failed)\n"
            << "(rerun with --threads N to compare wall-clock scaling)\n";
  const std::string json_path = bench::parse_json_path(argc, argv);

  // Sharded vs in-process: the shards merged above must be bit-identical to
  // the same prefix of the in-process batch (identical seed stream).
  std::cout << "\n=== Sharded batch: " << shard_nets << " nets across "
            << shard_workers << " worker processes ===\n";
  if (shard_ok) {
    const auto& merged = shard_report.merged.slots;
    const bool bit_identical =
        std::equal(merged.begin(), merged.end(), outcomes.begin(),
                   outcomes.begin() + shard_nets, core::outcomes_identical);
    std::cout << "sharded: " << analysis::fmt(shard_seconds, 2) << " s, "
              << analysis::fmt(
                     static_cast<double>(shard_nets) /
                         std::max(shard_seconds, 1e-9),
                     1)
              << " nets/s, merged from " << shard_report.merged.shards_read
              << " shards"
              << (bit_identical ? " (bit-identical to in-process)"
                                : " (MISMATCH vs in-process)")
              << "\n";
    status.begin()
        .str("section", "shard")
        .num("nets", static_cast<std::uint64_t>(shard_nets))
        .num("workers", static_cast<std::uint64_t>(shard_workers))
        .num("seconds", shard_seconds)
        .num("shards_read",
             static_cast<std::uint64_t>(shard_report.merged.shards_read))
        .num("restarts_total",
             static_cast<std::uint64_t>(shard_report.restarts_total))
        .num("workers_retired",
             static_cast<std::uint64_t>(shard_report.workers_retired))
        .boolean("bit_identical", bit_identical);
    for (std::size_t w = 0; w < shard_report.workers.size(); ++w) {
      const shard::worker_stats& ws = shard_report.workers[w];
      const double rate =
          shard_seconds > 0.0
              ? static_cast<double>(ws.jobs_completed) / shard_seconds
              : 0.0;
      std::cout << "  worker " << w << ": jobs=" << ws.jobs_completed << " ("
                << analysis::fmt(rate, 1) << "/s) restarts=" << ws.restarts
                << " shards=" << ws.shards_opened << "\n";
      status.begin()
          .str("section", "shard_worker")
          .num("worker", static_cast<std::uint64_t>(w))
          .num("jobs_completed", ws.jobs_completed)
          .num("jobs_per_second", rate)
          .num("restarts", ws.restarts)
          .num("shards_opened", ws.shards_opened);
    }
  } else {
    std::cout << "sharded section failed: " << shard_error << "\n";
    status.begin().str("section", "shard").str("status", shard_error);
  }

  // -- Journaled mode: durability overhead and recovery cost ----------------
  // Same batch, now journaled with per-8-jobs checkpoints (solve + fsync +
  // atomic rename), then resumed from the complete journal. The delta over
  // the plain run is what crash recoverability costs; the resume time is
  // what a post-crash restart pays to get every result back without
  // re-solving anything.
  const std::string journal_path =
      (json_path.empty() ? std::string{"bench_fig5"} : json_path) + ".vjl";
  std::remove(journal_path.c_str());
  core::batch_journal_options jopts;
  jopts.path = journal_path;
  jopts.checkpoint_every_jobs = 8;
  const auto tj0 = std::chrono::steady_clock::now();
  auto journaled = solver.solve_journaled(jobs, jopts);
  const double journaled_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - tj0)
          .count();
  double restore_seconds = 0.0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::size_t restored = 0;
  if (journaled.ok()) {
    journal_bytes = journaled->journal_bytes;
    checkpoints = journaled->checkpoints;
    jopts.resume = true;
    const auto tr0 = std::chrono::steady_clock::now();
    auto resumed = solver.solve_journaled(jobs, jopts);
    restore_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - tr0)
            .count();
    if (resumed.ok()) restored = resumed->restored;
  }
  std::remove(journal_path.c_str());
  const double overhead_pct =
      batch_seconds > 0.0
          ? 100.0 * (journaled_seconds - batch_seconds) / batch_seconds
          : 0.0;
  std::cout << "\n=== Journaled batch: durability overhead ===\n"
            << "journaled: " << analysis::fmt(journaled_seconds, 2) << " s ("
            << analysis::fmt(overhead_pct, 1) << "% over plain, "
            << journal_bytes << " bytes, " << checkpoints << " checkpoints)\n"
            << "resume from complete journal: "
            << analysis::fmt(restore_seconds, 2) << " s to restore "
            << restored << "/" << num_jobs << " nets (no re-solving)\n";

  status.begin()
      .str("status", "journal_summary")
      .num("plain_seconds", batch_seconds)
      .num("journaled_seconds", journaled_seconds)
      .num("journal_overhead_pct", overhead_pct)
      .num("journal_bytes", journal_bytes)
      .num("checkpoints", static_cast<std::uint64_t>(checkpoints))
      .num("resume_restore_seconds", restore_seconds)
      .num("resume_restored", static_cast<std::uint64_t>(restored));
  if (status.write(json_path, "fig5_batch_status")) {
    std::cout << "(per-net status artifact: " << json_path << ")\n";
  }
  return 0;
}
