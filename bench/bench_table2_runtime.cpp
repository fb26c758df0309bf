// Table 2: runtime comparison between the 4P baseline [7] and the 2P rule.
//
// Reproduces the paper's experiment: both engines run RAT optimization under
// the full WID variation model; 4P's partial order forces O(n*m) merging and
// O(N^2) pruning, so it only finishes the smallest net (p1 in the paper) and
// blows past resource caps on everything larger. The caps here play the role
// of the paper's 2 GB / 4 hour limits, scaled down so the bench terminates
// quickly; set VABI_FULL=1 for the paper-scale run (all benchmarks, larger
// 4P budget).
//
// All (net, rule) jobs are independent, so they run through the batch solver
// (`--threads N`); results are deterministic and printed in table order
// regardless of the thread count.
//
// `--smoke` (or VABI_SMOKE=1) restricts the run to the small generated nets
// with tight caps -- the CI bench-smoke job uses it to produce the
// BENCH_table2.json artifact (`--json <path>`) in seconds.
#include <iostream>
#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "harness.hpp"
#include "json_out.hpp"
#include "tree/generators.hpp"

namespace {

bool smoke_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") return true;
  }
  const char* v = std::getenv("VABI_SMOKE");
  return v != nullptr && std::string(v) != "0";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vabi;
  bench::experiment_config cfg;
  const auto profile = layout::spatial_profile::heterogeneous;
  const std::size_t threads = bench::parse_threads(argc, argv);
  const bool smoke = smoke_mode(argc, argv);

  std::cout << "=== Table 2: Runtime comparison (seconds, " << threads
            << (threads == 1 ? " thread" : " threads") << ") ===\n";
  analysis::text_table t{{"Bench", "4P (s)", "2P (s)", "Speedup",
                          "4P peak list", "2P peak list", "2P allocs",
                          "2P peak terms"}};

  // Small generated nets locate the 4P feasibility boundary (the paper's 4P
  // reimplementation completed its smallest net and died on the rest; our 4P
  // crossover sits lower, see EXPERIMENTS.md).
  std::vector<tree::benchmark_spec> specs;
  for (const std::size_t sinks : {16u, 32u, 64u}) {
    tree::benchmark_spec s;
    s.name = "s";
    s.name += std::to_string(sinks);
    s.sinks = sinks;
    s.die_side_um = 3000.0;
    s.seed = 500 + sinks;
    specs.push_back(s);
  }
  if (!smoke) {
    for (const auto& spec : bench::suite()) specs.push_back(spec);
  }

  std::vector<tree::routing_tree> nets;
  nets.reserve(specs.size());
  for (const auto& spec : specs) nets.push_back(tree::build_benchmark(spec));

  // 4P: capped; on everything beyond the smallest nets it aborts, which is
  // the paper's "-" entries (memory / time limit exceeded). 2P needs no caps;
  // it is the linear-complexity contribution.
  core::stat_options caps;
  caps.max_candidates = bench::full_mode() ? 50'000'000 : 3'000'000;
  caps.max_list_size = 200'000;
  caps.max_wall_seconds = bench::full_mode() ? 600.0 : (smoke ? 5.0 : 30.0);

  // Jobs 3i / 3i+1 / 3i+2 are net i under 4P / 2P / 2P at 90% confidence
  // with a three-width wire-sizing menu. The p90+sizing run exercises the
  // confidence-rule regime where the tiled dominance engine engages (the
  // mean rule is a total order and never tiles, and without sizing the 2P
  // lists on these nets stay below the k >= 32 tiling threshold); its JSON
  // record carries the tiled-prune counters and its wall time is the
  // end-to-end figure the perf gate tracks for that path.
  std::vector<core::batch_job> jobs;
  jobs.reserve(3 * specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    core::batch_job j;
    j.tree = &nets[i];
    j.model = bench::make_model_config(cfg, layout::wid_mode(), profile);
    j.die = layout::square_die(specs[i].die_side_um);
    j.options =
        bench::make_stat_options(cfg, core::pruning_kind::four_param, &caps);
    jobs.push_back(j);
    j.options = bench::make_stat_options(cfg, core::pruning_kind::two_param);
    jobs.push_back(j);
    j.options = bench::make_stat_options(cfg, core::pruning_kind::two_param);
    j.options.two_param.p_load = 0.9;
    j.options.two_param.p_rat = 0.9;
    j.options.wire_width_multipliers = {0.7, 1.0, 1.4};
    jobs.push_back(j);
  }

  core::batch_solver::config solver_cfg;
  solver_cfg.num_threads = threads;
  core::batch_solver solver{solver_cfg};
  // A capped 4P job that aborts keeps only its typed error: its record is the
  // aborted stats the table prints as "-".
  std::vector<core::stat_result> results;
  for (auto& out : solver.solve_outcomes(jobs)) {
    core::stat_result r;
    if (out.ok()) {
      r = std::move(out->result);
    } else {
      r.stats = bench::aborted_stats(out.error());
    }
    results.push_back(std::move(r));
  }

  bench::json_records json;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& r4 = results[3 * i];
    const auto& r2 = results[3 * i + 1];
    const auto& r2p90 = results[3 * i + 2];
    const std::string t4 =
        r4.stats.aborted ? "-" : analysis::fmt(r4.stats.wall_seconds, 2);
    const std::string speedup =
        r4.stats.aborted
            ? "-"
            : analysis::fmt(r4.stats.wall_seconds /
                                std::max(r2.stats.wall_seconds, 1e-9),
                            1) +
                  "x";
    t.add_row({specs[i].name, t4, analysis::fmt(r2.stats.wall_seconds, 2),
               speedup,
               r4.stats.aborted
                   ? ("abort: " + r4.stats.abort_reason)
                   : std::to_string(r4.stats.peak_list_size),
               std::to_string(r2.stats.peak_list_size),
               std::to_string(r2.stats.allocations),
               std::to_string(r2.stats.peak_terms)});
    for (const auto* r : {&r4, &r2, &r2p90}) {
      json.begin()
          .str("bench", specs[i].name)
          .str("rule", r == &r4 ? "4P" : (r == &r2 ? "2P" : "2P_p90"))
          .boolean("aborted", r->stats.aborted)
          .num("seconds", r->stats.wall_seconds)
          .counters(r->stats)
          .num("num_buffers", static_cast<std::uint64_t>(r->num_buffers));
    }
  }
  t.print(std::cout);

  // -- Library-size axis (Li-Shi) -------------------------------------------
  //
  // Runtime vs number of buffer types b, frontier (li_shi.hpp) against the
  // classic per-type scan, for the deterministic engine and the 2P mean
  // statistical engine. The scan is O(b^2 n^2); the frontier's near-linear
  // scaling in b is the Li-Shi claim this table checks (the CI perf gate
  // reads the JSON records).
  std::cout << "\n=== Library-size axis: Li-Shi frontier vs scan ===\n";
  analysis::text_table tb{{"b", "det scan (s)", "det li-shi (s)", "det speedup",
                           "2P scan (s)", "2P li-shi (s)", "2P speedup"}};
  const std::vector<std::size_t> lib_sizes =
      smoke ? std::vector<std::size_t>{8, 64}
            : std::vector<std::size_t>{8, 64, 128, 256};
  // A long repeater chain is the workload where the b^2 blow-up actually
  // bites: candidate fronts grow into the hundreds, so the scan pays
  // b * |front| at every position. Random geometric trees keep fronts short
  // (merges cap them) and understate the effect. The statistical net is a
  // shorter chain: its per-candidate cost is dominated by canonical-form
  // pooled ops, which the frontier does not touch -- expect the det column
  // to carry the headline speedup and the 2P column a modest one.
  tree::chain_options det_chain;
  det_chain.length_um = 40000.0;
  det_chain.segments = smoke ? 1000 : 4000;
  const auto det_net = tree::make_chain(det_chain);
  tree::chain_options stat_chain;
  stat_chain.length_um = 40000.0;
  stat_chain.segments = smoke ? 200 : 800;
  const auto stat_net = tree::make_chain(stat_chain);
  const auto stat_model_cfg =
      bench::make_model_config(cfg, layout::wid_mode(), profile);

  for (const std::size_t b : lib_sizes) {
    const auto lib = timing::make_parameterized_library(b);
    double det_s[2];  // [scan, frontier]
    double stat_s[2];
    for (const int fr : {0, 1}) {
      core::det_options det;
      det.wire = cfg.wire;
      det.library = lib;
      det.driver_res_ohm = cfg.driver_res_ohm;
      det.li_shi = fr ? core::li_shi_mode::always : core::li_shi_mode::never;
      // Best of two: back-to-back runs share allocator and arena state, and
      // the second run of a pair is occasionally penalized by the first
      // one's footprint; the min is the stable figure for the CI perf gate.
      auto rd = bench::expect_solved(core::solve_van_ginneken(det_net, det));
      const auto rd2 =
          bench::expect_solved(core::solve_van_ginneken(det_net, det));
      if (rd2.stats.wall_seconds < rd.stats.wall_seconds) rd = rd2;
      det_s[fr] = rd.stats.wall_seconds;

      core::stat_options so =
          bench::make_stat_options(cfg, core::pruning_kind::two_param);
      so.library = lib;
      // Mean selection: the total-order regime the frontier engages in (the
      // yield-driven 0.05 selection takes the general scan path either way).
      so.selection_percentile = 0.5;
      so.li_shi = fr ? core::li_shi_mode::always : core::li_shi_mode::never;
      layout::process_model model{layout::square_die(det_chain.length_um),
                                  stat_model_cfg};
      const auto rs = bench::expect_solved(
          core::solve_statistical_insertion(stat_net, model, so));
      stat_s[fr] = rs.stats.wall_seconds;

      json.begin()
          .str("section", "b_axis")
          .num("b", static_cast<std::uint64_t>(b))
          .str("li_shi", fr ? "always" : "never")
          .num("det_segments",
               static_cast<std::uint64_t>(det_chain.segments))
          .num("stat_segments",
               static_cast<std::uint64_t>(stat_chain.segments))
          .num("det_seconds", rd.stats.wall_seconds)
          .num("stat_seconds", rs.stats.wall_seconds)
          .counters(rd.stats, "det_")
          .counters(rs.stats, "stat_")
          .num("num_buffers", static_cast<std::uint64_t>(rd.num_buffers));
    }
    tb.add_row({std::to_string(b), analysis::fmt(det_s[0], 3),
                analysis::fmt(det_s[1], 3),
                analysis::fmt(det_s[0] / std::max(det_s[1], 1e-9), 1) + "x",
                analysis::fmt(stat_s[0], 3), analysis::fmt(stat_s[1], 3),
                analysis::fmt(stat_s[0] / std::max(stat_s[1], 1e-9), 1) +
                    "x"});
  }
  tb.print(std::cout);

  const std::string json_path = bench::parse_json_path(argc, argv);
  if (json.write(json_path, "table2_runtime")) {
    std::cout << "(json artifact: " << json_path << ")\n";
  }
  std::cout << "(paper: 4P finishes only p1 at 25.4s vs 2P 1.5s = 17.3x; "
               "all larger nets exceed 2GB/4h for 4P, while 2P completes "
               "r5 in under 16 minutes)\n";
  return 0;
}
