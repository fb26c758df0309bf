// Repo benchmark: runs one workload, checks its outputs and prints
// its metrics. Normally started through run.py, which builds this binary:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--expect-digest HEX] [--git-sha SHA]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exit code 0 when every
// correctness check passed, 1 when one failed, 2 on a usage or setup error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/journal.hpp"
#include "harness.hpp"
#include "stats/kernels.hpp"
#include "testing/fault_injection.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string expect_digest;
  std::string git_sha = "unknown";
};

/// Setups per run; setup_s is their median. A cheap setup repeats until
/// kSetupSeconds have passed (at most kMaxSetupReps times), since a median
/// of five milliseconds-long setups moves with every scheduler hiccup.
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 60;
constexpr double kSetupSeconds = 1.5;

/// The timed loop is split into this many back-to-back repetitions. On a
/// shared machine, co-tenant load slows whole stretches of a run by tens of
/// percent, so each timing figure comes from the repetition where it reads
/// best; latency percentiles of a fixed input set come from per_input.
constexpr std::size_t kRepetitions = 3;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--expect-digest HEX] "
               "[--git-sha SHA]\n";
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      o.trace = v == "1";
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--expect-digest") {
      o.expect_digest = v;
    } else if (a == "--git-sha") {
      o.git_sha = v;
    } else {
      usage("unknown argument " + a);
    }
    if (end != nullptr && (*end != '\0' || end == v.c_str())) {
      usage("not a number: " + a + " " + v);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// Least-squares slope of log(time) against log(sinks); 0 unless the
/// sample spans at least a factor of two in sinks.
double log_log_slope(const std::vector<std::pair<double, double>>& pts) {
  double lo = 0.0;
  double hi = 0.0;
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  double n = 0.0;
  for (const auto& [sinks, secs] : pts) {
    if (sinks < 2.0 || secs <= 0.0) continue;
    lo = n == 0.0 ? sinks : std::min(lo, sinks);
    hi = std::max(hi, sinks);
    const double x = std::log(sinks);
    const double y = std::log(secs);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    n += 1.0;
  }
  const double den = n * sxx - sx * sx;
  if (n < 2.0 || hi < 2.0 * lo || den <= 0.0) return 0.0;
  return (n * sxy - sx * sy) / den;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Accumulates one closed loop's requests.
struct loop_stats {
  std::uint64_t requests = 0;
  double wall_s = 0.0;  ///< summed request wall time
  double busy_s = 0.0;
  std::vector<double> rates;  ///< per request: solves per second
  std::vector<double> latencies_ms;
  std::vector<std::pair<double, double>> size_time;
  /// Latencies by input, for workloads that solve a fixed set of inputs.
  std::map<std::size_t, std::vector<double>> by_input_ms;
};

/// Issues requests back to back until their summed wall time reaches
/// `seconds`; the next request starts only after the previous returned.
loop_stats run_loop(workload& wl, tracer& tr, double seconds,
                    std::uint64_t& next_id, tally& t) {
  loop_stats s;
  while (s.wall_s < seconds) {
    const std::uint64_t id = next_id++;
    request_result r;
    const std::uint64_t failed_before = t.failed;
    const std::uint64_t attempted_before = t.attempted;
    const auto t0 = bench_clock::now();
    {
      scoped_span span(tr, "request", id);
      try {
        wl.request(id, r, t);
      } catch (const std::exception& e) {
        t.fail(std::string("request threw: ") + e.what());
      }
    }
    const double wall = seconds_between(t0, bench_clock::now());
    s.wall_s += wall;
    ++s.requests;
    const std::uint64_t solved =
        (t.attempted - attempted_before) - (t.failed - failed_before);
    s.rates.push_back(
        r.solves_per_s.value_or(static_cast<double>(solved) / wall));
    s.busy_s += r.solver_busy_s;
    if (r.latencies_ms.empty()) r.latencies_ms.push_back(1e3 * wall);
    s.latencies_ms.insert(s.latencies_ms.end(), r.latencies_ms.begin(),
                          r.latencies_ms.end());
    for (std::size_t k = 0; k < r.inputs.size(); ++k) {
      s.by_input_ms[r.inputs[k]].push_back(r.latencies_ms[k]);
    }
    s.size_time.insert(s.size_time.end(), r.size_time.begin(),
                       r.size_time.end());
  }
  return s;
}

void merge(loop_stats& into, const loop_stats& from) {
  into.requests += from.requests;
  into.wall_s += from.wall_s;
  into.busy_s += from.busy_s;
  into.rates.insert(into.rates.end(), from.rates.begin(), from.rates.end());
  into.latencies_ms.insert(into.latencies_ms.end(), from.latencies_ms.begin(),
                           from.latencies_ms.end());
  into.size_time.insert(into.size_time.end(), from.size_time.begin(),
                        from.size_time.end());
  for (const auto& [input, v] : from.by_input_ms) {
    auto& to = into.by_input_ms[input];
    to.insert(to.end(), v.begin(), v.end());
  }
}

/// The timing figures of the end-to-end report.
struct timing_figures {
  double rate = 0.0;  ///< solves per second
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t samples = 0;  ///< what the percentiles are taken over
};

/// The median request rate and the latency percentiles of each repetition,
/// each figure taken from the repetition where it reads best; `samples` is
/// the smallest repetition's latency count.
timing_figures whole_requests(const std::vector<loop_stats>& reps) {
  timing_figures f;
  f.p50_ms = f.p90_ms = f.p99_ms = HUGE_VAL;
  f.samples = std::numeric_limits<std::size_t>::max();
  for (const loop_stats& r : reps) {
    f.rate = std::max(f.rate, median(r.rates));
    f.p50_ms = std::min(f.p50_ms, quantile(r.latencies_ms, 0.50));
    f.p90_ms = std::min(f.p90_ms, quantile(r.latencies_ms, 0.90));
    f.p99_ms = std::min(f.p99_ms, quantile(r.latencies_ms, 0.99));
    f.samples = std::min(f.samples, r.latencies_ms.size());
  }
  return f;
}

/// Replaces the latency percentiles of `f` by percentiles over each input's
/// median latency across all repetitions. A co-tenant's stall lands on a
/// few of an input's samples and leaves its median alone, so the tail is
/// that of the costly inputs, not of the disturbed stretches that decide
/// the tail of single requests when threads outnumber free cores.
void per_input(const loop_stats& all, timing_figures& f) {
  std::vector<double> typical;
  for (const auto& [input, v] : all.by_input_ms) typical.push_back(median(v));
  f.p50_ms = quantile(typical, 0.50);
  f.p90_ms = quantile(typical, 0.90);
  f.p99_ms = quantile(typical, 0.99);
  f.samples = typical.size();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct metric {
  std::string name;
  double value;
  std::string unit;
};

int run(const options& opt) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  run_context ctx;
  ctx.seed = opt.seed;
  ctx.threads = std::min<std::size_t>(4, hw);
  ctx.work_dir = opt.work_dir;
  const char* fault_spec = std::getenv("VABI_FAULT_SPEC");
  ctx.fault_drill = fault_spec != nullptr && *fault_spec != '\0';
  tracer tr;
  ctx.trace = &tr;
  std::filesystem::create_directories(opt.work_dir);

  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    usage("unknown workload " + opt.workload);
  }

  // Warm-up of process-wide lazy state: kernel ISA resolution and the
  // calibrated_budgets static (setup re-characterizes on its own).
  const char* isa = vabi::stats::kernels::to_string(
      vabi::stats::kernels::active_isa());
  (void)vabi::bench::calibrated_budgets();

  std::cout << "perfbench workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
            << "\ncontext git_sha=" << opt.git_sha << " kernel_isa=" << isa
            << " nproc=" << hw << " threads=" << ctx.threads << "\n";

  // -- setup, repeated; the last instance is the one measured ---------------
  tr.set_enabled(opt.trace);
  std::unique_ptr<workload> wl;
  std::vector<double> setup_s, characterize_s, model_s, build_s;
  double setup_total_s = 0.0;
  for (std::size_t r = 0; r < kSetupReps || (setup_total_s < kSetupSeconds &&
                                             r < kMaxSetupReps);
       ++r) {
    wl.reset();
    wl = make_workload(opt.workload, ctx);
    setup_times times;
    const auto t0 = bench_clock::now();
    {
      scoped_span span(tr, "setup", 0);
      wl->setup(times);
    }
    setup_s.push_back(seconds_between(t0, bench_clock::now()));
    setup_total_s += setup_s.back();
    characterize_s.push_back(times.characterize_s);
    model_s.push_back(times.model_s);
    build_s.push_back(times.build_s);
  }

  // Fault injection for failure-accounting drills: armed for the solves
  // that count toward failed_frac, disarmed again for the checks.
  if (ctx.fault_drill) {
    vabi::testing::arm(fault_spec);
    std::cout << "fault injection armed: " << fault_spec << "\n";
  }

  // -- reference pass: the untimed warm-up --------------------------------
  tally t;
  reference_result ref;
  ref.digest = vabi::core::fnv1a_seed;
  {
    scoped_span span(tr, "reference", 0);
    try {
      wl->reference(ref, t);
    } catch (const std::exception& e) {
      t.fail(std::string("reference pass threw: ") + e.what());
    }
  }
  const bool reference_clean = t.failed == 0;
  // Sampled before the timed loop: the loop repeats the reference work, but
  // an ECO session's arenas grow with every edit, which would tie the figure
  // to how many requests fit in the run.
  const double rss_mb = peak_rss_mb();

  // -- timed closed loop(s) -------------------------------------------------
  std::uint64_t next_id = 1;
  tr.set_enabled(false);
  std::vector<loop_stats> reps;
  loop_stats plain;  // all repetitions together
  for (std::size_t r = 0; r < kRepetitions; ++r) {
    reps.push_back(run_loop(*wl, tr, opt.seconds / kRepetitions, next_id, t));
    merge(plain, reps.back());
  }
  loop_stats traced;
  double coverage = 0.0;
  if (opt.trace) {
    tr.set_enabled(true);
    const auto t0 = bench_clock::now();
    traced = run_loop(*wl, tr, opt.seconds, next_id, t);
    const double elapsed = seconds_between(t0, bench_clock::now());
    coverage = elapsed > 0.0 ? tr.top_level_seconds(t0) / elapsed : 0.0;
  }
  vabi::testing::disarm();

  // -- correctness checks ---------------------------------------------------
  check_log checks;
  {
    scoped_span span(tr, "check", 0);
    try {
      wl->check(checks);
    } catch (const std::exception& e) {
      checks.record("checks_ran", false, e.what());
    }
  }
  const std::string digest = hex(ref.digest);
  if (!opt.expect_digest.empty()) {
    if (reference_clean) {
      checks.record("result_digest", digest == opt.expect_digest,
                    "reference pass digest " + digest + ", recorded " +
                        opt.expect_digest);
    } else {
      std::cout << "result digest not compared: the reference pass had "
                   "failed solves\n";
    }
  }

  metric_map layers;
  if (opt.trace) {
    scoped_span span(tr, "extras", 0);
    wl->extras(layers);
  }

  // -- report -----------------------------------------------------------------
  const bool correct = checks.all_passed();
  std::cout << "reference digest " << digest << "\n";
  for (const auto& e : checks.entries) {
    std::cout << "check " << e.name << ": " << (e.passed ? "ok" : "FAILED")
              << " (" << e.detail << ")\n";
  }
  for (const auto& why : t.errors) std::cout << "failure: " << why << "\n";
  const double failed_frac =
      t.attempted > 0
          ? static_cast<double>(t.failed) / static_cast<double>(t.attempted)
          : 0.0;

  std::vector<metric> out;
  if (!opt.trace) {
    const bool pool = !plain.by_input_ms.empty();
    timing_figures fig = whole_requests(reps);
    if (pool) per_input(plain, fig);
    const double rate = fig.rate;
    const double p50 = fig.p50_ms;
    const double p90 = fig.p90_ms;
    const double delay95 =
        ref.delay95_count > 0
            ? ref.delay95_sum_ps / static_cast<double>(ref.delay95_count)
            : 0.0;
    std::cout << "setup_s is the median of " << setup_s.size() << " setups\n";
    out = {{"setup_s", median(setup_s), "s"},
           {"peak_rss_mb", rss_mb, "MB"},
           {"solves_per_s", rate, "1/s"},
           {"solve_ms_p50", p50, "ms"},
           {"solve_ms_p90", p90, "ms"},
           {"delay95_ps", delay95, "ps"}};

    // The same figures under the names of the workload they belong to.
    std::cout << "repetition p50s (ms):";
    for (const auto& r : reps) {
      std::cout << " " << json_number(quantile(r.latencies_ms, 0.5));
    }
    std::cout << "\n";
    if (pool) {
      std::cout << "percentiles over " << fig.samples
                << " inputs' median latencies (" << plain.latencies_ms.size()
                << " samples in " << json_number(plain.wall_s) << " s)\n";
    } else {
      std::cout << "best of " << reps.size()
                << " repetitions, each with at least " << fig.samples
                << " latencies\n";
    }
    std::cout << "failed_frac " << json_number(failed_frac) << " ("
              << t.failed << " of " << t.attempted << " attempted solves)\n";
    const std::string& w = opt.workload;
    const auto say = [](const std::string& name, double v, const char* unit) {
      std::cout << "metric " << name << " = " << json_number(v) << " " << unit
                << "\n";
    };
    if (w == "yield_batch") {
      say("batch_nets_per_s", rate, "1/s");
      say("rat95_ps", -delay95, "ps");
    } else if (w == "confidence_net") {
      say("confidence_ms_p50", p50, "ms");
      say("confidence_ms_p90", p90, "ms");
    } else if (w == "eco_session") {
      say("eco_ms_p50", p50, "ms");
      if (fig.samples >= 1000) {
        say("eco_ms_p99", fig.p99_ms, "ms");
      } else {
        std::cout << "metric eco_ms_p99 unavailable: " << fig.samples
                  << " samples, p99 needs 1000 for ten beyond it\n";
      }
    } else if (w == "library_chain") {
      say("nom_ms_p50", p50, "ms");
      say("nom_ms_p90", p90, "ms");
    }
    if (fig.samples < 100) {
      std::cout << "warning: p90 has fewer than ten samples beyond it\n";
    }
  } else {
    const layer_counts& c = ref.counts;
    const auto frac = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double plain_mean = frac(plain.wall_s, d(plain.requests));
    const double traced_mean = frac(traced.wall_s, d(traced.requests));
    const double loop_busy = frac(
        plain.busy_s + traced.busy_s,
        d(wl->threads_used()) * (plain.wall_s + traced.wall_s));
    std::vector<std::pair<double, double>> size_time = plain.size_time;
    size_time.insert(size_time.end(), traced.size_time.begin(),
                     traced.size_time.end());
    const auto layer = [&](const char* name, double fallback) {
      const auto it = layers.find(name);
      return it != layers.end() ? it->second : fallback;
    };
    out = {
        {"device.characterize_s", median(characterize_s), "s"},
        {"layout.model_s", median(model_s), "s"},
        {"tree.build_s", median(build_s), "s"},
        {"stats.terms_merged", d(c.terms_merged), "count"},
        {"stats.dense_forms", d(c.dense_forms), "count"},
        {"dp.candidates_created", d(c.candidates_created), "count"},
        {"dp.merge_pairs", d(c.merge_pairs), "count"},
        {"dp.peak_list", d(c.peak_list), "count"},
        {"dp.survivor_frac",
         1.0 - frac(d(c.candidates_pruned), d(c.candidates_created)), "frac"},
        {"dp.allocations", d(c.allocations), "count"},
        {"dp.peak_terms", d(c.peak_terms), "count"},
        {"dp.sink_slope", log_log_slope(size_time), "slope"},
        {"prune.prefilter_hits", d(c.prefilter_hits), "count"},
        {"prune.tiled_prunes", d(c.tiled_prunes), "count"},
        {"prune.pairs_batched", d(c.pairs_batched), "count"},
        {"prune.tile_hit_frac",
         frac(d(c.tile_prefilter_hits), d(c.pairs_batched)), "frac"},
        {"parallel.busy_frac", layer("parallel.busy_frac", loop_busy), "frac"},
        {"journal.bytes", d(c.journal_bytes), "bytes"},
        {"journal.checkpoints", d(c.journal_checkpoints), "count"},
        {"journal.commit_s", layer("journal.commit_s", 0.0), "s"},
        {"tree.edit_us", layer("tree.edit_us", 0.0), "us"},
        {"cache.hits", d(c.cache_hits), "count"},
        {"cache.misses", d(c.cache_misses), "count"},
        {"cache.reuse_frac", frac(d(c.nodes_reused), d(c.nodes_solved_over)),
         "frac"},
        {"cache.cold_ms", layer("cache.cold_ms", 0.0), "ms"},
        {"li_shi.nodes", d(c.li_shi_nodes), "count"},
        {"trace.overhead_frac", frac(traced_mean, plain_mean) - 1.0, "frac"},
        {"trace.coverage_frac", coverage, "frac"},
    };

    const std::string trace_path = opt.work_dir + "/trace_" + opt.workload +
                                   "_seed" + std::to_string(opt.seed) + ".json";
    if (tr.write_chrome_json(trace_path)) {
      std::cout << "chrome trace written to " << trace_path << " ("
                << tr.spans().size() << " spans)\n";
    } else {
      std::cout << "warning: could not write " << trace_path << "\n";
    }
    std::cout << "per-layer self time (traced run: setup, reference, loop, "
                 "checks, extras)\n"
              << tr.self_time_table();
    std::cout << "tracing overhead " << json_number(100.0 * (frac(traced_mean, plain_mean) - 1.0))
              << "% (" << plain.requests << " untraced vs " << traced.requests
              << " traced requests)\n";
  }

  for (const auto& m : out) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "correct " << (correct ? "true" : "false") << "\n";

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted);
  json += ", \"failed\": " + std::to_string(t.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + json_number(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::options opt = perfbench::parse(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 2;
  }
}
