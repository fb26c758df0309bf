// Micro-benchmarks of the DP key operations (google-benchmark).
//
// Quantifies the constants behind the complexity claims:
//   - sparse canonical-form arithmetic (add / sigma-of-difference / min),
//     value-semantics vs pooled (arena-backed) variants, with allocations/op
//     reported as a counter;
//   - linear merge + sweep prune (2P) vs cross-product merge + pairwise
//     prune (4P) on identical candidate lists -- Fig. 1 vs Section 2.2;
//   - the Fig. 1 deterministic linear merge;
//   - device characterization (eqs. 19-24) of one buffer position;
//   - the buffered-candidate step (eqs. 35-36 plus the 95%-yield choice of
//     one candidate per type) of one buffer position.
//
// Machine-readable output: run with
//   --benchmark_format=json --benchmark_out=BENCH_micro_ops.json
// The JSON carries ns/op, the allocs_per_op counter, the git sha and the
// runtime-selected SIMD ISA (custom context), and -- on the Kernel* merge
// benchmarks -- the terms merged per op.
//
// Convenience flag: --min-time=<seconds> is translated to google-benchmark's
// --benchmark_min_time so CI and humans share one spelling.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/dp_engine.hpp"
#include "core/pruning.hpp"
#include "json_out.hpp"
#include "layout/process_model.hpp"
#include "stats/kernels.hpp"
#include "stats/linear_form.hpp"
#include "stats/term_pool.hpp"
#include "stats/rng.hpp"
#include "timing/buffer_library.hpp"
#include "timing/wire_sizing.hpp"

// Global allocation counter: every operator new in the process bumps it, so
// the allocs_per_op counters below cover the term vectors, list buffers, and
// everything else the measured op touches. (Aligned variants are not
// overridden; lf_term storage is 8-byte aligned and never routes there.)
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// The replacement is program-wide (all four news below), so free() always
// receives malloc'd pointers; GCC's mismatched-new-delete heuristic cannot
// see that across TUs.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace vabi;

/// Measures heap allocations across the timed loop and reports them per op.
class alloc_meter {
 public:
  alloc_meter() : start_(g_heap_allocs.load(std::memory_order_relaxed)) {}
  void report(benchmark::State& state) const {
    const auto end = g_heap_allocs.load(std::memory_order_relaxed);
    state.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(end - start_) /
        static_cast<double>(state.iterations()));
  }

 private:
  std::uint64_t start_;
};

struct form_fixture {
  stats::variation_space space;
  std::vector<stats::linear_form> forms;

  form_fixture(std::size_t num_sources, std::size_t num_forms,
               std::size_t terms_per_form, std::uint64_t seed = 7) {
    for (std::size_t i = 0; i < num_sources; ++i) {
      space.add_source(stats::source_kind::random_device, 1.0);
    }
    auto rng = stats::make_rng(seed);
    std::uniform_int_distribution<std::size_t> pick(0, num_sources - 1);
    std::uniform_real_distribution<double> coeff(-1.0, 1.0);
    std::uniform_real_distribution<double> mean(-100.0, 100.0);
    for (std::size_t f = 0; f < num_forms; ++f) {
      stats::linear_form lf{mean(rng)};
      for (std::size_t t = 0; t < terms_per_form; ++t) {
        lf.add_term(static_cast<stats::source_id>(pick(rng)), coeff(rng));
      }
      forms.push_back(std::move(lf));
    }
  }
};

void BM_LinearFormAdd(benchmark::State& state) {
  form_fixture fx(1024, 2, static_cast<std::size_t>(state.range(0)));
  alloc_meter allocs;
  for (auto _ : state) {
    auto sum = fx.forms[0] + fx.forms[1];
    benchmark::DoNotOptimize(sum);
  }
  allocs.report(state);
}
BENCHMARK(BM_LinearFormAdd)->Arg(8)->Arg(64)->Arg(512);

void BM_PooledAdd(benchmark::State& state) {
  form_fixture fx(1024, 2, static_cast<std::size_t>(state.range(0)));
  stats::term_pool pool;
  alloc_meter allocs;
  for (auto _ : state) {
    pool.reset();  // epoch boundary, exactly as the DP's per-node rewind
    auto sum = stats::pooled_add(fx.forms[0], fx.forms[1], pool);
    benchmark::DoNotOptimize(sum);
  }
  allocs.report(state);
}
BENCHMARK(BM_PooledAdd)->Arg(8)->Arg(64)->Arg(512);

void BM_SigmaOfDifference(benchmark::State& state) {
  form_fixture fx(1024, 2, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::sigma_of_difference(fx.forms[0], fx.forms[1], fx.space));
  }
}
BENCHMARK(BM_SigmaOfDifference)->Arg(8)->Arg(64)->Arg(512);

void BM_StatisticalMin(benchmark::State& state) {
  form_fixture fx(1024, 2, static_cast<std::size_t>(state.range(0)));
  alloc_meter allocs;
  for (auto _ : state) {
    auto m = stats::statistical_min(fx.forms[0], fx.forms[1], fx.space);
    benchmark::DoNotOptimize(m);
  }
  allocs.report(state);
}
BENCHMARK(BM_StatisticalMin)->Arg(8)->Arg(64)->Arg(512);

void BM_PooledStatisticalMin(benchmark::State& state) {
  form_fixture fx(1024, 2, static_cast<std::size_t>(state.range(0)));
  stats::term_pool pool;
  alloc_meter allocs;
  for (auto _ : state) {
    pool.reset();
    auto m =
        stats::statistical_min(fx.forms[0], fx.forms[1], fx.space, pool);
    benchmark::DoNotOptimize(m);
  }
  allocs.report(state);
}
BENCHMARK(BM_PooledStatisticalMin)->Arg(8)->Arg(64)->Arg(512);

void BM_PooledSubScaled(benchmark::State& state) {
  // The add-wire / add-buffer update (eqs. 33-36): a - s*b in one merge.
  form_fixture fx(1024, 2, static_cast<std::size_t>(state.range(0)));
  stats::term_pool pool;
  alloc_meter allocs;
  for (auto _ : state) {
    pool.reset();
    auto r = stats::pooled_sub_scaled(fx.forms[0], 3.25, fx.forms[1], pool);
    benchmark::DoNotOptimize(r);
  }
  allocs.report(state);
}
BENCHMARK(BM_PooledSubScaled)->Arg(8)->Arg(64)->Arg(512);

// ---------------------------------------------------------------------------
// Canonical-form kernels on saturated operands.
//
// Each BM_Kernel* benchmark runs once per space size with fully populated
// forms -- every source carries a term -- the regime deep trees push RAT
// forms toward.
// ---------------------------------------------------------------------------

struct kernel_fixture {
  stats::variation_space space;
  stats::linear_form a, b;  ///< fully populated operands

  explicit kernel_fixture(std::size_t num_sources, std::uint64_t seed = 23) {
    for (std::size_t i = 0; i < num_sources; ++i) {
      space.add_source(stats::source_kind::random_device, 0.8 + 0.001 * i);
    }
    auto rng = stats::make_rng(seed);
    std::uniform_real_distribution<double> coeff(-1.0, 1.0);
    a = stats::linear_form{12.5};
    b = stats::linear_form{-7.25};
    for (std::size_t i = 0; i < num_sources; ++i) {
      a.add_term(static_cast<stats::source_id>(i), coeff(rng));
      b.add_term(static_cast<stats::source_id>(i), coeff(rng));
    }
  }
};

/// Reports the pooled merge counter accumulated across the timed loop.
class merge_meter {
 public:
  merge_meter() : terms0_(stats::pooled_terms_merged()) {}
  void report(benchmark::State& state) const {
    const double iters = static_cast<double>(state.iterations());
    state.counters["terms_merged_per_op"] = benchmark::Counter(
        static_cast<double>(stats::pooled_terms_merged() - terms0_) / iters);
  }

 private:
  std::size_t terms0_;
};

void BM_KernelMerge(benchmark::State& state) {
  kernel_fixture fx(static_cast<std::size_t>(state.range(0)));
  stats::term_pool pool;
  merge_meter meter;
  for (auto _ : state) {
    pool.reset();
    auto r = stats::pooled_add(fx.a, fx.b, pool);
    benchmark::DoNotOptimize(r);
  }
  meter.report(state);
}

void BM_KernelBlend(benchmark::State& state) {
  kernel_fixture fx(static_cast<std::size_t>(state.range(0)));
  stats::term_pool pool;
  merge_meter meter;
  for (auto _ : state) {
    pool.reset();
    auto r = stats::pooled_blend(0.375, fx.a, 0.625, fx.b, pool);
    benchmark::DoNotOptimize(r);
  }
  meter.report(state);
}

void BM_KernelStatisticalMin(benchmark::State& state) {
  kernel_fixture fx(static_cast<std::size_t>(state.range(0)));
  stats::term_pool pool;
  merge_meter meter;
  for (auto _ : state) {
    pool.reset();
    auto r = stats::statistical_min(fx.a, fx.b, fx.space, pool);
    benchmark::DoNotOptimize(r);
  }
  meter.report(state);
}

void BM_KernelVariance(benchmark::State& state) {
  kernel_fixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.a.variance(fx.space));
  }
}

void BM_KernelCovariance(benchmark::State& state) {
  kernel_fixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::covariance(fx.a, fx.b, fx.space));
  }
}

void BM_KernelSigmaOfDifference(benchmark::State& state) {
  kernel_fixture fx(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stats::sigma_of_difference(fx.a, fx.b, fx.space));
  }
}

void kernel_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"sources"});
  for (const std::int64_t sources : {8, 64, 256}) b->Args({sources});
}
BENCHMARK(BM_KernelMerge)->Apply(kernel_args);
BENCHMARK(BM_KernelBlend)->Apply(kernel_args);
BENCHMARK(BM_KernelStatisticalMin)->Apply(kernel_args);
BENCHMARK(BM_KernelVariance)->Apply(kernel_args);
BENCHMARK(BM_KernelCovariance)->Apply(kernel_args);
BENCHMARK(BM_KernelSigmaOfDifference)->Apply(kernel_args);

std::vector<core::stat_candidate> make_candidates(std::size_t n,
                                                  std::uint64_t seed) {
  auto rng = stats::make_rng(seed);
  std::uniform_real_distribution<double> load(0.01, 0.5);
  std::uniform_real_distribution<double> rat(-2000.0, -1000.0);
  std::vector<core::stat_candidate> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::stat_candidate c;
    c.load = stats::linear_form{load(rng)};
    c.rat = stats::linear_form{rat(rng)};
    // a few variation terms so sigma computations are exercised
    for (stats::source_id id = 0; id < 8; ++id) {
      c.load.add_term(id, 0.001 * static_cast<double>(i % 7));
      c.rat.add_term(id, 0.1 * static_cast<double>((i + 3) % 5));
    }
    out.push_back(std::move(c));
  }
  return out;
}

void BM_PruneTwoParam(benchmark::State& state) {
  form_fixture fx(64, 0, 0);
  const auto base =
      make_candidates(static_cast<std::size_t>(state.range(0)), 3);
  core::dp_stats s;
  for (auto _ : state) {
    auto list = base;
    core::prune_two_param(core::two_param_rule{}, list, fx.space, s);
    benchmark::DoNotOptimize(list);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PruneTwoParam)->Range(64, 4096)->Complexity();

void BM_PruneFourParam(benchmark::State& state) {
  form_fixture fx(64, 0, 0);
  const auto base =
      make_candidates(static_cast<std::size_t>(state.range(0)), 3);
  core::dp_stats s;
  for (auto _ : state) {
    auto list = base;
    core::prune_four_param(core::four_param_rule{}, list, fx.space, s);
    benchmark::DoNotOptimize(list);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PruneFourParam)->Range(64, 1024)->Complexity();

// ---------------------------------------------------------------------------
// Dominance-sweep comparison: pairwise vs tiled engine.
//
// The BM_DominanceSweep* benchmarks prune identical candidate lists twice per
// (k, sources) point: once forced onto the seed's per-pair sweep and once
// onto the tiled engine (SoA candidate planes + batched one-vs-many moment
// kernels; core/pruning.cpp). Candidates carry genuine per-source variation
// terms and overlapping means, so the sweeps run the full mixture of
// prefilter hits and exact sigma-of-difference fallbacks. Survivors are
// bit-identical by contract (tests/core/tiled_prune_test.cpp proves it);
// only the time and the organization counters differ.
// ---------------------------------------------------------------------------

/// RAII toggle of the prune-implementation switch (+1 tiled / -1 pairwise);
/// restores the VABI_FORCE_PRUNE environment default on exit.
struct prune_mode_guard {
  explicit prune_mode_guard(bool tiled) {
    core::set_force_prune(tiled ? 1 : -1);
  }
  ~prune_mode_guard() { core::reset_force_prune_from_env(); }
};

/// Candidates with overlapping means and per-source variation terms over a
/// `sources`-wide space: the regime where p > 0.5 dominance is decided by
/// second moments, not means alone.
std::vector<core::stat_candidate> make_stat_candidates(std::size_t n,
                                                       std::size_t sources,
                                                       std::uint64_t seed) {
  auto rng = stats::make_rng(seed);
  std::uniform_real_distribution<double> load(0.10, 0.35);
  std::uniform_real_distribution<double> rat(-1300.0, -1000.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> lcoeff(-0.02, 0.02);
  std::uniform_real_distribution<double> rcoeff(-15.0, 15.0);
  std::vector<core::stat_candidate> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::stat_candidate c;
    c.load = stats::linear_form{load(rng)};
    c.rat = stats::linear_form{rat(rng)};
    for (std::size_t id = 0; id < sources; ++id) {
      if (unit(rng) < 0.7) {
        c.load.add_term(static_cast<stats::source_id>(id), lcoeff(rng));
      }
      if (unit(rng) < 0.7) {
        c.rat.add_term(static_cast<stats::source_id>(id), rcoeff(rng));
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

/// Reports the tiled-engine organization counters accumulated across the
/// timed loop (zero on the pairwise runs).
void report_tiled_counters(benchmark::State& state, const core::dp_stats& s) {
  const double iters = static_cast<double>(state.iterations());
  state.counters["tile_prefilter_hits_per_op"] = benchmark::Counter(
      static_cast<double>(s.tile_prefilter_hits) / iters);
  state.counters["pairs_batched_per_op"] =
      benchmark::Counter(static_cast<double>(s.pairs_batched) / iters);
}

void BM_DominanceSweep2P(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto sources = static_cast<std::size_t>(state.range(1));
  const bool tiled = state.range(2) != 0;
  form_fixture fx(sources, 0, 0);
  const auto base = make_stat_candidates(k, sources, 3);
  core::two_param_rule rule;
  rule.p_load = 0.9;
  rule.p_rat = 0.9;
  prune_mode_guard guard{tiled};
  core::prune_scratch scratch;  // per-worker reuse, as in the engine
  core::dp_stats s;
  // Manual timing: the per-iteration deep copy of the candidate list is
  // setup, not sweep -- timing it would put the same O(k * sources) floor
  // under both modes and mask the sweep difference being measured.
  for (auto _ : state) {
    auto list = base;
    const auto t0 = std::chrono::steady_clock::now();
    core::prune_two_param(rule, list, fx.space, s, &scratch);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    benchmark::DoNotOptimize(list);
  }
  report_tiled_counters(state, s);
}

void BM_DominanceSweep4P(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto sources = static_cast<std::size_t>(state.range(1));
  form_fixture fx(sources, 0, 0);
  // The 4P prune has no tiled path: a batched moment fill measured slower
  // than its lazy per-form Var walk (see prune_four_param).
  const auto base = make_stat_candidates(k, sources, 5);
  core::dp_stats s;
  for (auto _ : state) {
    auto list = base;
    const auto t0 = std::chrono::steady_clock::now();
    core::prune_four_param(core::four_param_rule{}, list, fx.space, s);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    benchmark::DoNotOptimize(list);
  }
}

constexpr std::int64_t kSweepSizes[] = {32, 128, 512};
constexpr std::int64_t kSweepSources[] = {8, 64, 256};

void dominance_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"k", "sources", "tiled"});
  for (const std::int64_t k : kSweepSizes) {
    for (const std::int64_t sources : kSweepSources) {
      b->Args({k, sources, 0});
      b->Args({k, sources, 1});
    }
  }
}

// The 4P prune has no tiled path, so no pairwise/tiled axis.
void dominance_args_4p(benchmark::internal::Benchmark* b) {
  b->ArgNames({"k", "sources"});
  for (const std::int64_t k : kSweepSizes) {
    for (const std::int64_t sources : kSweepSources) b->Args({k, sources});
  }
}
BENCHMARK(BM_DominanceSweep2P)->Apply(dominance_args)->UseManualTime();
BENCHMARK(BM_DominanceSweep4P)->Apply(dominance_args_4p)->UseManualTime();

void BM_CharacterizePosition(benchmark::State& state) {
  // One op is one buffer position: every standard_library() type
  // characterized at one location of a WID heterogeneous model, the way
  // every engine walks a tree's positions. Each op then moves on, so the
  // location memo serves the second and third types only. The model is
  // rebuilt (untimed) every lap over the positions, which bounds the
  // variation space that each call's fresh private source grows.
  const timing::buffer_library lib = timing::standard_library();
  const layout::bbox die = layout::square_die(10000.0);
  layout::process_model_config config;
  config.mode = layout::wid_mode();
  config.spatial.profile = layout::spatial_profile::heterogeneous;
  auto rng = stats::make_rng(31);
  std::uniform_real_distribution<double> coord(0.0, 10000.0);
  std::vector<layout::point> positions(256);
  for (auto& p : positions) p = {coord(rng), coord(rng)};
  std::optional<layout::process_model> model;
  model.emplace(die, config);
  std::size_t next = 0;
  alloc_meter allocs;
  for (auto _ : state) {
    if (next == positions.size()) {
      state.PauseTiming();
      model.emplace(die, config);
      next = 0;
      state.ResumeTiming();
    }
    const layout::point& loc = positions[next++];
    for (const auto& type : lib.types()) {
      auto dv = model->characterize(loc, type.cap_pf, type.delay_ps);
      benchmark::DoNotOptimize(dv);
    }
  }
  allocs.report(state);
}
BENCHMARK(BM_CharacterizePosition);

void BM_BufferedSelection(benchmark::State& state) {
  // One op is one buffer position's buffered step for every library type:
  // dp_worker::add_buffered_candidates on a list of range(0) WID candidates
  // under 95%-yield selection, with the 3-type standard library or a
  // range(1)-type parameterized one. The position's devices are
  // characterized once and handed out as borrowing copies (the parallel
  // engine reads a pre-built cache the same way), so the op is the choice
  // and the builds. Each candidate's RAT carries the delays of three devices
  // at random locations (G, their Y cells, their X) and its load one
  // device's cap, the term structure a WID solve produces.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto types = static_cast<std::size_t>(state.range(1));
  core::stat_options options;
  options.library = types == 3 ? timing::standard_library()
                               : timing::make_parameterized_library(types);
  options.selection_percentile = 0.05;
  const timing::wire_menu menu =
      timing::make_wire_menu(options.wire, options.wire_width_multipliers);
  layout::process_model_config config;
  config.mode = layout::wid_mode();
  config.spatial.profile = layout::spatial_profile::heterogeneous;
  layout::process_model model(layout::square_die(10000.0), config);
  tree::routing_tree tree({0.0, 0.0});
  const tree::node_id id = tree.add_steiner(tree.root(), {5000.0, 5000.0});

  auto rng = stats::make_rng(41);
  std::uniform_real_distribution<double> coord(3000.0, 7000.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const timing::buffer_type ref = timing::standard_library()[0];
  core::detail::cand_list list;
  for (std::size_t k = 0; k < n; ++k) {
    core::stat_candidate c;
    const double load0 = 0.01 + 0.2 * unit(rng);
    c.rat = stats::linear_form(800.0 + 1500.0 * load0);
    for (int d = 0; d < 3; ++d) {
      c.rat -= model.characterize({coord(rng), coord(rng)}, ref.cap_pf,
                                  ref.delay_ps).delay;
    }
    c.load = model.characterize({coord(rng), coord(rng)}, load0, 1.0).cap;
    list.push_back(std::move(c));
  }
  std::vector<layout::device_variation> devices;
  for (const auto& type : options.library.types()) {
    devices.push_back(model.characterize(tree.node(id).location, type.cap_pf,
                                         type.delay_ps));
  }
  const auto borrow = [](const stats::linear_form& f) {
    return stats::linear_form::from_pooled(f.nominal(), f.terms());
  };

  core::decision_arena arena;
  core::detail::worker_arena mem;
  core::dp_stats dps;
  std::size_t published = 0;
  core::detail::dp_worker worker{
      .tree = tree,
      .space = model.space(),
      .options = options,
      .menu = menu,
      .devices =
          [&](tree::node_id, timing::buffer_index b) {
            return layout::device_variation{borrow(devices[b].cap),
                                            borrow(devices[b].delay),
                                            devices[b].random_source};
          },
      .arena = arena,
      .pool = mem,
      .dps = dps,
      .guard = core::detail::resource_guard{options, dps, published}};
  alloc_meter allocs;
  for (auto _ : state) {
    worker.add_buffered_candidates(list, id);
    benchmark::DoNotOptimize(list.back().rat.nominal());
    list.resize(n);
    mem.end_node();
    arena.reset();
  }
  allocs.report(state);
}
BENCHMARK(BM_BufferedSelection)->ArgsProduct({{2, 8, 32}, {3, 64}});

void BM_DetPrune(benchmark::State& state) {
  std::vector<core::det_candidate> base;
  auto rng = stats::make_rng(11);
  std::uniform_real_distribution<double> load(0.01, 0.5);
  std::uniform_real_distribution<double> rat(-2000.0, -1000.0);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    base.push_back({load(rng), rat(rng), nullptr});
  }
  core::dp_stats s;
  for (auto _ : state) {
    auto list = base;
    core::prune_deterministic(list, s);
    benchmark::DoNotOptimize(list);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DetPrune)->Range(64, 4096)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  // Translate the harness's --min-time[=N] into google-benchmark's
  // --benchmark_min_time so callers don't need to know the library spelling.
  std::vector<std::string> arg_storage;
  std::vector<char*> args;
  arg_storage.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--min-time=", 0) == 0) {
      a = "--benchmark_min_time=" + a.substr(std::strlen("--min-time="));
    }
    arg_storage.push_back(std::move(a));
  }
  for (auto& a : arg_storage) args.push_back(a.data());
  int args_count = static_cast<int>(args.size());

  benchmark::AddCustomContext("git_sha", vabi::bench::git_sha());
  // The runtime-dispatched SIMD ISA the kernels resolved to (honors
  // VABI_FORCE_KERNEL); lands in the JSON context block.
  benchmark::AddCustomContext(
      "kernel_isa",
      vabi::stats::kernels::to_string(vabi::stats::kernels::active_isa()));
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
