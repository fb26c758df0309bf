// The four benchmark workloads. See README.md for why each exists and which
// layers it stresses.
#include <algorithm>
#include <cmath>
#include <latch>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "analysis/solution_witness.hpp"
#include "core/journal.hpp"
#include "core/parallel.hpp"
#include "core/slab_cache.hpp"
#include "core/van_ginneken.hpp"
#include "harness.hpp"
#include "stats/rng.hpp"
#include "tree/vpr_import.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace vabi;

void layer_counts::add(const core::dp_stats& s) {
  candidates_created += s.candidates_created;
  candidates_pruned += s.candidates_pruned;
  merge_pairs += s.merge_pairs;
  peak_list = std::max<std::uint64_t>(peak_list, s.peak_list_size);
  allocations += s.allocations;
  peak_terms = std::max<std::uint64_t>(peak_terms, s.peak_terms);
  dense_forms += s.dense_forms;
  terms_merged += s.terms_merged;
  prefilter_hits += s.dominance_prefilter_hits;
  li_shi_nodes += s.li_shi_nodes;
  cache_hits += s.cache_hits;
  cache_misses += s.cache_misses;
  nodes_reused += s.nodes_reused;
  tiled_prunes += s.tiled_prunes;
  tile_prefilter_hits += s.tile_prefilter_hits;
  pairs_batched += s.pairs_batched;
}

void tally::fail(const std::string& why) {
  ++attempted;
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

namespace {

constexpr double kYieldPercentile = 0.05;

/// The witness audit's bit-for-bit form re-derivation, without its
/// Monte-Carlo spot check (a statistical test of the linearization, not of
/// the solver's arithmetic).
analysis::witness_options form_check_only() {
  analysis::witness_options o;
  o.mc_samples = 0;
  return o;
}

/// Uniform double in [0, 1) from 53 bits of a derived seed (portable, unlike
/// the standard distributions).
double unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

std::uint64_t assignment_hash(const timing::buffer_assignment& a,
                              std::uint64_t h) {
  h = core::fnv1a_u64(a.num_nodes(), h);
  for (tree::node_id n = 0; n < a.num_nodes(); ++n) {
    if (a.has_buffer(n)) {
      h = core::fnv1a_u64(n, h);
      h = core::fnv1a_u64(a.buffer(n), h);
    }
  }
  return h;
}

std::uint64_t wires_hash(const timing::wire_assignment& w, std::uint64_t h) {
  for (tree::node_id n = 0; n < w.num_nodes(); ++n) {
    if (w.width(n) != 0) {
      h = core::fnv1a_u64(n, h);
      h = core::fnv1a_u64(w.width(n), h);
    }
  }
  return h;
}

/// Everything a statistical result claims: root RAT form, buffers, widths.
std::uint64_t result_hash(const core::stat_result& r) {
  std::uint64_t h = core::fnv1a_u64(core::form_hash(r.root_rat), core::fnv1a_seed);
  h = core::fnv1a_u64(r.num_buffers, h);
  h = assignment_hash(r.assignment, h);
  return wires_hash(r.wires, h);
}

std::uint64_t result_hash(const core::det_result& r) {
  std::uint64_t h = core::fnv1a_f64(r.root_rat_ps, core::fnv1a_seed);
  h = core::fnv1a_u64(r.num_buffers, h);
  h = assignment_hash(r.assignment, h);
  return wires_hash(r.wires, h);
}

bool finite_result(const core::stat_result& r) {
  if (!std::isfinite(r.root_rat.nominal())) return false;
  for (const auto& t : r.root_rat.terms()) {
    if (!std::isfinite(t.coeff)) return false;
  }
  return true;
}

/// Runs `f` inside a span and adds its wall time to `*acc` (when given).
template <class F>
decltype(auto) timed(tracer& tr, const char* name, std::uint64_t request,
                     double* acc, F&& f) {
  scoped_span span(tr, name, request);
  const auto t0 = bench_clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    f();
    if (acc != nullptr) *acc += seconds_between(t0, bench_clock::now());
  } else {
    auto out = f();
    if (acc != nullptr) *acc += seconds_between(t0, bench_clock::now());
    return out;
  }
}

/// Shared base: the experiment configuration every workload derives its
/// options from, with budgets re-characterized in setup.
class base_workload : public workload {
 protected:
  explicit base_workload(const run_context& ctx) : ctx_(ctx) {}

  tracer& tr() { return *ctx_.trace; }

  /// The device characterization flow of bench::calibrated_budgets, run
  /// (not cached) so setup pays for it every time.
  void characterize(setup_times& times) {
    cfg_.budgets = timed(tr(), "device.characterize_buffer", 0,
                         &times.characterize_s, [] {
      const device::transistor_model model{device::transistor_model_config{},
                                           timing::standard_library()[0]};
      device::characterization_config cc;
      cc.samples = 4000;
      cc.leff_sigma_frac = 0.05;
      const auto fit = device::characterize_buffer(model, cc);
      layout::class_budget per_class{fit.cap_sigma_pf / fit.cap_nominal_pf,
                                     fit.delay_sigma_ps / fit.delay_nominal_ps};
      return layout::variation_budgets{per_class, per_class, per_class};
    });
  }

  /// The 2P WID 95%-yield options every statistical workload starts from.
  core::stat_options two_param_options() const {
    core::stat_options o =
        bench::make_stat_options(cfg_, core::pruning_kind::two_param);
    if (ctx_.fault_drill) o.check_nonfinite = true;
    return o;
  }

  layout::process_model_config model_config() const {
    return bench::make_model_config(cfg_, layout::wid_mode(),
                                    layout::spatial_profile::heterogeneous);
  }

  /// Table-1 spec `index` (cyclic over p1..r5) with its seed drawn from
  /// stream `stream` of the run seed.
  tree::benchmark_spec table1_spec(std::size_t index,
                                   std::uint64_t stream) const {
    const auto& suite = tree::paper_benchmarks();
    tree::benchmark_spec spec = suite[index % suite.size()];
    spec.seed = stats::derive_seed(ctx_.seed, stream);
    return spec;
  }

  run_context ctx_;
  bench::experiment_config cfg_;
};

// ---------------------------------------------------------------------------
// yield_batch: a Table-1 mix solved as one journaled batch.
// ---------------------------------------------------------------------------

class yield_batch final : public base_workload {
 public:
  // Sixteen p1..r5 cycles: the p90 over per-net medians then has eleven
  // nets beyond it and falls inside the group of sixteen seeded r5 nets.
  static constexpr std::size_t kNets = 112;

  explicit yield_batch(const run_context& ctx)
      : base_workload(ctx), solver_(solver_config(ctx)) {}

  std::size_t threads_used() const override { return ctx_.threads; }

  void setup(setup_times& times) override {
    characterize(times);
    nets_.reserve(kNets);  // jobs_ point into nets_
    jobs_.assign(kNets, core::batch_job{});
    for (std::size_t i = 0; i < kNets; ++i) {
      const tree::benchmark_spec spec = table1_spec(i, i);
      nets_.push_back(timed(tr(), "tree.build_benchmark", 0, &times.build_s,
                            [&] { return tree::build_benchmark(spec); }));
      jobs_[i].tree = &nets_[i];
      jobs_[i].die = layout::square_die(spec.die_side_um);
      jobs_[i].model = model_config();
      jobs_[i].options = two_param_options();
    }
  }

  void reference(reference_result& ref, tally& t) override {
    ref_hashes_.assign(kNets, 0);  // 0: the reference solve failed
    auto out = solve(ref_journal(), false, 0);
    if (!out.ok()) {
      for (std::size_t i = 0; i < kNets; ++i) t.fail(out.error().message());
      return;
    }
    for (std::size_t i = 0; i < kNets; ++i) {
      const auto& slot = out->slots[i];
      if (!slot.ok() || !finite_result(slot->result)) {
        t.fail(slot.ok() ? "net " + std::to_string(i) + ": non-finite root RAT"
                         : slot.error().message());
        continue;
      }
      t.ok();
      ref_hashes_[i] = result_hash(slot->result);
      ref.digest = core::fnv1a_u64(ref_hashes_[i], ref.digest);
      ref.delay95_sum_ps -= stats::percentile(
          slot->result.root_rat, slot->model.space(), kYieldPercentile);
      ++ref.delay95_count;
      ref.counts.add(slot->result.stats);
    }
    ref.counts.journal_bytes = out->journal_bytes;
    ref.counts.journal_checkpoints = out->checkpoints;
    ref_slots_ = std::move(out->slots);
  }

  void request(std::uint64_t id, request_result& res, tally& t) override {
    auto out = solve(ctx_.work_dir + "/yield_batch_loop.vjl", false, id);
    if (!out.ok()) {
      for (std::size_t i = 0; i < kNets; ++i) t.fail(out.error().message());
      return;
    }
    for (std::size_t i = 0; i < kNets; ++i) {
      const auto& slot = out->slots[i];
      if (!slot.ok() || !finite_result(slot->result)) {
        t.fail(slot.ok() ? "non-finite root RAT" : slot.error().message());
        continue;
      }
      t.ok();
      const double s = slot->result.stats.wall_seconds;
      res.latencies_ms.push_back(1e3 * s);
      res.inputs.push_back(i);
      res.solver_busy_s += s;
      res.size_time.emplace_back(static_cast<double>(nets_[i].num_sinks()), s);
    }
  }

  void check(check_log& log) override {
    // Independent re-derivation of one net of every size class.
    std::size_t audited = 0;
    std::size_t matched = 0;
    std::string first_bad;
    const std::size_t sizes =
        std::min(tree::paper_benchmarks().size(), ref_slots_.size());
    for (std::size_t i = 0; i < sizes; ++i) {
      if (!ref_slots_[i].ok()) continue;
      ++audited;
      const auto report = timed(tr(), "analysis.audit_solution", 0, nullptr,
                                [&] {
        return analysis::audit_solution(jobs_[i], *ref_slots_[i],
                                        form_check_only());
      });
      if (report.checked && report.match) {
        ++matched;
      } else if (first_bad.empty()) {
        first_bad = "net " + std::to_string(i) + ": " + report.mismatch +
                    report.skip_reason;
      }
    }
    log.record("audit_root_rat", matched == audited,
               std::to_string(matched) + "/" + std::to_string(audited) +
                   " nets re-derived bit for bit" +
                   (first_bad.empty() ? "" : "; " + first_bad));

    // Resuming the complete reference journal restores every slot.
    auto resumed = solve(ref_journal(), true, 0);
    std::size_t same = 0;
    std::string detail;
    if (!resumed.ok()) {
      detail = resumed.error().message();
    } else {
      for (std::size_t i = 0; i < kNets; ++i) {
        const auto& slot = resumed->slots[i];
        const bool was_ok = ref_hashes_[i] != 0;
        if (slot.ok() == was_ok &&
            (!was_ok || result_hash(slot->result) == ref_hashes_[i])) {
          ++same;
        }
      }
      detail = std::to_string(resumed->restored) + " restored, " +
               std::to_string(resumed->solved) + " re-solved, " +
               std::to_string(same) + "/" + std::to_string(kNets) +
               " slots equal to the reference";
    }
    log.record("journal_resume",
               resumed.ok() && resumed->restored == kNets &&
                   resumed->solved == 0 && same == kNets,
               detail);
  }

  void extras(metric_map& layers) override {
    // journal.commit_s: journaled minus plain batch wall, medians of three.
    std::vector<double> plain;
    std::vector<double> journaled;
    for (int k = 0; k < 3; ++k) {
      const auto t0 = bench_clock::now();
      timed(tr(), "core.batch_solve_outcomes", 0, nullptr,
            [&] { return solver_.solve_outcomes(jobs_); });
      plain.push_back(seconds_between(t0, bench_clock::now()));
      const auto t1 = bench_clock::now();
      solve(ctx_.work_dir + "/yield_batch_extra.vjl", false, 0);
      journaled.push_back(seconds_between(t1, bench_clock::now()));
    }
    layers["journal.commit_s"] = median(journaled) - median(plain);
  }

 private:
  static core::batch_solver::config solver_config(const run_context& ctx) {
    core::batch_solver::config c;
    c.num_threads = ctx.threads;
    return c;
  }

  std::string ref_journal() const {
    return ctx_.work_dir + "/yield_batch_ref.vjl";
  }

  core::solve_outcome<core::journaled_batch> solve(const std::string& path,
                                                   bool resume,
                                                   std::uint64_t request) {
    core::batch_journal_options jopts;
    jopts.path = path;
    jopts.checkpoint_every_jobs = 16;  // vabi_cli's --checkpoint-every default
    jopts.resume = resume;
    return timed(tr(), "core.batch_solve_journaled", request, nullptr,
                 [&] { return solver_.solve_journaled(jobs_, jopts); });
  }

  core::batch_solver solver_;
  std::vector<tree::routing_tree> nets_;
  std::vector<core::batch_job> jobs_;
  std::vector<core::solve_outcome<core::batch_result>> ref_slots_;
  std::vector<std::uint64_t> ref_hashes_;
};

// ---------------------------------------------------------------------------
// confidence_net: single-net latency under the 90% confidence rule.
// ---------------------------------------------------------------------------

class confidence_net final : public base_workload {
 public:
  // Large enough that the pool's mean cost varies little from seed to seed,
  // and that ten inputs lie beyond the p90 of per-input latency.
  static constexpr std::size_t kPool = 100;

  explicit confidence_net(const run_context& ctx)
      : base_workload(ctx), pool_(ctx.threads) {}

  std::size_t threads_used() const override { return ctx_.threads; }

  void setup(setup_times& times) override {
    characterize(times);
    for (std::size_t i = 0; i < kPool; ++i) {
      // Alternate the p1 and r1 shapes (index 0 and 2 of Table 1).
      const tree::benchmark_spec spec = table1_spec(2 * (i % 2), 1000 + i);
      die_side_um_ = spec.die_side_um;
      nets_.push_back(timed(tr(), "tree.build_benchmark", 0, &times.build_s,
                            [&] { return tree::build_benchmark(spec); }));
    }
    options_ = two_param_options();
    options_.two_param.p_load = 0.9;
    options_.two_param.p_rat = 0.9;
    options_.wire_width_multipliers = {0.7, 1.0, 1.4};
    requests_.assign(kPool, 0);
  }

  void reference(reference_result& ref, tally& t) override {
    refs_.clear();
    for (std::size_t i = 0; i < kPool; ++i) {
      layout::process_model model{die(), model_config()};
      auto out = solve_parallel(i, model, 0);
      if (!out.ok() || !finite_result(*out)) {
        t.fail(out.ok() ? "non-finite root RAT" : out.error().message());
        refs_.emplace_back();
        continue;
      }
      t.ok();
      const std::uint64_t h = result_hash(*out);
      ref.digest = core::fnv1a_u64(h, ref.digest);
      ref.delay95_sum_ps -=
          stats::percentile(out->root_rat, model.space(), kYieldPercentile);
      ++ref.delay95_count;
      ref.counts.add(out->stats);
      refs_.push_back(reference_solve{std::move(*out), model.space().size(), h});
    }
  }

  // parallel.busy_frac comes from extras(), so no solver_busy_s here.
  void request(std::uint64_t id, request_result& res, tally& t) override {
    const std::size_t i = id % kPool;
    res.inputs.push_back(i);
    const auto t0 = bench_clock::now();
    auto model = timed(tr(), "layout.process_model", id, nullptr, [&] {
      return std::make_unique<layout::process_model>(die(), model_config());
    });
    auto out = solve_parallel(i, *model, id);
    const double s = seconds_between(t0, bench_clock::now());
    ++requests_[i];
    loop_s_ += s;
    if (!out.ok() || !finite_result(*out)) {
      t.fail(out.ok() ? "non-finite root RAT" : out.error().message());
      return;
    }
    t.ok();
  }

  void check(check_log& log) override {
    refs_.resize(kPool);  // a reference pass that threw left some unset
    std::size_t audited = 0;
    std::size_t matched = 0;
    std::string first_bad;
    for (std::size_t i = 0; i < kPool; i += kPool / 4) {
      if (!refs_[i].has_value()) continue;
      ++audited;
      const auto report = timed(tr(), "analysis.audit_solution", 0, nullptr,
                                [&] {
        return analysis::audit_solution(nets_[i], options_, model_config(),
                                        die(), refs_[i]->num_sources,
                                        refs_[i]->result, form_check_only());
      });
      if (report.checked && report.match) {
        ++matched;
      } else if (first_bad.empty()) {
        first_bad = "net " + std::to_string(i) + ": " + report.mismatch +
                    report.skip_reason;
      }
    }
    log.record("audit_root_rat", matched == audited,
               std::to_string(matched) + "/" + std::to_string(audited) +
                   " nets re-derived bit for bit" +
                   (first_bad.empty() ? "" : "; " + first_bad));

    if (!refs_[0].has_value()) {
      log.record("parallel_equals_serial", true,
                 "skipped: the reference solve of net 0 failed");
      return;
    }
    const auto serial = solve_serial(0);
    const bool same = serial.has_value() && *serial == refs_[0]->hash;
    log.record("parallel_equals_serial", same,
               same ? "net 0 hashes equal across 1 and " +
                          std::to_string(ctx_.threads) + " threads"
                    : "net 0: parallel and serial results differ");
  }

  void extras(metric_map& layers) override {
    // Intra-net busy fraction: the serial solve time of each requested net
    // over the thread-seconds the parallel requests occupied.
    double serial_sum = 0.0;
    for (std::size_t i = 0; i < kPool; ++i) {
      if (requests_[i] == 0) continue;
      const auto t0 = bench_clock::now();
      solve_serial(i);
      serial_sum += static_cast<double>(requests_[i]) *
                    seconds_between(t0, bench_clock::now());
    }
    layers["parallel.busy_frac"] =
        loop_s_ > 0.0 ? serial_sum / (static_cast<double>(ctx_.threads) * loop_s_)
                      : 0.0;
  }

 private:
  struct reference_solve {
    core::stat_result result;
    std::size_t num_sources = 0;
    std::uint64_t hash = 0;
  };

  layout::bbox die() const { return layout::square_die(die_side_um_); }

  core::solve_outcome<core::stat_result> solve_parallel(
      std::size_t i, layout::process_model& model, std::uint64_t request) {
    return timed(tr(), "core.solve_parallel_insertion", request, nullptr, [&] {
      return core::solve_parallel_insertion(nets_[i], model, options_, pool_);
    });
  }

  std::optional<std::uint64_t> solve_serial(std::size_t i) {
    layout::process_model model{die(), model_config()};
    auto out = timed(tr(), "core.solve_statistical_insertion", 0, nullptr, [&] {
      return core::solve_statistical_insertion(nets_[i], model, options_);
    });
    if (!out.ok()) return std::nullopt;
    return result_hash(*out);
  }

  core::thread_pool pool_;
  std::vector<tree::routing_tree> nets_;
  double die_side_um_ = 0.0;
  core::stat_options options_;
  std::vector<std::optional<reference_solve>> refs_;
  std::vector<std::uint64_t> requests_;  ///< loop requests per pool net
  double loop_s_ = 0.0;                  ///< summed request wall
};

// ---------------------------------------------------------------------------
// eco_session: edit + warm re-solve on a 10k-sink VPR-style net.
// ---------------------------------------------------------------------------

class eco_session final : public base_workload {
 public:
  static constexpr std::size_t kSinks = 10'000;
  static constexpr std::size_t kReferenceEdits = 16;
  static constexpr std::size_t kCheckedEdits = 4;
  static constexpr std::size_t kEditsPerRound = 8;
  static constexpr double kDiePadUm = 100.0;

  explicit eco_session(const run_context& ctx)
      : base_workload(ctx),
        pool_(std::max<std::size_t>(1, ctx.threads - 1)),
        clients_(ctx.threads) {}

  std::size_t threads_used() const override { return clients_.size(); }

  void setup(setup_times& times) override {
    characterize(times);
    tree::vpr_net_options vo;
    vo.num_sinks = kSinks;
    // One fixed design (the net of bench_fig5's ECO section); the run seed
    // draws the edit streams. A different 10k-sink net per seed would add a
    // design-to-design spread larger than the edit-path cost measured here.
    vo.seed = 77;
    const tree::routing_tree net =
        timed(tr(), "tree.make_vpr_style_net", 0, &times.build_s,
              [&] { return tree::make_vpr_style_net(vo); });
    die_ = net.bounding_box();
    die_.expand({die_.lo.x - kDiePadUm, die_.lo.y - kDiePadUm});
    die_.expand({die_.hi.x + kDiePadUm, die_.hi.y + kDiePadUm});
    options_ = two_param_options();
    options_.wire = {vo.wire_res_per_um, vo.wire_cap_per_um};

    // Edits are drawn relative to the original net, so the edited net stays
    // statistically the same however long the loop runs.
    sinks_ = net.sinks();
    original_ = net.nodes();

    for (std::size_t k = 0; k < clients_.size(); ++k) {
      client& c = clients_[k];
      c.tr = k == 0 ? &tr() : &c.untraced;
      c.stream = stats::derive_seed(ctx_.seed ^ 0xEC0ull, k);
      c.net = net;
    }
    each_client([&](client& c) {
      c.model = timed(*c.tr, "layout.process_model", 0,
                      &c == &clients_[0] ? &times.model_s : nullptr, [&] {
        return std::make_unique<layout::process_model>(die_, model_config());
      });
      c.session = std::make_unique<core::solve_session>(*c.model);
      c.first_ok = timed(*c.tr, "core.session_solve", 0, nullptr,
                         [&] { return c.session->solve(c.net, options_); })
                       .ok();
    });
  }

  void reference(reference_result& ref, tally& t) override {
    for (const client& c : clients_) {
      if (!c.first_ok) t.fail("first session solve failed");
    }
    // Single-edit variants of the original net: each edit is undone after
    // its solve, so the quality figure does not drift with the stream. Every
    // client warms up this way; client 0's solves are the recorded ones.
    each_client([&](client& c) {
      for (std::size_t k = 0; k < kReferenceEdits; ++k) {
        auto out = edit_and_solve(c, 0);
        c.net.apply_edit(undo(make_edit(c, c.next_edit - 1)));
        if (&c != &clients_[0]) continue;
        if (!out.ok() || !finite_result(*out)) {
          t.fail(out.ok() ? "non-finite root RAT" : out.error().message());
          continue;
        }
        t.ok();
        ref.digest = core::fnv1a_u64(result_hash(*out), ref.digest);
        ref.delay95_sum_ps -= stats::percentile(
            out->root_rat, c.model->space(), kYieldPercentile);
        ++ref.delay95_count;
        ref.counts.add(out->stats);
        ref.counts.nodes_solved_over += c.net.num_nodes();
      }
    });
  }

  /// One request is a round: every client (one per thread, each with its
  /// own net copy and session) applies kEditsPerRound edits, each followed
  /// by a warm solve, and the round ends when the last client does. A
  /// latency sample is one edit and its solve. Several clients, because a
  /// lone thread runs at the speed of whichever core it lands on, and on a
  /// shared machine that differs by tens of percent for seconds at a time.
  void request(std::uint64_t id, request_result& res, tally& t) override {
    each_client([&](client& c) {
      c.round = {};
      const auto start = bench_clock::now();
      for (std::size_t k = 0; k < kEditsPerRound; ++k) {
        const auto t0 = bench_clock::now();
        auto out = edit_and_solve(c, id);
        c.round.latencies_ms.push_back(
            1e3 * seconds_between(t0, bench_clock::now()));
        c.round.busy_s += c.last_solve_s;
        if (!out.ok() || !finite_result(*out)) {
          c.round.errors.push_back(out.ok() ? "non-finite root RAT"
                                            : out.error().message());
          continue;
        }
        ++c.round.solved;
      }
      c.round.wall_s = seconds_between(start, bench_clock::now());
    });
    res.solves_per_s = 0.0;
    for (const client& c : clients_) {
      *res.solves_per_s +=
          static_cast<double>(c.round.solved) / c.round.wall_s;
      res.latencies_ms.insert(res.latencies_ms.end(),
                              c.round.latencies_ms.begin(),
                              c.round.latencies_ms.end());
      res.solver_busy_s += c.round.busy_s;
      for (std::size_t k = 0; k < c.round.solved; ++k) t.ok();
      for (const auto& why : c.round.errors) t.fail(why);
    }
  }

  void check(check_log& log) override {
    client& c = clients_[0];
    std::size_t same = 0;
    for (std::size_t k = 0; k < kCheckedEdits; ++k) {
      auto warm = edit_and_solve(c, 0);
      const auto t0 = bench_clock::now();
      auto cold = timed(tr(), "core.session_solve_cold", 0, nullptr,
                        [&] { return c.session->solve_cold(c.net, options_); });
      cold_ms_.push_back(1e3 * seconds_between(t0, bench_clock::now()));
      if (warm.ok() && cold.ok() &&
          core::form_hash(warm->root_rat) == core::form_hash(cold->root_rat)) {
        ++same;
      }
    }
    log.record("warm_equals_cold", same == kCheckedEdits,
               std::to_string(same) + "/" + std::to_string(kCheckedEdits) +
                   " edits: warm and cold root RAT form hashes equal");
  }

  void extras(metric_map& layers) override {
    std::vector<double> edit_us;
    for (const client& c : clients_) {
      edit_us.insert(edit_us.end(), c.edit_us.begin(), c.edit_us.end());
    }
    layers["tree.edit_us"] = median(edit_us);
    layers["cache.cold_ms"] = median(cold_ms_);
  }

 private:
  /// One ECO client: its own copy of the net, process model, session and
  /// edit stream. Touched only by the thread running its part of a round.
  struct client {
    tracer* tr = nullptr;  ///< the run's tracer for client 0, else `untraced`
    tracer untraced;       ///< never enabled: the tracer is single-threaded
    std::uint64_t stream = 0;
    tree::routing_tree net;
    // The session borrows the model: declared after it, destroyed before it.
    std::unique_ptr<layout::process_model> model;
    std::unique_ptr<core::solve_session> session;
    std::size_t next_edit = 0;
    bool first_ok = false;
    double last_solve_s = 0.0;
    std::vector<double> edit_us;
    struct {
      std::vector<double> latencies_ms;
      double busy_s = 0.0;
      double wall_s = 0.0;
      std::size_t solved = 0;
      std::vector<std::string> errors;
    } round;
  };

  /// Runs `f` for every client, client 0 on this thread (the only one that
  /// records spans) and the others on the pool; returns when all are done
  /// and rethrows the first exception any of them threw.
  template <class F>
  void each_client(F&& f) {
    std::vector<std::string> errors(clients_.size());
    std::latch done{static_cast<std::ptrdiff_t>(clients_.size() - 1)};
    for (std::size_t k = 1; k < clients_.size(); ++k) {
      pool_.submit([&, k] {
        try {
          f(clients_[k]);
        } catch (const std::exception& e) {
          errors[k] = e.what();
        }
        done.count_down();
      });
    }
    try {
      f(clients_[0]);
    } catch (const std::exception& e) {
      errors[0] = e.what();
    }
    done.wait();
    for (const auto& e : errors) {
      if (!e.empty()) throw std::runtime_error(e);
    }
  }

  /// Edit k of a client's seeded stream: a small perturbation of one
  /// element of the original net (a moved sink keeps its wire length plus
  /// the move).
  tree::tree_edit make_edit(const client& c, std::size_t k) const {
    const std::uint64_t r = stats::derive_seed(c.stream, k);
    const auto draw = [&](std::uint64_t stream) {
      return 2.0 * unit(stats::derive_seed(r, stream)) - 1.0;  // [-1, 1)
    };
    const tree::node_id sink =
        sinks_[stats::derive_seed(r, 1) % sinks_.size()];
    const tree::tree_node& orig = original_[sink];
    switch (r % 3) {
      case 0: {
        const double dx = 20.0 * draw(2);
        const double dy = 20.0 * draw(3);
        const layout::point at{
            std::clamp(orig.location.x + dx, die_.lo.x, die_.hi.x),
            std::clamp(orig.location.y + dy, die_.lo.y, die_.hi.y)};
        return tree::tree_edit::move_sink(
            sink, at, std::max(0.0, orig.parent_wire_um + dx + dy));
      }
      case 1:
        return tree::tree_edit::retarget_rat(sink,
                                             orig.sink_rat_ps + 10.0 * draw(2));
      default: {
        const auto node = static_cast<tree::node_id>(
            1 + stats::derive_seed(r, 4) % (original_.size() - 1));
        return tree::tree_edit::resize_wire(
            node, original_[node].parent_wire_um * (1.0 + 0.05 * draw(2)));
      }
    }
  }

  /// The edit that restores what `edit` changed to the original net.
  tree::tree_edit undo(const tree::tree_edit& edit) const {
    const tree::tree_node& orig = original_[edit.node];
    switch (edit.op) {
      case tree::tree_edit::op_kind::move_sink:
        return tree::tree_edit::move_sink(edit.node, orig.location,
                                          orig.parent_wire_um);
      case tree::tree_edit::op_kind::retarget_rat:
        return tree::tree_edit::retarget_rat(edit.node, orig.sink_rat_ps);
      default:
        return tree::tree_edit::resize_wire(edit.node, orig.parent_wire_um);
    }
  }

  core::solve_outcome<core::stat_result> edit_and_solve(client& c,
                                                        std::uint64_t request) {
    const tree::tree_edit edit = make_edit(c, c.next_edit++);
    const auto t0 = bench_clock::now();
    timed(*c.tr, "tree.apply_edit", request, nullptr,
          [&] { c.net.apply_edit(edit); });
    const auto t1 = bench_clock::now();
    c.edit_us.push_back(1e6 * seconds_between(t0, t1));
    auto out = timed(*c.tr, "core.session_solve", request, nullptr,
                     [&] { return c.session->solve(c.net, options_); });
    c.last_solve_s = seconds_between(t1, bench_clock::now());
    return out;
  }

  core::thread_pool pool_;
  std::vector<client> clients_;
  layout::bbox die_;
  core::stat_options options_;
  std::vector<tree::node_id> sinks_;
  std::vector<tree::tree_node> original_;
  std::vector<double> cold_ms_;
};

// ---------------------------------------------------------------------------
// library_chain: deterministic design with a 64-type library (Li-Shi).
// ---------------------------------------------------------------------------

class library_chain final : public base_workload {
 public:
  static constexpr std::size_t kLibraryTypes = 64;

  explicit library_chain(const run_context& ctx)
      : base_workload(ctx), pool_(ctx.threads), clients_(ctx.threads) {}

  std::size_t threads_used() const override { return ctx_.threads; }

  void setup(setup_times& times) override {
    characterize(times);
    const auto library = timed(tr(), "timing.make_parameterized_library", 0,
                               nullptr, [] {
      return timing::make_parameterized_library(kLibraryTypes);
    });
    options_ = core::det_options{cfg_.wire, library, cfg_.driver_res_ohm};
    tree::chain_options chain;
    chain.length_um = 40000.0;
    chain.segments = 4000;
    inputs_.push_back(timed(tr(), "tree.make_chain", 0, &times.build_s,
                            [&] { return tree::make_chain(chain); }));
    for (std::size_t i = 0; i < tree::paper_benchmarks().size(); ++i) {
      const tree::benchmark_spec spec = table1_spec(i, 3000 + i);
      inputs_.push_back(timed(tr(), "tree.build_benchmark", 0, &times.build_s,
                              [&] { return tree::build_benchmark(spec); }));
    }
  }

  void reference(reference_result& ref, tally& t) override {
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      auto out = solve(i, options_, 0);
      if (!out.ok() || !std::isfinite(out->root_rat_ps)) {
        t.fail(out.ok() ? "non-finite root RAT" : out.error().message());
        continue;
      }
      t.ok();
      ref.digest = core::fnv1a_u64(result_hash(*out), ref.digest);
      ref.delay95_sum_ps -= out->root_rat_ps;  // NOM: the nominal delay
      ++ref.delay95_count;
      ref.counts.add(out->stats);
    }
  }

  /// One request is a wave: every client (one per thread) designs all
  /// inputs once, and the wave ends when the last client does. A latency
  /// sample is one client's round. Rounds rather than single solves,
  /// because the chain and the Table-1 nets differ in cost by 20x and
  /// per-solve percentiles of the mix would sit on the boundary between two
  /// inputs' costs. Several clients, because a single thread inherits the
  /// speed of whichever core it lands on for seconds at a time.
  void request(std::uint64_t id, request_result& res, tally& t) override {
    scoped_span span(tr(), "core.solve_van_ginneken.wave", id);
    std::latch done{static_cast<std::ptrdiff_t>(clients_.size())};
    for (client& c : clients_) {
      c = client{};
      pool_.submit([this, &c, &done] {
        const auto t0 = bench_clock::now();
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
          const auto t1 = bench_clock::now();
          const auto out = core::solve_van_ginneken(inputs_[i], options_);
          const double s = seconds_between(t1, bench_clock::now());
          c.busy_s += s;
          if (!out.ok() || !std::isfinite(out->root_rat_ps)) {
            c.errors.push_back(out.ok() ? "non-finite root RAT"
                                        : out.error().message());
            continue;
          }
          ++c.solved;
          c.size_time.emplace_back(
              static_cast<double>(inputs_[i].num_sinks()), s);
        }
        c.round_ms = 1e3 * seconds_between(t0, bench_clock::now());
        done.count_down();
      });
    }
    done.wait();
    for (const client& c : clients_) {
      res.latencies_ms.push_back(c.round_ms);
      res.solver_busy_s += c.busy_s;
      res.size_time.insert(res.size_time.end(), c.size_time.begin(),
                           c.size_time.end());
      for (std::size_t k = 0; k < c.solved; ++k) t.ok();
      for (const auto& why : c.errors) t.fail(why);
    }
  }

  void check(check_log& log) override {
    // The frontier and the classic scan must pick the same design.
    core::det_options frontier = options_;
    frontier.li_shi = core::li_shi_mode::always;
    core::det_options scan = options_;
    scan.li_shi = core::li_shi_mode::never;
    const auto a = solve(0, frontier, 0);
    const auto b = solve(0, scan, 0);
    const bool same =
        a.ok() && b.ok() && result_hash(*a) == result_hash(*b);
    log.record("li_shi_equals_scan", same,
               same ? "40 mm chain: frontier and scan results equal"
                    : "40 mm chain: frontier and scan results differ");
  }

 private:
  core::solve_outcome<core::det_result> solve(std::size_t i,
                                              const core::det_options& o,
                                              std::uint64_t request) {
    return timed(tr(), "core.solve_van_ginneken", request, nullptr,
                 [&] { return core::solve_van_ginneken(inputs_[i], o); });
  }

  /// What one client's round produced; written only by its pool task.
  struct client {
    double round_ms = 0.0;
    double busy_s = 0.0;
    std::size_t solved = 0;
    std::vector<std::string> errors;
    std::vector<std::pair<double, double>> size_time;
  };

  core::thread_pool pool_;
  std::vector<client> clients_;
  core::det_options options_;
  std::vector<tree::routing_tree> inputs_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "yield_batch", "confidence_net", "eco_session", "library_chain"};
  return names;
}

std::unique_ptr<workload> make_workload(const std::string& name,
                                        const run_context& ctx) {
  if (name == "yield_batch") return std::make_unique<yield_batch>(ctx);
  if (name == "confidence_net") return std::make_unique<confidence_net>(ctx);
  if (name == "eco_session") return std::make_unique<eco_session>(ctx);
  if (name == "library_chain") return std::make_unique<library_chain>(ctx);
  return nullptr;
}

}  // namespace perfbench
