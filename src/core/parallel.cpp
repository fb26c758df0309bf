#include "core/parallel.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <latch>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>

#include "core/dp_engine.hpp"
#include "core/fingerprint.hpp"
#include "core/journal.hpp"
#include "stats/rng.hpp"
#include "testing/fault_injection.hpp"

namespace vabi::core {

// ---------------------------------------------------------------------------
// Work-stealing thread pool.
// ---------------------------------------------------------------------------

namespace {

/// Which pool (and worker slot) the current thread belongs to.
thread_local void* tl_pool = nullptr;
thread_local int tl_worker = -1;

}  // namespace

struct thread_pool::impl {
  struct worker_queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  // unique_ptr: worker_queue holds a mutex and must not relocate.
  std::vector<std::unique_ptr<worker_queue>> queues;
  std::mutex inject_mu;
  std::deque<std::function<void()>> injected;
  std::condition_variable cv;
  /// Tasks submitted but not yet claimed by a worker. Sleepers poll this with
  /// a short timed wait, so a notify racing a sleeper going down cannot stall
  /// the pool.
  std::atomic<std::size_t> ready{0};
  /// Tasks claimed and currently executing. The shutdown condition requires
  /// both counters to be zero: a running task may still submit children (DAG
  /// scheduling), so "no queued tasks" alone is not "drained" -- this is what
  /// makes destroying the pool safe even when a wave was cancelled and its
  /// tail of tasks is still winding down.
  std::atomic<std::size_t> active{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  bool pop_local(int idx, std::function<void()>& task) {
    auto& q = *queues[idx];
    std::lock_guard lk(q.mu);
    if (q.tasks.empty()) return false;
    task = std::move(q.tasks.back());  // LIFO: depth-first, cache-warm
    q.tasks.pop_back();
    return true;
  }

  bool pop_injected(std::function<void()>& task) {
    std::lock_guard lk(inject_mu);
    if (injected.empty()) return false;
    task = std::move(injected.front());
    injected.pop_front();
    return true;
  }

  bool steal(int idx, std::function<void()>& task) {
    const std::size_t n = queues.size();
    for (std::size_t off = 1; off < n; ++off) {
      auto& q = *queues[(static_cast<std::size_t>(idx) + off) % n];
      std::lock_guard lk(q.mu);
      if (q.tasks.empty()) continue;
      task = std::move(q.tasks.front());  // FIFO: the victim's oldest task
      q.tasks.pop_front();
      return true;
    }
    return false;
  }

  void worker_main(int idx) {
    tl_pool = this;
    tl_worker = idx;
    std::function<void()> task;
    for (;;) {
      if (pop_local(idx, task) || pop_injected(task) || steal(idx, task)) {
        // active must rise before ready falls: a shutdown check between the
        // two RMWs must never observe "nothing queued, nothing running"
        // while this task is in flight.
        active.fetch_add(1, std::memory_order_relaxed);
        ready.fetch_sub(1, std::memory_order_relaxed);
        task();
        task = nullptr;
        active.fetch_sub(1, std::memory_order_release);
        continue;
      }
      std::unique_lock lk(inject_mu);
      if (stop.load(std::memory_order_relaxed) &&
          ready.load(std::memory_order_relaxed) == 0 &&
          active.load(std::memory_order_acquire) == 0) {
        return;
      }
      // While stop is set but a task is still active the predicate stays
      // false: the worker naps instead of spinning, and wakes on either new
      // work (the running task submitted children) or the 1ms poll seeing
      // the drain complete.
      cv.wait_for(lk, std::chrono::milliseconds(1), [&] {
        return ready.load(std::memory_order_relaxed) > 0 ||
               (stop.load(std::memory_order_relaxed) &&
                active.load(std::memory_order_relaxed) == 0);
      });
    }
  }
};

thread_pool::thread_pool(std::size_t num_threads) : impl_(new impl) {
  const std::size_t n =
      num_threads == 0 ? default_thread_count() : num_threads;
  impl_->queues.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    impl_->queues.push_back(std::make_unique<impl::worker_queue>());
  }
  impl_->threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    impl_->threads.emplace_back(
        [im = impl_.get(), i] { im->worker_main(static_cast<int>(i)); });
  }
}

thread_pool::~thread_pool() {
  // Workers keep claiming tasks until the queues are empty AND nothing is
  // running (a running task may submit more work), so join() below is a full
  // drain regardless of how the last wave ended.
  impl_->stop.store(true, std::memory_order_relaxed);
  impl_->cv.notify_all();
  for (auto& t : impl_->threads) t.join();
}

std::size_t thread_pool::size() const { return impl_->queues.size(); }

void thread_pool::submit(std::function<void()> task) {
  impl* im = impl_.get();
  if (tl_pool == im && tl_worker >= 0) {
    auto& q = *im->queues[tl_worker];
    std::lock_guard lk(q.mu);
    q.tasks.push_back(std::move(task));
  } else {
    std::lock_guard lk(im->inject_mu);
    im->injected.push_back(std::move(task));
  }
  im->ready.fetch_add(1, std::memory_order_relaxed);
  im->cv.notify_one();
}

int thread_pool::current_worker() noexcept {
  return tl_pool != nullptr ? tl_worker : -1;
}

std::size_t thread_pool::default_thread_count() {
  if (const char* v = std::getenv("VABI_THREADS")) {
    const unsigned long n = std::strtoul(v, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

// ---------------------------------------------------------------------------
// Intra-tree parallel DP.
// ---------------------------------------------------------------------------

device_cache::device_cache(const tree::routing_tree& tree,
                           layout::process_model& model,
                           const timing::buffer_library& library)
    : lib_size_(library.size()) {
  devices_.resize(tree.num_nodes() * lib_size_);
  // Postorder, skipping the source: exactly the order in which the serial
  // engine's add_buffered_candidates lazily characterizes, so the model
  // registers the same private random sources with the same ids.
  for (tree::node_id id : tree.postorder()) {
    const auto& n = tree.node(id);
    if (n.is_source()) continue;
    for (timing::buffer_index b = 0; b < lib_size_; ++b) {
      devices_[static_cast<std::size_t>(id) * lib_size_ + b] =
          detail::characterize_device(model, tree, id, library[b]);
    }
  }
}

namespace {

struct parallel_run {
  struct worker_state {
    decision_arena arena;
    detail::worker_arena mem;
    dp_stats dps;
    std::size_t published = 0;
    detail::li_shi_state li_shi;  ///< scratch is per worker; frontier shared
  };

  const tree::routing_tree& tree;
  const stat_options& options;
  const stats::variation_space& space;
  const timing::wire_menu menu;
  const device_cache& cache;
  thread_pool& pool;
  const cancel_token* cancel;
  /// Every attached node, in postorder: one task each.
  const std::vector<tree::node_id> order;

  std::vector<worker_state> states;
  std::vector<detail::node_list> lists;
  std::vector<std::atomic<std::uint32_t>> pending;
  detail::shared_budget budget;
  /// Li-Shi type frontier, built once and read-only afterwards -- safe to
  /// share across workers.
  buffer_frontier frontier;
  std::latch done{1};

  stat_result root_result;
  bool root_ok = false;
  std::mutex error_mu;
  std::exception_ptr error;

  /// The wall cap is anchored here, after `c` was characterized.
  parallel_run(const tree::routing_tree& t, const stat_options& o,
               const stats::variation_space& sp, const device_cache& c,
               thread_pool& p, const cancel_token* ct)
      : tree(t),
        options(o),
        space(sp),
        menu(timing::make_wire_menu(o.wire, o.wire_width_multipliers)),
        cache(c),
        pool(p),
        cancel(ct),
        order(t.postorder()),
        states(p.size()),
        lists(t.num_nodes()),
        pending(t.num_nodes()) {
    budget.t_start = detail::dp_clock::now();
    for (const tree::node_id id : order) {
      pending[id].store(
          static_cast<std::uint32_t>(tree.node(id).children.size()),
          std::memory_order_relaxed);
    }
    if (detail::li_shi_engaged(options)) {
      frontier = buffer_frontier{options.library};
      for (auto& st : states) st.li_shi.frontier = &frontier;
    }
  }

  detail::dp_worker make_worker(int w) {
    worker_state& st = states[w];
    return detail::dp_worker{
        tree,
        space,
        options,
        menu,
        [this](tree::node_id id, timing::buffer_index b) {
          return cache.get(id, b);
        },
        st.arena,
        st.mem,
        st.dps,
        detail::resource_guard{options, st.dps, st.published, &budget, cancel,
                               {}},
        st.li_shi.frontier != nullptr ? &st.li_shi : nullptr};
  }

  void fail(std::exception_ptr e) {
    std::lock_guard lk(error_mu);
    if (!error) error = std::move(e);
    budget.aborted.store(true, std::memory_order_release);
  }

  /// One task: solve node `id`, then release whichever of {parent task, the
  /// joining caller} is now unblocked. The pending counter's acq_rel RMW is
  /// the happens-before edge that makes every child's list (and any abort
  /// flag it set) visible to the parent's task.
  void run_node(tree::node_id id) {
    const int w = thread_pool::current_worker();
    try {
      if (!budget.aborted.load(std::memory_order_acquire)) {
        detail::dp_worker worker = make_worker(w);
        detail::node_list here = worker.solve_node(id, lists, false);
        if (!states[w].dps.aborted) {
          lists[id] = std::move(here);
        } else {
          worker.guard.publish();
        }
      }
      if (tree.node(id).is_source() &&
          !budget.aborted.load(std::memory_order_acquire)) {
        // The root task transitively depends on every node, so at this point
        // all lists are visible and final.
        detail::dp_worker worker = make_worker(w);
        root_result = worker.select_root(lists[id]);
        root_ok = true;
      }
    } catch (...) {
      fail(std::current_exception());
    }
    const auto& n = tree.node(id);
    if (n.is_source()) {
      // Last action of the whole DAG: after this the joining thread may
      // tear the run down, so nothing below may touch *this.
      done.count_down();
    } else if (pending[n.parent].fetch_sub(1, std::memory_order_acq_rel) ==
               1) {
      const tree::node_id parent = n.parent;
      pool.submit([this, parent] { run_node(parent); });
    }
  }

  stat_result run() {
    // Seed the DAG with the structural leaves only. Testing the live pending
    // counters here instead would race the cascade: a worker can drain a
    // parent's counter to zero (and submit it) while this loop is still
    // walking, and a second submission of the same node corrupts the run.
    for (const tree::node_id id : order) {
      if (tree.node(id).children.empty()) {
        pool.submit([this, id] { run_node(id); });
      }
    }
    done.wait();
    if (error) std::rethrow_exception(error);

    stat_result result;
    if (root_ok) result = std::move(root_result);

    dp_stats total;
    for (const auto& st : states) total.merge(st.dps);
    if (total.aborted) {
      result = stat_result{};
      result.assignment = timing::buffer_assignment(tree.num_nodes());
    }
    total.wall_seconds =
        std::chrono::duration<double>(detail::dp_clock::now() - budget.t_start)
            .count();
    result.stats = std::move(total);
    return result;
  }
};

stat_result run_parallel_impl(const tree::routing_tree& tree,
                              layout::process_model& model,
                              const stat_options& options, thread_pool& pool,
                              const cancel_token* cancel) {
  const device_cache cache(tree, model, options.library);
  parallel_run run{tree, options, model.space(), cache, pool, cancel};
  return run.run();
}

}  // namespace

solve_outcome<stat_result> solve_parallel_insertion(
    const tree::routing_tree& tree, layout::process_model& model,
    const stat_options& options, thread_pool& pool,
    const cancel_token* cancel) {
  return detail::stat_entry(tree, model, options, cancel, [&] {
    return run_parallel_impl(tree, model, options, pool, cancel);
  });
}

// ---------------------------------------------------------------------------
// Batch solver.
// ---------------------------------------------------------------------------

batch_solver::batch_solver(config cfg)
    : config_(cfg),
      pool_(cfg.num_threads == 0 ? thread_pool::default_thread_count()
                                 : cfg.num_threads) {}

bool outcomes_identical(const solve_outcome<batch_result>& a,
                        const solve_outcome<batch_result>& b) {
  if (a.ok() != b.ok()) return false;
  return a.ok() ? results_identical(a->result, b->result)
                : a.error().code == b.error().code;
}

/// Shared by every batch path -- and by the serve daemon: resolves job i's
/// net (generating from the derived per-job seed when asked) and builds its
/// process model. Throws on an unusable job spec; solve_batch_job captures
/// that into the job's slot.
prepared_job prepare_batch_job(const batch_job& job, std::size_t i,
                               const std::optional<std::uint64_t>& batch_seed) {
  if (testing::should_fire(testing::fault_point::batch_job_throw, i)) {
    throw std::runtime_error("injected batch job failure");
  }
  prepared_job setup;
  setup.net = job.tree;
  if (setup.net == nullptr) {
    if (!job.generate.has_value()) {
      throw std::invalid_argument(
          "batch_job: neither tree nor generate is set");
    }
    tree::random_tree_options g = *job.generate;
    if (batch_seed.has_value()) {
      g.seed = stats::derive_seed(*batch_seed, i);
    }
    setup.generated.emplace(tree::make_random_tree(g));
    setup.net = &*setup.generated;
  }
  layout::bbox die = job.die;
  if (die.width() <= 0.0 || die.height() <= 0.0) {
    die = setup.net->bounding_box();
    die.expand({die.lo.x - 1.0, die.lo.y - 1.0});
    die.expand({die.hi.x + 1.0, die.hi.y + 1.0});
  }
  setup.model.emplace(die, job.model);
  return setup;
}

solve_outcome<batch_result> solve_batch_job(
    const batch_job& job, std::size_t i,
    const std::optional<std::uint64_t>& batch_seed,
    const cancel_token* cancel) {
  try {
    if (cancel != nullptr && cancel->stop_requested()) {
      return solve_error{solve_code::cancelled, tree::invalid_node,
                         "cancelled before start"};
    }
    prepared_job setup = prepare_batch_job(job, i, batch_seed);
    auto solved = solve_statistical_insertion(*setup.net, *setup.model,
                                              job.options, cancel);
    if (!solved.ok()) return std::move(solved.error());
    return batch_result{std::move(*solved), std::move(*setup.model),
                        std::move(setup.generated)};
  } catch (const std::bad_alloc&) {
    return solve_error{solve_code::memory_cap, tree::invalid_node,
                       "allocation failed preparing job"};
  } catch (const std::exception& e) {
    return solve_error{solve_code::internal, tree::invalid_node, e.what()};
  } catch (...) {
    return solve_error{solve_code::internal, tree::invalid_node,
                       "unknown exception"};
  }
}

journal_record make_journal_record(std::size_t i, std::uint64_t fingerprint,
                                   const solve_outcome<batch_result>& slot) {
  journal_record rec;
  rec.job_index = i;
  rec.fingerprint = fingerprint;
  rec.ok = slot.ok();
  if (slot.ok()) {
    rec.num_sources = slot->model.space().size();
    rec.result = slot->result;
    rec.result.root_rat.own_terms();
  } else {
    rec.code = slot.error().code;
    rec.error_node = slot.error().node;
    rec.detail = slot.error().detail;
  }
  return rec;
}

std::vector<solve_outcome<batch_result>> batch_solver::solve_outcomes(
    const std::vector<batch_job>& jobs, const cancel_token* cancel) {
  std::vector<std::optional<solve_outcome<batch_result>>> slots(jobs.size());
  std::latch done{static_cast<std::ptrdiff_t>(jobs.size())};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pool_.submit([&, i] {
      slots[i].emplace(solve_batch_job(jobs[i], i, config_.batch_seed, cancel));
      done.count_down();
    });
  }
  done.wait();

  std::vector<solve_outcome<batch_result>> out;
  out.reserve(jobs.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

// ---------------------------------------------------------------------------
// Journaled (crash-recoverable) batch solving.
// ---------------------------------------------------------------------------

namespace {

std::uint64_t hash_model_config(const layout::process_model_config& c,
                                std::uint64_t h) {
  const auto budget = [&](const layout::class_budget& b, std::uint64_t hh) {
    hh = fnv1a_f64(b.cap, hh);
    return fnv1a_f64(b.delay, hh);
  };
  h = budget(c.budgets.random_device, h);
  h = budget(c.budgets.inter_die, h);
  h = budget(c.budgets.spatial, h);
  h = fnv1a_u64((c.mode.random_device ? 1u : 0u) |
                    (c.mode.inter_die ? 2u : 0u) | (c.mode.spatial ? 4u : 0u),
                h);
  h = fnv1a_f64(c.spatial.cell_size_um, h);
  h = fnv1a_f64(c.spatial.range_um, h);
  h = fnv1a_u64(static_cast<std::uint64_t>(c.spatial.profile), h);
  return h;
}

std::uint64_t hash_tree(const tree::routing_tree& t, std::uint64_t h) {
  h = fnv1a_u64(t.num_nodes(), h);
  for (const auto& n : t.nodes()) {
    h = fnv1a_u64(static_cast<std::uint64_t>(n.kind), h);
    h = fnv1a_f64(n.location.x, h);
    h = fnv1a_f64(n.location.y, h);
    h = fnv1a_u64(n.parent, h);
    h = fnv1a_f64(n.parent_wire_um, h);
    h = fnv1a_f64(n.sink_cap_pf, h);
    h = fnv1a_f64(n.sink_rat_ps, h);
  }
  return h;
}

solve_error mismatch(std::string detail) {
  return solve_error{solve_code::journal_mismatch, tree::invalid_node,
                     std::move(detail)};
}

}  // namespace

std::uint64_t fingerprint_job(const batch_job& job, std::size_t index,
                              const std::optional<std::uint64_t>& batch_seed) {
  std::uint64_t h = fnv1a_seed;
  h = hash_stat_options(job.options, h);
  h = hash_model_config(job.model, h);
  h = fnv1a_f64(job.die.lo.x, h);
  h = fnv1a_f64(job.die.lo.y, h);
  h = fnv1a_f64(job.die.hi.x, h);
  h = fnv1a_f64(job.die.hi.y, h);
  if (job.tree != nullptr) {
    h = fnv1a_u64(1, h);
    h = hash_tree(*job.tree, h);
  } else if (job.generate.has_value()) {
    tree::random_tree_options g = *job.generate;
    if (batch_seed.has_value()) {
      g.seed = stats::derive_seed(*batch_seed, index);
    }
    h = fnv1a_u64(2, h);
    h = fnv1a_u64(g.num_sinks, h);
    h = fnv1a_f64(g.die_side_um, h);
    h = fnv1a_u64(g.seed, h);
    h = fnv1a_f64(g.sink_cap_min_pf, h);
    h = fnv1a_f64(g.sink_cap_max_pf, h);
    h = fnv1a_f64(g.sink_rat_ps, h);
    h = fnv1a_f64(g.criticality_balance, h);
    h = fnv1a_f64(g.balance_delay_per_um, h);
  } else {
    h = fnv1a_u64(0, h);  // unusable job; solving it yields a typed error
  }
  return h;
}

batch_fingerprints fingerprint_batch(
    const std::vector<batch_job>& jobs,
    const std::optional<std::uint64_t>& batch_seed) {
  batch_fingerprints out;
  out.per_job.resize(jobs.size());
  out.combined = fnv1a_u64(jobs.size(), fnv1a_seed);
  if (batch_seed.has_value()) {
    out.combined = fnv1a_u64(*batch_seed, out.combined);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.per_job[i] = fingerprint_job(jobs[i], i, batch_seed);
    out.combined = fnv1a_u64(out.per_job[i], out.combined);
  }
  return out;
}

journal_header batch_journal_header(
    const batch_fingerprints& fps,
    const std::optional<std::uint64_t>& batch_seed) {
  journal_header header;
  header.has_batch_seed = batch_seed.has_value();
  header.batch_seed = batch_seed.value_or(0);
  header.num_jobs = fps.per_job.size();
  header.jobs_fingerprint = fps.combined;
  return header;
}

solve_outcome<journal_contents> read_batch_journal(
    const std::string& path, const batch_fingerprints& fps,
    const std::optional<std::uint64_t>& batch_seed) {
  auto read = read_journal(path);
  if (!read.ok() || !read->has_header) return read;
  const journal_header& jh = read->header;
  const std::size_t num_jobs = fps.per_job.size();
  if (jh.num_jobs != num_jobs) {
    return mismatch("journal has " + std::to_string(jh.num_jobs) +
                    " jobs, resume batch has " + std::to_string(num_jobs));
  }
  if (jh.has_batch_seed != batch_seed.has_value() ||
      jh.batch_seed != batch_seed.value_or(0)) {
    return mismatch("journal batch_seed differs from resume batch");
  }
  if (jh.jobs_fingerprint != fps.combined) {
    return mismatch(
        "journal jobs fingerprint differs: the journal was written by a "
        "run with different jobs or stat_options");
  }
  for (const journal_record& rec : read->records) {
    if (rec.job_index >= num_jobs) {
      return mismatch("journal record for out-of-range job " +
                      std::to_string(rec.job_index));
    }
    if (rec.fingerprint != fps.per_job[rec.job_index]) {
      return mismatch("journal record for job " +
                      std::to_string(rec.job_index) +
                      " does not fingerprint-match the job being resumed");
    }
  }
  std::erase_if(read->records, [](const journal_record& rec) {
    return !rec.ok && rec.code == solve_code::cancelled;
  });
  return read;
}

solve_outcome<solve_outcome<batch_result>> restore_journal_record(
    const batch_job& job, std::size_t index,
    const std::optional<std::uint64_t>& batch_seed, journal_record record) {
  if (!record.ok) {
    return solve_outcome<batch_result>{
        solve_error{record.code, record.error_node, std::move(record.detail)}};
  }
  const std::string what = "journal record for job " + std::to_string(index);
  try {
    prepared_job setup = prepare_batch_job(job, index, batch_seed);
    const std::size_t nodes = record.result.assignment.num_nodes();
    if (nodes != 0 && nodes != setup.net->num_nodes()) {
      return mismatch(what + " has an assignment over " +
                      std::to_string(nodes) + " nodes; the job's tree has " +
                      std::to_string(setup.net->num_nodes()));
    }
    layout::process_model& model = *setup.model;
    if (record.num_sources < model.space().size()) {
      return mismatch(what +
                      " claims fewer variation sources than the model's "
                      "deterministic prefix");
    }
    // The producing run's variation space was the deterministic prefix
    // (inter-die + spatial grid) plus one unit-sigma private source per
    // characterized device, in characterization order. Re-padding with
    // unit random sources rebuilds a space in which the journaled forms
    // mean exactly what they meant originally.
    while (model.space().size() < record.num_sources) {
      model.space().add_source(stats::source_kind::random_device, 1.0);
    }
    return solve_outcome<batch_result>{
        batch_result{std::move(record.result), std::move(model),
                     std::move(setup.generated)}};
  } catch (const std::exception& e) {
    // prepare_batch_job failing for a job the journal says *succeeded* is an
    // input mismatch by definition (the fingerprint cannot see a caller's
    // dangling tree pointer, say).
    return mismatch("job " + std::to_string(index) +
                    " cannot be re-prepared for restore: " + e.what());
  }
}

solve_outcome<journaled_batch> batch_solver::solve_journaled(
    const std::vector<batch_job>& jobs, const batch_journal_options& journal,
    const cancel_token* cancel) {
  journaled_batch out;
  const batch_fingerprints fps = fingerprint_batch(jobs, config_.batch_seed);

  // -- resume: the journaled records that may stand in for a solve ----------
  std::vector<journal_record> accepted;
  if (journal.resume) {
    auto read = read_batch_journal(journal.path, fps, config_.batch_seed);
    if (!read.ok()) return std::move(read.error());
    out.dropped_tail_bytes = read->dropped_tail_bytes;
    out.duplicates_dropped = read->duplicates_dropped;
    accepted = std::move(read->records);
  }

  journal_writer writer{journal.path,
                        batch_journal_header(fps, config_.batch_seed),
                        journal.checkpoint_every_jobs,
                        journal.checkpoint_every_bytes};
  std::vector<std::optional<solve_outcome<batch_result>>> slots(jobs.size());
  std::vector<std::size_t> restored_jobs;  // restored jobs that succeeded
  for (journal_record& rec : accepted) {
    writer.restore(rec);
    const auto i = static_cast<std::size_t>(rec.job_index);
    auto restored = restore_journal_record(jobs[i], i, config_.batch_seed,
                                           std::move(rec));
    if (!restored.ok()) return std::move(restored.error());
    if (restored->ok()) restored_jobs.push_back(i);
    slots[i].emplace(std::move(*restored));
  }
  out.restored = accepted.size();

  // -- solve what the journal did not cover ---------------------------------
  std::mutex journal_mu;
  std::latch done{static_cast<std::ptrdiff_t>(jobs.size() - out.restored)};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (slots[i].has_value()) continue;
    pool_.submit([&, i] {
      slots[i].emplace(solve_batch_job(jobs[i], i, config_.batch_seed, cancel));
      // Journal the outcome -- except cancellations, which are not results:
      // a resumed run must re-solve those jobs.
      if (slots[i]->code() != solve_code::cancelled) {
        std::lock_guard lk(journal_mu);
        writer.append(make_journal_record(i, fps.per_job[i], *slots[i]));
        ++out.solved;
        if (testing::should_fire(testing::fault_point::crash_after_job, i)) {
          // Simulate the process dying the instant job i committed: no
          // drain, no final flush, no destructors. Exactly what SIGKILL
          // leaves behind, but at a deterministic point.
          std::_Exit(42);
        }
      }
      done.count_down();
    });
  }
  done.wait();
  writer.flush();

  // -- optional paranoid re-verification of every restored record -----------
  if (journal.verify_restored && !restored_jobs.empty()) {
    std::vector<std::optional<solve_outcome<batch_result>>> check(
        restored_jobs.size());
    std::latch verified{static_cast<std::ptrdiff_t>(restored_jobs.size())};
    for (std::size_t k = 0; k < restored_jobs.size(); ++k) {
      pool_.submit([&, k] {
        const std::size_t i = restored_jobs[k];
        check[k].emplace(
            solve_batch_job(jobs[i], i, config_.batch_seed, nullptr));
        verified.count_down();
      });
    }
    verified.wait();
    for (std::size_t k = 0; k < restored_jobs.size(); ++k) {
      const std::size_t i = restored_jobs[k];
      if (!outcomes_identical(*check[k], *slots[i])) {
        return mismatch("restored record for job " + std::to_string(i) +
                        " is not bit-identical to a fresh solve");
      }
    }
  }

  out.checkpoints = writer.checkpoints();
  out.journal_bytes = writer.bytes();
  out.journal_warning = writer.io_error();
  out.slots.reserve(jobs.size());
  for (auto& slot : slots) out.slots.push_back(std::move(*slot));
  return out;
}

}  // namespace vabi::core
