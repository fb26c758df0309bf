// Parallel execution engine: a work-stealing thread pool, a batch solver
// that fans independent nets across threads, and an intra-tree parallel
// driver of the variation-aware DP.
//
// Buffer insertion in a real flow runs over thousands of nets per design
// (Li & Shi; PAPERS.md), which makes multi-net batching the dominant axis of
// parallelism: every job is independent, so throughput scales with cores.
// Inside one large tree there is a second axis: sibling subtrees are
// independent sub-problems joined only at the statistical merge, which is a
// pure function of the two child candidate lists. solve_parallel_insertion
// schedules one task per tree node (a node runs when all of its children
// have finished) on the same pool.
//
// Determinism contract: for runs that complete (no resource-cap abort), the
// parallel drivers produce *bit-identical* results to
// solve_statistical_insertion -- same canonical root RAT form, same buffer
// and wire assignments, same dp_stats counters -- for any thread count. This
// holds because (a) child lists are merged in tree child order, never
// completion order; (b) device forms are pre-characterized in the serial
// engine's exact lazy order (device_cache), so variation-source ids match;
// (c) per-worker state reduces commutatively. tests/core/parallel_dp_test.cpp
// asserts this for the 2P / 4P / corner rules across 1, 2 and 8 threads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/statistical_dp.hpp"
#include "layout/process_model.hpp"
#include "tree/generators.hpp"
#include "tree/routing_tree.hpp"

namespace vabi::core {

// ---------------------------------------------------------------------------
// Work-stealing thread pool.
// ---------------------------------------------------------------------------

/// Fixed-size pool of workers, each with its own task deque. A worker pops
/// its own deque LIFO (cache-warm, depth-first on task DAGs) and steals FIFO
/// from victims when empty (oldest tasks first -- the big untouched
/// subtrees). External submissions land on a shared injection queue.
///
/// The pool has no shutdown barrier of its own: callers that need to join a
/// wave of tasks block on a std::latch counted down by the tasks (see
/// parallel.cpp). The destructor is nonetheless safe at any time: it drains
/// every queued task and joins only once nothing is queued or running, so a
/// cancelled/abandoned wave cannot leave a worker exiting under a task that
/// is still submitting children.
class thread_pool {
 public:
  /// `num_threads == 0` picks default_thread_count().
  explicit thread_pool(std::size_t num_threads = 0);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  std::size_t size() const;

  /// Enqueues a task. Callable from any thread, including from inside a
  /// running task (the common case for DAG scheduling: a finishing child
  /// submits its ready parent onto its own deque).
  void submit(std::function<void()> task);

  /// Index of the calling pool worker in [0, size()), or -1 when called from
  /// a thread that does not belong to a pool.
  static int current_worker() noexcept;

  /// VABI_THREADS env var if set, otherwise std::thread::hardware_concurrency
  /// (at least 1).
  static std::size_t default_thread_count();

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

// ---------------------------------------------------------------------------
// Intra-tree parallel DP.
// ---------------------------------------------------------------------------

/// Pre-characterized device forms for every (node, buffer type) pair of one
/// tree. Building the cache walks the tree in postorder and characterizes in
/// exactly the order the serial engine's lazy calls would, so the variation
/// sources registered in the model's space carry identical ids and sigmas --
/// the keystone of the bit-identical guarantee. After construction the cache
/// is immutable and safe to read from any thread.
class device_cache {
 public:
  device_cache(const tree::routing_tree& tree, layout::process_model& model,
               const timing::buffer_library& library);

  const layout::device_variation& get(tree::node_id id,
                                      timing::buffer_index b) const {
    return devices_[static_cast<std::size_t>(id) * lib_size_ + b];
  }

 private:
  std::size_t lib_size_;
  std::vector<layout::device_variation> devices_;
};

/// Variation-aware insertion on one tree with sibling subtrees solved
/// concurrently on `pool`: same contract as solve_statistical_insertion
/// (structured validation, typed resource trips, degradation policy), and
/// bit-identical to it for completed runs (see the determinism contract
/// above). `cancel` is polled at node boundaries by every worker so sibling
/// tasks stop promptly. Resource caps are honored, but *which* node trips a
/// cap first is scheduling-dependent, so the error of an aborted run may
/// differ from serial in its node and detail. Degraded retries run on the
/// serial engine, keeping fallback results thread-count-invariant.
solve_outcome<stat_result> solve_parallel_insertion(
    const tree::routing_tree& tree, layout::process_model& model,
    const stat_options& options, thread_pool& pool,
    const cancel_token* cancel = nullptr);

// ---------------------------------------------------------------------------
// Batch solver.
// ---------------------------------------------------------------------------

/// One net-optimization job of a batch. The net is either borrowed (`tree`)
/// or generated on a worker thread from `generate` when `tree` is null --
/// generation draws from a per-job deterministic RNG stream, so a batch is
/// reproducible regardless of thread count or scheduling.
struct batch_job {
  const tree::routing_tree* tree = nullptr;
  std::optional<tree::random_tree_options> generate;

  stat_options options;
  layout::process_model_config model;
  /// Die of the process model. Width 0 (the default) derives the die from
  /// the net's bounding box padded by 1 um, like examples/vabi_cli.cpp.
  layout::bbox die;
};

/// Result of one batch job. The model owns the variation space the result's
/// canonical forms refer to (needed for sigma / yield evaluation).
struct batch_result {
  stat_result result;
  layout::process_model model;
  /// The generated net, when the job asked for generation.
  std::optional<tree::routing_tree> generated;
};

/// True when two slots of one batch agree: both solved with
/// results_identical results, or both failed with the same solve_code.
bool outcomes_identical(const solve_outcome<batch_result>& a,
                        const solve_outcome<batch_result>& b);

/// How batch_solver::solve_journaled uses its journal.
struct batch_journal_options {
  std::string path;  ///< journal file, e.g. "run.vjl"
  /// Checkpoint (atomic whole-image rewrite) every N newly solved jobs
  /// (0 = no count trigger) / every B newly appended bytes (0 = no byte
  /// trigger). A final checkpoint always happens when the batch drains.
  std::size_t checkpoint_every_jobs = 16;
  std::uint64_t checkpoint_every_bytes = 1u << 22;
  /// Restore already-journaled jobs instead of re-solving them. A missing
  /// journal file is a valid empty journal (a run killed before its first
  /// checkpoint leaves none).
  bool resume = false;
  /// Paranoia knob: re-solve every restored job anyway and require the
  /// restored record to be bit-identical (root RAT form, assignment, wires,
  /// deterministic counters). Divergence -- which the determinism contract
  /// rules out short of journal tampering or a build mismatch -- is a typed
  /// journal_mismatch. This is the resume invariant, executable.
  bool verify_restored = false;
};

/// What solve_journaled returns alongside the per-job slots.
struct journaled_batch {
  std::vector<solve_outcome<batch_result>> slots;  ///< slot i <-> job i
  std::size_t restored = 0;  ///< jobs recovered from the journal
  std::size_t solved = 0;    ///< jobs actually solved this run
  std::size_t checkpoints = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t dropped_tail_bytes = 0;  ///< torn tail discarded on resume
  std::uint64_t duplicates_dropped = 0;
  /// First journal I/O failure ("" when healthy). Never fatal to the batch.
  std::string journal_warning;
};

/// The resolved net + process model of one batch job: the generated tree
/// (when the job asked for generation), a pointer to the net to solve, and
/// the process model built over the job's die (or the net's padded bounding
/// box). This is *the* canonical job setup: batch_solver, the journal resume
/// path and the serve daemon (src/serve) all go through it, which is what
/// makes a remotely solved job bit-identical to a local one.
struct prepared_job {
  std::optional<tree::routing_tree> generated;
  const tree::routing_tree* net = nullptr;
  std::optional<layout::process_model> model;
};

/// Resolves job `index`'s net (generating from the derived per-job seed when
/// asked) and builds its process model. Throws on an unusable job spec.
prepared_job prepare_batch_job(const batch_job& job, std::size_t index,
                               const std::optional<std::uint64_t>& batch_seed);

/// One batch job, start to finish: prepare_batch_job, then
/// solve_statistical_insertion. Everything the job can do wrong -- a typed
/// solver error, a thrown exception from generation or model setup, an
/// injected fault, a `cancel` armed before it starts -- lands in the returned
/// outcome; it never throws. Every batch path solves jobs through it:
/// batch_solver, the serve daemon and the shard workers.
solve_outcome<batch_result> solve_batch_job(
    const batch_job& job, std::size_t index,
    const std::optional<std::uint64_t>& batch_seed,
    const cancel_token* cancel = nullptr);

/// The fingerprint of one job's solve-relevant inputs, as journaled with
/// every record: stat_options, model config, die, and the net (tree bytes,
/// or generator options with the effective derive_seed(batch_seed, index)
/// seed). Resume refuses records whose fingerprint does not match the job
/// being resumed (solve_code::journal_mismatch).
std::uint64_t fingerprint_job(const batch_job& job, std::size_t index,
                              const std::optional<std::uint64_t>& batch_seed);

/// The batch fingerprint chain of every journaled path (solve_journaled, the
/// serve daemon, shard headers): the per-job fingerprint_job values and the
/// combined jobs fingerprint over (job count, batch seed, per-job values).
struct batch_fingerprints {
  std::vector<std::uint64_t> per_job;
  std::uint64_t combined = 0;
};

batch_fingerprints fingerprint_batch(
    const std::vector<batch_job>& jobs,
    const std::optional<std::uint64_t>& batch_seed);

/// The header every journal of the batch carries: job count, batch seed and
/// the combined fingerprint.
journal_header batch_journal_header(
    const batch_fingerprints& fps,
    const std::optional<std::uint64_t>& batch_seed);

/// The journal record of job `index`'s outcome, `fingerprint` its
/// fingerprint_job.
journal_record make_journal_record(std::size_t index, std::uint64_t fingerprint,
                                   const solve_outcome<batch_result>& slot);

/// The one acceptance rule for journaled results, shared by solve_journaled,
/// the serve daemon's resume and the shard reader (src/shard): reads `path`
/// with read_journal and checks the header and every record against the
/// batch that `fps` and `batch_seed` describe. Keeps, in append order, the
/// records that may stand in for a solve; cancellations are not results and
/// are dropped. journal_corrupt or journal_mismatch otherwise.
solve_outcome<journal_contents> read_batch_journal(
    const std::string& path, const batch_fingerprints& fps,
    const std::optional<std::uint64_t>& batch_seed);

/// The inverse of make_journal_record for a kept record: job `index`'s slot.
/// An ok record must fit the re-prepared job (its tree's node count, at
/// least the model's deterministic variation sources), and the space is
/// padded to its num_sources. The outer outcome is journal_mismatch when the
/// record cannot belong to the job.
solve_outcome<solve_outcome<batch_result>> restore_journal_record(
    const batch_job& job, std::size_t index,
    const std::optional<std::uint64_t>& batch_seed, journal_record record);

/// Fans a vector of independent jobs across a work-stealing pool: multi-net
/// throughput, the paper's thousands-of-nets-per-design regime. Job i's
/// result lands in slot i; each job gets its own process model (and hence
/// its own variation space), so results are identical to solving each job
/// alone with solve_statistical_insertion.
class batch_solver {
 public:
  struct config {
    /// 0 picks thread_pool::default_thread_count().
    std::size_t num_threads = 0;
    /// When set, job i's generator seed is re-derived as
    /// stats::derive_seed(*batch_seed, i): one master seed reproducibly
    /// fans out into independent per-job streams.
    std::optional<std::uint64_t> batch_seed;
  };

  batch_solver() : batch_solver(config{}) {}
  explicit batch_solver(config cfg);

  /// Per-net fault isolation: solves all jobs, capturing every failure --
  /// typed guard trips and escaped exceptions alike -- into that job's
  /// solve_outcome slot. Nothing a job does can take down the batch or
  /// escape a pool worker. Outcome codes are thread-count-invariant: each
  /// job is solved serially and independently, so slot i's outcome depends
  /// only on job i (and the derived per-job seed), never on scheduling.
  /// `cancel` lets a caller abandon the remainder of a batch; jobs already
  /// started still complete.
  std::vector<solve_outcome<batch_result>> solve_outcomes(
      const std::vector<batch_job>& jobs, const cancel_token* cancel = nullptr);

  /// Crash-recoverable batch solving: solve_outcomes plus a durable result
  /// journal (core/journal.hpp). Every finished job is appended to the
  /// journal and checkpointed at the configured interval; with `resume` set,
  /// jobs already in the journal are *restored* instead of re-solved --
  /// bit-identically, because job i's inputs (tree bytes or generator spec +
  /// derive_seed(batch_seed, i)) are fingerprinted into each record and
  /// verified on restore, and the solver itself is deterministic per job.
  ///
  /// The outer outcome is an error only when the journal cannot be used at
  /// all: journal_corrupt (mid-log damage; detail names the record) or
  /// journal_mismatch (journal from different jobs/options/seed). Journal
  /// *write* trouble mid-run never fails the batch -- results stay in
  /// memory and journaled_batch::journal_warning reports the I/O error.
  solve_outcome<journaled_batch> solve_journaled(
      const std::vector<batch_job>& jobs, const batch_journal_options& journal,
      const cancel_token* cancel = nullptr);

  thread_pool& pool() { return pool_; }

 private:
  config config_;
  thread_pool pool_;
};

}  // namespace vabi::core
