// Exactly-once merge of shard journals into one batch result set.
//
// A sharded run (shard_coordinator) leaves a directory of `shard-*.vjl`
// journals, each a "vabi journal v1" file whose second frame is a shard
// header (core::shard_info): the shard's index, the worker-slot count the
// coordinator was configured with, and the parent batch's jobs fingerprint.
// merge_shards re-derives the batch fingerprint chain exactly as
// batch_solver::solve_journaled would, validates every shard against it, and
// restores each record into its job slot with the same model-rebuilding
// rules as a single-process resume -- so the merged slots are bit-identical
// to the slots of an uninterrupted solve_journaled run.
//
// Error taxonomy:
//   - journal_corrupt: a shard file failed CRC/framing mid-log (the detail
//     names the file); torn *tails* are tolerated, exactly like resume.
//   - shard_mismatch: shards disagree with the batch or each other -- a
//     journal without a shard header, a parent fingerprint from a different
//     batch, duplicate shard indices, a record for an out-of-range or
//     wrong-fingerprint job, the same job solved in two shards, or jobs no
//     shard covers. Legitimate coordinator runs never produce any of these;
//     each is a corruption/operator-error signal, reported typed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/parallel.hpp"
#include "core/solve_status.hpp"

namespace vabi::shard {

/// The batch fingerprint chain (core/parallel.hpp); its combined value is
/// what shard headers carry as parent_fingerprint.
using core::batch_fingerprints;
using core::fingerprint_batch;

/// The `shard-*.vjl` files under `dir` (full paths, sorted; `.tmp` spill
/// files from a checkpoint in progress are ignored).
std::vector<std::string> list_shard_files(const std::string& dir);

/// The merged batch: slot i holds job i's outcome, restored bit-identically
/// to a single-process solve_journaled run.
struct merged_batch {
  std::vector<core::solve_outcome<core::batch_result>> slots;
  std::size_t shards_read = 0;
  std::size_t records_merged = 0;
  std::uint64_t dropped_tail_bytes = 0;  ///< torn shard tails tolerated
  std::uint64_t jobs_fingerprint = 0;
};

/// Validates and merges every shard journal under `journal_dir`. The outer
/// outcome is an error when the shards cannot be reconciled (see the
/// taxonomy above); per-job *solver* failures stay typed inside their slots,
/// exactly as in solve_journaled.
core::solve_outcome<merged_batch> merge_shards(
    const std::vector<core::batch_job>& jobs,
    const std::optional<std::uint64_t>& batch_seed,
    const std::string& journal_dir);

}  // namespace vabi::shard
