// Exactly-once merge of shard journals into one batch result set.
//
// A sharded run (shard_coordinator) leaves a directory of `shard-*.vjl`
// journals, each a "vabi journal v1" file whose second frame is a shard
// header (core::shard_info): the shard's index, the worker-slot count the
// coordinator was configured with, and the parent batch's jobs fingerprint.
// Every read of a shard -- merge, the coordinator's resume scan, its
// dead-worker read and its coverage repair -- goes through read_shard, the
// core acceptance rule (core::read_batch_journal) plus the shard checks.
// merge_shards restores each record with core::restore_journal_record, the
// single-process resume rule -- so the merged slots are bit-identical to the
// slots of an uninterrupted solve_journaled run.
//
// Error taxonomy:
//   - journal_corrupt: a shard file failed CRC/framing mid-log (the detail
//     names the file); torn *tails* are tolerated, exactly like resume.
//   - shard_mismatch: shards disagree with the batch or each other -- any
//     journal_mismatch of the core rule, a journal without a shard header,
//     a parent fingerprint from a different batch, duplicate shard indices,
//     the same job solved in two shards, or jobs no shard covers.
//     Legitimate coordinator runs never produce any of these; each is a
//     corruption/operator-error signal, reported typed.
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

/// One shard journal through core::read_batch_journal, plus a shard frame
/// carrying the batch's parent fingerprint. Rejections name the file;
/// journal_corrupt stays, anything else is shard_mismatch. A file torn
/// before its first checkpoint reads as has_header == false.
core::solve_outcome<core::journal_contents> read_shard(
    const std::string& path, const batch_fingerprints& fps,
    const std::optional<std::uint64_t>& batch_seed);

/// What the shards under a directory hold.
struct shard_scan {
  /// Job i's record, when a shard has one.
  std::vector<std::optional<core::journal_record>> records;
  std::size_t shards_read = 0;  ///< shards past their first checkpoint
  std::size_t records_read = 0;
  std::uint64_t dropped_tail_bytes = 0;  ///< torn shard tails tolerated
  std::uint32_t next_shard_index = 0;    ///< one past the highest on disk
};

/// Reads every shard under `dir` with read_shard; shard indices must be
/// distinct and no job may appear in two shards (shard_mismatch).
core::solve_outcome<shard_scan> scan_shards(
    const std::string& dir, const batch_fingerprints& fps,
    const std::optional<std::uint64_t>& batch_seed);

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
