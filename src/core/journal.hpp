// Durable result journal for crash-recoverable batch solving.
//
// A batch run that dies hours in -- OOM kill, preemption, SIGKILL -- must not
// lose the nets it already solved. This module provides the storage layer:
// an append-only log of per-net solve outcomes with enough fidelity that a
// resumed run is *bit-identical* to one that was never interrupted. The
// resume rules -- which records may stand in for a solve, and how one is
// restored -- are read_batch_journal and restore_journal_record in
// core/parallel.hpp, shared by batch_solver::solve_journaled, the serve
// daemon's session resume and the shard reader (src/shard).
//
// File format ("vabi journal v1", default extension .vjl):
//
//   +--------------------------------------------------------------+
//   | magic "VABIJRNL" (8 bytes)                                   |
//   +--------------+--------------------+--------------------------+
//   | u32 len      | u32 crc32(payload) | payload (len bytes)      |  frame 0
//   +--------------+--------------------+--------------------------+
//   | u32 len      | u32 crc32(payload) | payload                  |  frame 1
//   +--------------+--------------------+--------------------------+
//   | ...                                                          |
//
// Frame 0's payload is the batch header (format version, batch seed, job
// count, fingerprint over every job's solve-relevant inputs); every later
// frame is one per-net record. All integers are little-endian; doubles are
// serialized as their raw IEEE-754 bit patterns, so a round-trip through the
// journal is exact to the bit -- canonical-form coefficients included.
//
// Durability protocol: the writer keeps the full serialized image in memory
// and *checkpoints* it -- write to `<path>.tmp`, fsync, atomic rename over
// `<path>`, fsync the directory -- every N records / B bytes and at close.
// The visible file is therefore always a complete prefix of the log: a crash
// mid-checkpoint leaves either the previous image or the new one, never a
// mix.
//
// Corruption policy on open (read_journal):
//   - missing or empty file          -> empty contents (a crash before the
//                                       first checkpoint leaves no file)
//   - truncated or bit-flipped tail  -> tail dropped, not fatal (the jobs it
//                                       covered are simply re-solved)
//   - corruption mid-log             -> typed solve_error{journal_corrupt}
//                                       naming the record index
//   - a decodable file that is not a journal -> journal_corrupt
// "Tail" means the damaged frame is the last thing in the file; damage with
// intact frames after it cannot be skipped soundly and is reported instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/solve_status.hpp"
#include "core/statistical_dp.hpp"
#include "stats/fnv1a.hpp"

namespace vabi::core {

// ---------------------------------------------------------------------------
// Hashes.
// ---------------------------------------------------------------------------

// FNV-1a (stats/fnv1a.hpp), re-exported for the journal's fingerprints and
// its callers.
using stats::fnv1a;
using stats::fnv1a_f64;
using stats::fnv1a_seed;
using stats::fnv1a_str;
using stats::fnv1a_u64;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a byte range.
std::uint32_t crc32(const void* data, std::size_t size);

// ---------------------------------------------------------------------------
// Journal contents.
// ---------------------------------------------------------------------------

struct journal_header {
  std::uint32_t version = 1;
  bool has_batch_seed = false;
  std::uint64_t batch_seed = 0;
  std::uint64_t num_jobs = 0;
  /// FNV-1a over every job's solve-relevant inputs (options, model config,
  /// die, tree bytes or generator spec + derived seed). A journal written
  /// under different stat_options fingerprints differently and is rejected
  /// at resume with solve_code::journal_mismatch.
  std::uint64_t jobs_fingerprint = 0;
};

/// One journaled per-net outcome: either a full-precision stat_result (plus
/// the size of the variation space the producing run ended with, which is
/// what a resume needs to rebuild an identical process_model) or a typed
/// solve_error.
struct journal_record {
  std::uint64_t job_index = 0;
  std::uint64_t fingerprint = 0;  ///< this job's input fingerprint

  bool ok = false;

  // when !ok: the typed error, verbatim.
  solve_code code = solve_code::internal;
  tree::node_id error_node = tree::invalid_node;
  std::string detail;

  // when ok: the winning solution, full precision.
  std::uint64_t num_sources = 0;  ///< producing run's variation-space size
  stat_result result;
};

/// Shard identity for journals written as one slice of a sharded batch
/// (src/shard). Stored as an optional frame directly after the header, so a
/// shard journal is a strict superset of "vabi journal v1" -- every existing
/// reader/corruption rule applies unchanged.
struct shard_info {
  std::uint32_t shard_index = 0;  ///< monotonic per coordinator run
  /// Worker-slot count the coordinator was configured with when this shard
  /// was opened. Restarted workers open *new* shards, so the number of shard
  /// files can exceed shard_count; merge validates agreement across headers,
  /// not an exact file census.
  std::uint32_t shard_count = 0;
  /// The parent batch's jobs fingerprint (journal_header::jobs_fingerprint of
  /// the equivalent single-process run). A shard from a different batch fails
  /// merge with solve_code::shard_mismatch.
  std::uint64_t parent_fingerprint = 0;
};

struct journal_contents {
  journal_header header;
  bool has_header = false;  ///< false for a missing/empty/truncated-at-0 file
  bool has_shard = false;   ///< true when a shard frame follows the header
  shard_info shard;
  std::vector<journal_record> records;
  std::uint64_t dropped_tail_bytes = 0;  ///< torn tail discarded on open
  std::uint64_t duplicates_dropped = 0;  ///< repeated job_index frames ignored
};

/// Reads and verifies a journal. See the corruption policy above; every
/// failure is a typed solve_error (journal_corrupt), never UB or a throw.
solve_outcome<journal_contents> read_journal(const std::string& path);

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Append-only journal writer with atomic checkpointing. Not thread-safe;
/// the batch solver serializes appends under its own mutex.
///
/// I/O failures never abort the batch: the first failure is latched into
/// io_error() and later checkpoints are still attempted (a full disk that
/// drains later loses nothing but intermediate durability).
class journal_writer {
 public:
  /// Checkpoints every `checkpoint_every_jobs` appended records (0 disables
  /// the count trigger) and every 4 MiB of appended frames; flush() always
  /// writes.
  journal_writer(std::string path, const journal_header& header,
                 std::size_t checkpoint_every_jobs = 16);

  /// Shard-journal writer: identical layout plus a shard frame directly
  /// after the header. Shard checkpoints honor the `shard_write_short`
  /// fault point (plain journals keep `journal_write_short`).
  journal_writer(std::string path, const journal_header& header,
                 const shard_info& shard,
                 std::size_t checkpoint_every_jobs = 16);

  /// Re-appends a record recovered from a prior run. Never checkpoints on
  /// its own (resume would otherwise rewrite the file once per restored
  /// record before solving anything).
  void restore(const journal_record& record);

  /// Appends a new record and checkpoints when an interval trigger fires.
  void append(const journal_record& record);

  /// Forces a checkpoint: temp file + fsync + rename + directory fsync.
  void flush();

  std::size_t records() const { return records_; }
  std::size_t checkpoints() const { return checkpoints_; }
  std::uint64_t bytes() const { return image_.size(); }
  /// First I/O failure, empty while healthy.
  const std::string& io_error() const { return io_error_; }

 private:
  void maybe_checkpoint();

  std::string path_;
  bool has_shard_ = false;
  std::uint32_t shard_index_ = 0;  ///< fault-selector id for shard_write_short
  std::vector<std::uint8_t> image_;  ///< magic + header frame + record frames
  std::size_t checkpoint_every_jobs_;
  std::size_t records_ = 0;
  std::size_t records_at_checkpoint_ = 0;
  std::uint64_t bytes_at_checkpoint_ = 0;
  std::size_t checkpoints_ = 0;
  std::string io_error_;
};

namespace journal_detail {
/// One complete frame (len | crc | payload) for `record`. Exposed so the
/// corruption-corpus test can splice frames into crafted files.
std::vector<std::uint8_t> encode_record_frame(const journal_record& record);
std::vector<std::uint8_t> encode_header_frame(const journal_header& header);
std::vector<std::uint8_t> encode_shard_frame(const shard_info& shard);

/// Bare record payload (no len/crc framing) and its inverse. The serve wire
/// protocol (src/serve/wire.hpp) embeds journal records verbatim in its
/// result messages: the journal codec is the one full-precision serialization
/// of a solve outcome, so a streamed result and a journaled one are the same
/// bytes -- which is what makes reconnect/resume bit-identical by
/// construction. decode returns false on any truncation/garbage without
/// reading out of bounds.
std::vector<std::uint8_t> encode_record_payload(const journal_record& record);
bool decode_record_payload(const std::uint8_t* data, std::size_t size,
                           journal_record& out);
}  // namespace journal_detail

}  // namespace vabi::core
