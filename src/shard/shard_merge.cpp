#include "shard/shard_merge.hpp"

#include <dirent.h>

#include <algorithm>
#include <set>
#include <utility>

namespace vabi::shard {

namespace {

core::solve_error shard_error(std::string detail) {
  return core::solve_error{core::solve_code::shard_mismatch,
                           tree::invalid_node, std::move(detail)};
}

}  // namespace

std::vector<std::string> list_shard_files(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() < 10 || name.substr(0, 6) != "shard-") continue;
    if (name.substr(name.size() - 4) != ".vjl") continue;
    out.push_back(dir + "/" + name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

core::solve_outcome<core::journal_contents> read_shard(
    const std::string& path, const batch_fingerprints& fps,
    const std::optional<std::uint64_t>& batch_seed) {
  auto read = core::read_batch_journal(path, fps, batch_seed);
  if (!read.ok()) {
    core::solve_error& e = read.error();
    if (e.code == core::solve_code::journal_mismatch) {
      e.code = core::solve_code::shard_mismatch;
    }
    e.detail = "shard '" + path + "': " + e.detail;
    return std::move(e);
  }
  if (!read->has_header) return read;  // torn before the first checkpoint
  if (!read->has_shard) {
    return shard_error("'" + path +
                       "' is a journal but carries no shard header");
  }
  if (read->shard.parent_fingerprint != fps.combined) {
    return shard_error("shard '" + path +
                       "' was written for a different batch (parent "
                       "fingerprint mismatch)");
  }
  return read;
}

core::solve_outcome<shard_scan> scan_shards(
    const std::string& dir, const batch_fingerprints& fps,
    const std::optional<std::uint64_t>& batch_seed) {
  shard_scan scan;
  scan.records.resize(fps.per_job.size());
  std::set<std::uint32_t> shard_indices;
  for (const std::string& path : list_shard_files(dir)) {
    auto read = read_shard(path, fps, batch_seed);
    if (!read.ok()) return std::move(read.error());
    scan.dropped_tail_bytes += read->dropped_tail_bytes;
    if (!read->has_header) continue;
    const std::uint32_t index = read->shard.shard_index;
    if (!shard_indices.insert(index).second) {
      return shard_error("duplicate shard index " + std::to_string(index) +
                         " at '" + path + "'");
    }
    scan.next_shard_index = std::max(scan.next_shard_index, index + 1);
    for (auto& rec : read->records) {
      auto& slot = scan.records[rec.job_index];
      if (slot.has_value()) {
        return shard_error("job " + std::to_string(rec.job_index) +
                           " appears in more than one shard ('" + path +
                           "' overlaps an earlier shard)");
      }
      slot = std::move(rec);
      ++scan.records_read;
    }
    ++scan.shards_read;
  }
  return scan;
}

core::solve_outcome<merged_batch> merge_shards(
    const std::vector<core::batch_job>& jobs,
    const std::optional<std::uint64_t>& batch_seed,
    const std::string& journal_dir) {
  const batch_fingerprints fps = fingerprint_batch(jobs, batch_seed);
  auto scan = scan_shards(journal_dir, fps, batch_seed);
  if (!scan.ok()) return std::move(scan.error());

  merged_batch out;
  out.shards_read = scan->shards_read;
  out.records_merged = scan->records_read;
  out.dropped_tail_bytes = scan->dropped_tail_bytes;
  out.jobs_fingerprint = fps.combined;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!scan->records[i].has_value()) {
      return shard_error("job " + std::to_string(i) +
                         " is covered by no shard under '" + journal_dir +
                         "'");
    }
  }

  // Restore every record with the single-process resume rule, so the merged
  // slots are bit-identical to an uninterrupted solve_journaled run's.
  out.slots.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto restored = core::restore_journal_record(
        jobs[i], i, batch_seed, std::move(*scan->records[i]));
    if (!restored.ok()) return shard_error(std::move(restored.error().detail));
    out.slots.push_back(std::move(*restored));
  }
  return out;
}

}  // namespace vabi::shard
