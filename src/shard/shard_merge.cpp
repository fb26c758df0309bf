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

core::solve_outcome<merged_batch> merge_shards(
    const std::vector<core::batch_job>& jobs,
    const std::optional<std::uint64_t>& batch_seed,
    const std::string& journal_dir) {
  merged_batch out;
  out.slots.reserve(jobs.size());

  const batch_fingerprints fps = fingerprint_batch(jobs, batch_seed);
  out.jobs_fingerprint = fps.combined;

  std::vector<std::optional<core::journal_record>> recovered(jobs.size());
  std::set<std::uint32_t> shard_indices;

  for (const std::string& path : list_shard_files(journal_dir)) {
    auto read = core::read_journal(path);
    if (!read.ok()) {
      read.error().detail = "shard '" + path + "': " + read.error().detail;
      return std::move(read.error());
    }
    out.dropped_tail_bytes += read->dropped_tail_bytes;
    if (!read->has_header) continue;  // torn before the first checkpoint
    if (!read->has_shard) {
      return shard_error("'" + path +
                         "' is a journal but carries no shard header");
    }
    const core::shard_info& si = read->shard;
    if (si.parent_fingerprint != fps.combined) {
      return shard_error("shard '" + path +
                         "' was written for a different batch (parent "
                         "fingerprint mismatch)");
    }
    const core::journal_header& jh = read->header;
    if (jh.num_jobs != jobs.size() || jh.jobs_fingerprint != fps.combined ||
        jh.has_batch_seed != batch_seed.has_value() ||
        jh.batch_seed != batch_seed.value_or(0)) {
      return shard_error("shard '" + path +
                         "' header disagrees with the batch being merged");
    }
    if (!shard_indices.insert(si.shard_index).second) {
      return shard_error("duplicate shard index " +
                         std::to_string(si.shard_index) + " at '" + path +
                         "'");
    }
    for (auto& rec : read->records) {
      if (rec.job_index >= jobs.size()) {
        return shard_error("shard '" + path +
                           "' has a record for out-of-range job " +
                           std::to_string(rec.job_index));
      }
      if (rec.fingerprint != fps.per_job[rec.job_index]) {
        return shard_error("shard '" + path + "' record for job " +
                           std::to_string(rec.job_index) +
                           " does not fingerprint-match the batch");
      }
      if (!rec.ok && rec.code == core::solve_code::cancelled) {
        continue;  // cancellation is not a result, exactly as in resume
      }
      if (recovered[rec.job_index].has_value()) {
        return shard_error("job " + std::to_string(rec.job_index) +
                           " appears in more than one shard ('" + path +
                           "' overlaps an earlier shard)");
      }
      recovered[rec.job_index] = std::move(rec);
      ++out.records_merged;
    }
    ++out.shards_read;
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!recovered[i].has_value()) {
      return shard_error("job " + std::to_string(i) +
                         " is covered by no shard under '" + journal_dir +
                         "'");
    }
  }

  // Restore every record into its slot with the single-process resume rules
  // (core/parallel.cpp), so the merged slots are bit-identical to an
  // uninterrupted solve_journaled run's.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    core::journal_record& rec = *recovered[i];
    if (!rec.ok) {
      out.slots.emplace_back(
          core::solve_error{rec.code, rec.error_node, rec.detail});
      continue;
    }
    try {
      core::prepared_job setup = core::prepare_batch_job(jobs[i], i, batch_seed);
      if (rec.result.assignment.num_nodes() != 0 &&
          rec.result.assignment.num_nodes() != setup.net->num_nodes()) {
        return shard_error("shard record for job " + std::to_string(i) +
                           " has an assignment over " +
                           std::to_string(rec.result.assignment.num_nodes()) +
                           " nodes; the job's tree has " +
                           std::to_string(setup.net->num_nodes()));
      }
      layout::process_model& model = *setup.model;
      if (rec.num_sources < model.space().size()) {
        return shard_error("shard record for job " + std::to_string(i) +
                           " claims fewer variation sources than the model's "
                           "deterministic prefix");
      }
      while (model.space().size() < rec.num_sources) {
        model.space().add_source(stats::source_kind::random_device, 1.0);
      }
      out.slots.emplace_back(core::batch_result{std::move(rec.result),
                                                std::move(model),
                                                std::move(setup.generated)});
    } catch (const std::exception& e) {
      return shard_error("job " + std::to_string(i) +
                         " cannot be re-prepared for merge: " + e.what());
    }
  }
  return out;
}

}  // namespace vabi::shard
