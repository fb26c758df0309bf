// Corruption corpus for the shard merger: hand-crafted shard directories --
// truncated tails, bit-flipped mid-shard records, the same job in two
// shards, a missing shard, headers from a different batch -- each of which
// must come back as a *typed* shard_mismatch / journal_corrupt, never a
// wrong merge or UB. Frames are spliced from the real codec
// (core::journal_detail), so the corpus stays valid as the format evolves.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/parallel.hpp"
#include "shard/shard_merge.hpp"
#include "timing/buffer_library.hpp"

namespace vabi::shard {
namespace {

constexpr std::uint64_t k_seed = 77;

std::vector<core::batch_job> corpus_jobs() {
  std::vector<core::batch_job> jobs(4);
  for (auto& job : jobs) {
    tree::random_tree_options g;
    g.num_sinks = 10;
    job.generate = g;
    job.options.library = timing::standard_library();
  }
  return jobs;
}

/// The four genuine records a single-process run would journal, solved once
/// per suite; crafted shards splice these real frames.
const std::vector<core::journal_record>& solved_records() {
  static const std::vector<core::journal_record> records = [] {
    const auto jobs = corpus_jobs();
    const batch_fingerprints fps = fingerprint_batch(jobs, k_seed);
    std::vector<core::journal_record> out;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      core::prepared_job setup = core::prepare_batch_job(jobs[i], i, k_seed);
      auto solved = core::solve_statistical_insertion(
          *setup.net, *setup.model, jobs[i].options, nullptr);
      core::journal_record rec;
      rec.job_index = i;
      rec.fingerprint = fps.per_job[i];
      rec.ok = solved.ok();
      if (solved.ok()) {
        rec.num_sources = setup.model->space().size();
        rec.result = std::move(*solved);
        rec.result.root_rat.own_terms();
      }
      out.push_back(std::move(rec));
    }
    return out;
  }();
  return records;
}

class ShardMergeCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/vabi-shard-corpus-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  core::journal_header header() const {
    const auto jobs = corpus_jobs();
    core::journal_header h;
    h.has_batch_seed = true;
    h.batch_seed = k_seed;
    h.num_jobs = jobs.size();
    h.jobs_fingerprint = fingerprint_batch(jobs, k_seed).combined;
    return h;
  }

  core::shard_info shard(std::uint32_t index) const {
    core::shard_info si;
    si.shard_index = index;
    si.shard_count = 2;
    si.parent_fingerprint = header().jobs_fingerprint;
    return si;
  }

  /// Writes `shard-<index>.vjl`: magic + header frame + shard frame + one
  /// record frame per listed job.
  std::string write_shard(std::uint32_t index, const core::shard_info& si,
                          const std::vector<std::size_t>& job_indices,
                          bool with_shard_frame = true) {
    std::vector<std::uint8_t> image;
    const char magic[] = "VABIJRNL";
    image.insert(image.end(), magic, magic + 8);
    const auto hdr = core::journal_detail::encode_header_frame(header());
    image.insert(image.end(), hdr.begin(), hdr.end());
    if (with_shard_frame) {
      const auto sf = core::journal_detail::encode_shard_frame(si);
      image.insert(image.end(), sf.begin(), sf.end());
    }
    for (const std::size_t j : job_indices) {
      const auto rf =
          core::journal_detail::encode_record_frame(solved_records()[j]);
      image.insert(image.end(), rf.begin(), rf.end());
    }
    char name[32];
    std::snprintf(name, sizeof name, "shard-%05u.vjl", index);
    const std::string path = dir_ + "/" + name;
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
    return path;
  }

  core::solve_outcome<merged_batch> merge() {
    return merge_shards(corpus_jobs(), k_seed, dir_);
  }

  std::string dir_;
};

TEST_F(ShardMergeCorpusTest, CraftedShardsMergeCleanly) {
  write_shard(0, shard(0), {0, 1});
  write_shard(1, shard(1), {2, 3});
  auto out = merge();
  ASSERT_TRUE(out.ok()) << out.error().message();
  EXPECT_EQ(out->shards_read, 2u);
  EXPECT_EQ(out->records_merged, 4u);
  for (const auto& slot : out->slots) EXPECT_TRUE(slot.ok());
}

TEST_F(ShardMergeCorpusTest, TruncatedShardTailLosesAJobTyped) {
  write_shard(0, shard(0), {0, 1});
  const std::string path = write_shard(1, shard(1), {2, 3});
  // Tear the last record's frame: torn tails are dropped (exactly like
  // single-journal resume), which leaves job 3 covered by no shard -- a
  // typed merge failure, never a silent partial result.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);
  auto out = merge();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, core::solve_code::shard_mismatch);
  EXPECT_NE(out.error().detail.find("covered by no shard"), std::string::npos)
      << out.error().detail;
}

TEST_F(ShardMergeCorpusTest, BitFlippedMidShardRecordIsJournalCorrupt) {
  write_shard(0, shard(0), {0, 1});
  const std::string path = write_shard(1, shard(1), {2, 3});
  // Flip one byte inside the *first* record frame, after magic (8) + header
  // frame + shard frame: frames after the damage are intact, so this is
  // mid-log corruption -- unskippable, reported typed with the file named.
  const auto hdr = core::journal_detail::encode_header_frame(header());
  const auto sf = core::journal_detail::encode_shard_frame(shard(1));
  const std::uint64_t at = 8 + hdr.size() + sf.size() + 16;  // in rec2 payload
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(at));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(static_cast<std::streamoff>(at));
  f.write(&b, 1);
  f.close();
  auto out = merge();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, core::solve_code::journal_corrupt);
  EXPECT_NE(out.error().detail.find(path), std::string::npos)
      << out.error().detail;
}

TEST_F(ShardMergeCorpusTest, SameJobInTwoShardsIsTypedOverlap) {
  write_shard(0, shard(0), {0, 1});
  write_shard(1, shard(1), {1, 2, 3});  // job 1 solved "twice"
  auto out = merge();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, core::solve_code::shard_mismatch);
  EXPECT_NE(out.error().detail.find("more than one shard"), std::string::npos)
      << out.error().detail;
}

TEST_F(ShardMergeCorpusTest, MissingShardLeavesJobsUncovered) {
  write_shard(0, shard(0), {0, 1});
  // Shard 1 (jobs 2 and 3) never made it to the directory.
  auto out = merge();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, core::solve_code::shard_mismatch);
  EXPECT_NE(out.error().detail.find("covered by no shard"), std::string::npos)
      << out.error().detail;
}

TEST_F(ShardMergeCorpusTest, ForeignParentFingerprintIsRejected) {
  write_shard(0, shard(0), {0, 1});
  core::shard_info foreign = shard(1);
  foreign.parent_fingerprint ^= 0xdeadbeefULL;  // some other batch's shards
  write_shard(1, foreign, {2, 3});
  auto out = merge();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, core::solve_code::shard_mismatch);
  EXPECT_NE(out.error().detail.find("different batch"), std::string::npos)
      << out.error().detail;
}

TEST_F(ShardMergeCorpusTest, DuplicateShardIndexIsRejected) {
  write_shard(0, shard(0), {0, 1});
  write_shard(1, shard(0), {2, 3});  // second file claims index 0 too
  auto out = merge();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, core::solve_code::shard_mismatch);
  EXPECT_NE(out.error().detail.find("duplicate shard index"),
            std::string::npos)
      << out.error().detail;
}

TEST_F(ShardMergeCorpusTest, RecordOverAnotherNodeCountIsShardMismatch) {
  write_shard(0, shard(0), {0, 1, 2});
  core::journal_record rec = solved_records()[3];
  ASSERT_TRUE(rec.ok);
  rec.result.assignment = timing::buffer_assignment{3};
  core::journal_writer writer{dir_ + "/shard-00001.vjl", header(), shard(1)};
  writer.append(rec);
  writer.flush();
  auto out = merge();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, core::solve_code::shard_mismatch);
}

TEST_F(ShardMergeCorpusTest, RecordBelowTheDeterministicPrefixIsShardMismatch) {
  write_shard(0, shard(0), {0, 1, 2});
  core::journal_record rec = solved_records()[3];
  ASSERT_TRUE(rec.ok);
  rec.num_sources = 0;  // WID: inter-die + spatial sources precede devices
  core::journal_writer writer{dir_ + "/shard-00001.vjl", header(), shard(1)};
  writer.append(rec);
  writer.flush();
  auto out = merge();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, core::solve_code::shard_mismatch);
}

TEST_F(ShardMergeCorpusTest, PlainJournalAmongShardsIsRejected) {
  write_shard(0, shard(0), {0, 1});
  // A shard-named file that is a valid *plain* journal (no shard frame):
  // somebody pointed the merge at a single-process journal directory.
  write_shard(1, shard(1), {2, 3}, /*with_shard_frame=*/false);
  auto out = merge();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, core::solve_code::shard_mismatch);
  EXPECT_NE(out.error().detail.find("no shard header"), std::string::npos)
      << out.error().detail;
}

}  // namespace
}  // namespace vabi::shard
