// Corruption corpus for the result journal: every damaged input must either
// recover (torn tails, duplicates) or fail with a typed solve_error -- never
// throw, never return silently wrong records. Mirrors the philosophy of
// tree_io_corpus_test.cpp for the binary journal format.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/parallel.hpp"
#include "testing/fault_injection.hpp"
#include "timing/buffer_library.hpp"

namespace vabi::core {
namespace {

struct temp_journal {
  std::string path;
  explicit temp_journal(const std::string& name)
      : path(::testing::TempDir() + "vabi_corpus_" + name + ".vjl") {
    std::remove(path.c_str());
  }
  ~temp_journal() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
};

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(b.data()),
           static_cast<std::streamsize>(b.size()));
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

journal_record make_record(std::uint64_t index) {
  journal_record rec;
  rec.job_index = index;
  rec.fingerprint = 1000 + index;
  rec.ok = true;
  rec.num_sources = 3;
  rec.result.root_rat =
      stats::linear_form{-100.0 - static_cast<double>(index),
                         {{0, 1.5}, {1, -2.5}}};
  rec.result.assignment = timing::buffer_assignment{3};
  rec.result.wires = timing::wire_assignment{3};
  rec.result.num_buffers = 0;
  return rec;
}

/// magic + header frame + `count` record frames, as raw bytes.
std::vector<std::uint8_t> valid_image(std::size_t count) {
  std::vector<std::uint8_t> image{'V', 'A', 'B', 'I', 'J', 'R', 'N', 'L'};
  journal_header header;
  header.num_jobs = count;
  header.jobs_fingerprint = 7;
  auto frame = journal_detail::encode_header_frame(header);
  image.insert(image.end(), frame.begin(), frame.end());
  for (std::size_t i = 0; i < count; ++i) {
    frame = journal_detail::encode_record_frame(make_record(i));
    image.insert(image.end(), frame.begin(), frame.end());
  }
  return image;
}

TEST(JournalCorpus, ZeroLengthFileIsAnEmptyJournal) {
  temp_journal tj{"zero_length"};
  write_bytes(tj.path, {});
  auto read = read_journal(tj.path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->has_header);
  EXPECT_TRUE(read->records.empty());
}

TEST(JournalCorpus, MagicOnlyFileIsAnEmptyJournal) {
  temp_journal tj{"magic_only"};
  write_bytes(tj.path, {'V', 'A', 'B', 'I', 'J', 'R', 'N', 'L'});
  auto read = read_journal(tj.path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->has_header);
}

TEST(JournalCorpus, WrongMagicIsTypedCorrupt) {
  temp_journal tj{"wrong_magic"};
  auto image = valid_image(2);
  image[3] = 'X';
  write_bytes(tj.path, image);
  auto read = read_journal(tj.path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().code, solve_code::journal_corrupt);
}

TEST(JournalCorpus, EveryTruncationRecoversOrDropsTheTail) {
  // Chop the file at every possible byte length: each prefix must read back
  // as some valid prefix of the record sequence with the torn tail dropped,
  // never an error, never a record that was not written.
  const auto image = valid_image(3);
  for (std::size_t len = 0; len < image.size(); ++len) {
    temp_journal tj{"truncate_" + std::to_string(len)};
    write_bytes(tj.path,
                std::vector<std::uint8_t>(image.begin(), image.begin() + len));
    auto read = read_journal(tj.path);
    ASSERT_TRUE(read.ok()) << "truncated at " << len << ": "
                           << read.error().message();
    EXPECT_LE(read->records.size(), 3u);
    for (std::size_t k = 0; k < read->records.size(); ++k) {
      EXPECT_EQ(read->records[k].job_index, k) << "truncated at " << len;
    }
  }
}

TEST(JournalCorpus, BitFlipInLastFrameDropsTheTail) {
  auto image = valid_image(3);
  image[image.size() - 5] ^= 0x04;  // inside the last record's payload
  temp_journal tj{"flip_last"};
  write_bytes(tj.path, image);
  auto read = read_journal(tj.path);
  ASSERT_TRUE(read.ok()) << read.error().message();
  EXPECT_EQ(read->records.size(), 2u);
  EXPECT_GT(read->dropped_tail_bytes, 0u);
}

TEST(JournalCorpus, BitFlipMidLogIsTypedCorruptNamingTheRecord) {
  // Flip one bit in *every* payload byte position of record 0 in turn; with
  // two intact records after it, each flip must surface as journal_corrupt
  // (frame 1 = record index 0), never as UB or silent acceptance.
  const auto clean = valid_image(3);
  // Find where record 0's frame starts: magic + header frame.
  std::size_t rec0 = 8;
  {
    journal_header header;
    header.num_jobs = 3;
    header.jobs_fingerprint = 7;
    rec0 += journal_detail::encode_header_frame(header).size();
  }
  const std::size_t rec0_size =
      journal_detail::encode_record_frame(make_record(0)).size();
  std::size_t typed = 0;
  for (std::size_t off = rec0 + 8; off < rec0 + rec0_size; off += 7) {
    auto image = clean;
    image[off] ^= 0x01;
    temp_journal tj{"flip_mid_" + std::to_string(off)};
    write_bytes(tj.path, image);
    auto read = read_journal(tj.path);
    ASSERT_FALSE(read.ok()) << "payload flip at " << off << " not detected";
    EXPECT_EQ(read.error().code, solve_code::journal_corrupt);
    EXPECT_NE(read.error().detail.find("record"), std::string::npos)
        << read.error().detail;
    ++typed;
  }
  EXPECT_GT(typed, 5u);
}

TEST(JournalCorpus, CorruptLengthFieldMidLogIsDetected) {
  // Flipping a high bit of a mid-log frame's length field makes the frame
  // claim to extend past intact data; the reader must not walk off.
  auto image = valid_image(3);
  journal_header header;
  header.num_jobs = 3;
  header.jobs_fingerprint = 7;
  const std::size_t rec0 = 8 + journal_detail::encode_header_frame(header).size();
  image[rec0 + 2] ^= 0x40;  // length's third byte: +4 MiB
  temp_journal tj{"bad_len"};
  write_bytes(tj.path, image);
  auto read = read_journal(tj.path);
  // The oversized frame swallows the intact frames after it, so the reader
  // sees a frame running past EOF -- a torn tail -- or a CRC mismatch with
  // nothing after it. Either way: recovered prefix, no fabricated records.
  ASSERT_TRUE(read.ok()) << read.error().message();
  EXPECT_TRUE(read->records.empty());
  EXPECT_GT(read->dropped_tail_bytes, 0u);
}

TEST(JournalCorpus, DuplicatedRecordsKeepTheFirst) {
  std::vector<std::uint8_t> image{'V', 'A', 'B', 'I', 'J', 'R', 'N', 'L'};
  journal_header header;
  header.num_jobs = 2;
  auto frame = journal_detail::encode_header_frame(header);
  image.insert(image.end(), frame.begin(), frame.end());
  auto first = make_record(0);
  first.num_sources = 3;
  auto dup = make_record(0);
  dup.num_sources = 99;  // distinguishable payload, same job_index
  for (const auto* rec : {&first, &dup, &dup}) {
    frame = journal_detail::encode_record_frame(*rec);
    image.insert(image.end(), frame.begin(), frame.end());
  }
  temp_journal tj{"duplicates"};
  write_bytes(tj.path, image);
  auto read = read_journal(tj.path);
  ASSERT_TRUE(read.ok()) << read.error().message();
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].num_sources, 3u) << "first record must win";
  EXPECT_EQ(read->duplicates_dropped, 2u);
}

TEST(JournalCorpus, ValidCrcUndecodablePayloadIsTypedCorrupt) {
  // A frame whose CRC is fine but whose payload is not a record (unknown
  // kind byte): framing cannot save it, the decoder must reject it typed.
  std::vector<std::uint8_t> image{'V', 'A', 'B', 'I', 'J', 'R', 'N', 'L'};
  journal_header header;
  header.num_jobs = 1;
  auto frame = journal_detail::encode_header_frame(header);
  image.insert(image.end(), frame.begin(), frame.end());
  const std::vector<std::uint8_t> payload{0x7F, 0x01, 0x02, 0x03};
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  auto rec_frame = journal_detail::encode_record_frame(make_record(0));
  // Hand-build the bogus frame: len | crc | payload.
  for (unsigned shift = 0; shift < 32; shift += 8) {
    image.push_back(
        static_cast<std::uint8_t>((payload.size() >> shift) & 0xFF));
  }
  for (unsigned shift = 0; shift < 32; shift += 8) {
    image.push_back(static_cast<std::uint8_t>((crc >> shift) & 0xFF));
  }
  image.insert(image.end(), payload.begin(), payload.end());
  // An intact record after it, so tail-dropping is not an option.
  image.insert(image.end(), rec_frame.begin(), rec_frame.end());
  temp_journal tj{"bad_kind"};
  write_bytes(tj.path, image);
  auto read = read_journal(tj.path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().code, solve_code::journal_corrupt);
}

// --- typed rejection of journals that do not match the resumed batch -------

std::vector<batch_job> tiny_batch(std::size_t n) {
  std::vector<batch_job> jobs(n);
  for (auto& job : jobs) {
    tree::random_tree_options g;
    g.num_sinks = 25;
    job.generate = g;
    job.options.library = timing::standard_library();
  }
  return jobs;
}

solve_outcome<journaled_batch> run(std::vector<batch_job> jobs,
                                   const std::string& path,
                                   std::uint64_t seed, bool resume) {
  batch_solver::config cfg;
  cfg.num_threads = 1;
  cfg.batch_seed = seed;
  batch_solver solver{cfg};
  batch_journal_options jopts;
  jopts.path = path;
  jopts.resume = resume;
  return solver.solve_journaled(jobs, jopts);
}

TEST(JournalCorpus, ResumeWithDifferentSeedIsTypedMismatch) {
  temp_journal tj{"seed_mismatch"};
  ASSERT_TRUE(run(tiny_batch(2), tj.path, 11, false).ok());
  auto resumed = run(tiny_batch(2), tj.path, 12, true);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, solve_code::journal_mismatch);
}

TEST(JournalCorpus, ResumeWithDifferentJobCountIsTypedMismatch) {
  temp_journal tj{"count_mismatch"};
  ASSERT_TRUE(run(tiny_batch(2), tj.path, 11, false).ok());
  auto resumed = run(tiny_batch(3), tj.path, 11, true);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, solve_code::journal_mismatch);
}

TEST(JournalCorpus, ResumeWithDifferentOptionsIsTypedMismatch) {
  temp_journal tj{"options_mismatch"};
  ASSERT_TRUE(run(tiny_batch(2), tj.path, 11, false).ok());
  auto jobs = tiny_batch(2);
  jobs[0].options.driver_res_ohm += 25.0;  // a different problem entirely
  auto resumed = run(std::move(jobs), tj.path, 11, true);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, solve_code::journal_mismatch);
}

TEST(JournalCorpus, ResumeFromCorruptJournalIsTypedNotSilent) {
  temp_journal tj{"resume_corrupt"};
  ASSERT_TRUE(run(tiny_batch(3), tj.path, 11, false).ok());
  auto image = read_bytes(tj.path);
  ASSERT_GT(image.size(), 200u);
  image[image.size() / 2] ^= 0x08;  // mid-log damage
  write_bytes(tj.path, image);
  auto resumed = run(tiny_batch(3), tj.path, 11, true);
  // Depending on which frame the midpoint lands in, this is either mid-log
  // corruption (typed) or a torn tail (recovered, rest re-solved). Both are
  // sound; silent acceptance of a damaged record is not, and verify below
  // that the successful case still solved every job.
  if (resumed.ok()) {
    for (const auto& slot : resumed->slots) {
      EXPECT_TRUE(slot.ok());
    }
  } else {
    EXPECT_EQ(resumed.error().code, solve_code::journal_corrupt);
  }
}

// --- the recovery rules, record by record -----------------------------------
//
// Journals whose header matches the resumed batch, rewritten from a genuine
// run's records with one record changed: each change either makes the journal
// unusable (journal_mismatch) or keeps its job from being restored.

/// The genuine journal of tiny_batch(2) under seed 11, read back.
journal_contents genuine_journal(const std::string& path) {
  EXPECT_TRUE(run(tiny_batch(2), path, 11, false).ok());
  auto read = read_journal(path);
  EXPECT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 2u);
  return std::move(*read);
}

/// Rewrites `path` as `journal`'s header followed by its records.
void rewrite_journal(const std::string& path, const journal_contents& journal) {
  journal_writer writer{path, journal.header};
  for (const auto& rec : journal.records) writer.append(rec);
  writer.flush();
}

journal_record* record_of_job(journal_contents& journal, std::uint64_t job) {
  for (auto& rec : journal.records) {
    if (rec.job_index == job) return &rec;
  }
  return nullptr;
}

TEST(JournalCorpus, ResumeRecordWithForeignFingerprintIsTypedMismatch) {
  temp_journal tj{"record_fingerprint"};
  journal_contents journal = genuine_journal(tj.path);
  journal_record* rec = record_of_job(journal, 1);
  ASSERT_NE(rec, nullptr);
  rec->fingerprint ^= 1;  // the header still matches
  rewrite_journal(tj.path, journal);
  auto resumed = run(tiny_batch(2), tj.path, 11, true);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, solve_code::journal_mismatch);
}

TEST(JournalCorpus, ResumeRecordForOutOfRangeJobIsTypedMismatch) {
  temp_journal tj{"record_out_of_range"};
  journal_contents journal = genuine_journal(tj.path);
  journal_record* rec = record_of_job(journal, 1);
  ASSERT_NE(rec, nullptr);
  rec->job_index = 2;  // the batch has jobs 0 and 1
  rewrite_journal(tj.path, journal);
  auto resumed = run(tiny_batch(2), tj.path, 11, true);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, solve_code::journal_mismatch);
}

TEST(JournalCorpus, JournaledCancellationIsReSolvedNotRestored) {
  temp_journal tj{"record_cancelled"};
  auto reference = run(tiny_batch(2), tj.path, 11, false);
  ASSERT_TRUE(reference.ok());
  journal_contents journal = genuine_journal(tj.path);
  journal_record* rec = record_of_job(journal, 0);
  ASSERT_NE(rec, nullptr);
  rec->ok = false;
  rec->code = solve_code::cancelled;
  rec->detail = "cancelled before start";
  rec->num_sources = 0;
  rec->result = stat_result{};
  rewrite_journal(tj.path, journal);

  auto resumed = run(tiny_batch(2), tj.path, 11, true);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message();
  EXPECT_EQ(resumed->restored, 1u);
  EXPECT_EQ(resumed->solved, 1u);
  ASSERT_TRUE(resumed->slots[0].ok()) << resumed->slots[0].error().message();
  EXPECT_TRUE(resumed->slots[0]->result.root_rat ==
              reference->slots[0]->result.root_rat);
}

TEST(JournalCorpus, RestoredRecordOverAnotherNodeCountIsTypedMismatch) {
  temp_journal tj{"record_node_count"};
  journal_contents journal = genuine_journal(tj.path);
  journal_record* rec = record_of_job(journal, 0);
  ASSERT_TRUE(rec != nullptr && rec->ok);
  rec->result.assignment = timing::buffer_assignment{3};
  rewrite_journal(tj.path, journal);
  auto resumed = run(tiny_batch(2), tj.path, 11, true);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, solve_code::journal_mismatch);
}

TEST(JournalCorpus, RestoredRecordBelowTheDeterministicPrefixIsTypedMismatch) {
  temp_journal tj{"record_num_sources"};
  journal_contents journal = genuine_journal(tj.path);
  journal_record* rec = record_of_job(journal, 0);
  ASSERT_TRUE(rec != nullptr && rec->ok);
  rec->num_sources = 0;  // WID: inter-die + spatial sources precede devices
  rewrite_journal(tj.path, journal);
  auto resumed = run(tiny_batch(2), tj.path, 11, true);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, solve_code::journal_mismatch);
}

// --- fault-injected writer damage ------------------------------------------

TEST(JournalCorpus, ShortCheckpointWriteLosesTailNotSoundness) {
  // journal_write_short truncates every checkpoint image by 13 bytes -- a
  // crash between write() and the full image landing. The next open must
  // recover a clean prefix, and a resume must re-solve what the tail lost.
  temp_journal tj{"write_short"};
  testing::arm("journal_write_short:after=0");
  auto first = run(tiny_batch(3), tj.path, 11, false);
  testing::disarm();
  ASSERT_TRUE(first.ok());

  auto read = read_journal(tj.path);
  ASSERT_TRUE(read.ok()) << read.error().message();
  EXPECT_GT(read->dropped_tail_bytes, 0u);
  EXPECT_LT(read->records.size(), 3u);

  auto resumed = run(tiny_batch(3), tj.path, 11, true);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message();
  EXPECT_EQ(resumed->restored, read->records.size());
  for (const auto& slot : resumed->slots) EXPECT_TRUE(slot.ok());
}

TEST(JournalCorpus, CrcFlipOnAppendIsDetectedOnRead) {
  // journal_crc_flip flips a payload bit *after* the CRC is computed: the
  // file carries a record whose checksum cannot match. Reading it back must
  // detect the damage (tail drop or typed corrupt), never hand the flipped
  // record back as valid.
  temp_journal tj{"crc_flip"};
  testing::arm("journal_crc_flip:after=1");  // flip the second record
  auto first = run(tiny_batch(3), tj.path, 11, false);
  testing::disarm();
  ASSERT_TRUE(first.ok());

  auto read = read_journal(tj.path);
  if (read.ok()) {
    // The flipped frame was the last intact thing before EOF: torn tail.
    EXPECT_LT(read->records.size(), 3u);
    EXPECT_GT(read->dropped_tail_bytes, 0u);
  } else {
    EXPECT_EQ(read.error().code, solve_code::journal_corrupt);
  }
}

}  // namespace
}  // namespace vabi::core
