// Durable result journal: codec round-trips, journaled-vs-plain equality,
// and the resume invariant (a resumed batch is bit-identical to an
// uninterrupted one). The crash matrix itself lives in
// crash_recovery_test.cpp; this file covers the storage layer and the happy
// resume paths.
#include "core/journal.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "batch_hash_test_util.hpp"
#include "core/parallel.hpp"
#include "timing/buffer_library.hpp"

namespace vabi::core {
namespace {

using test_util::hash_outcomes;

/// Unique-ish journal path per test; removed on scope exit.
struct temp_journal {
  std::string path;
  explicit temp_journal(const std::string& name)
      : path(::testing::TempDir() + "vabi_journal_" + name + ".vjl") {
    std::remove(path.c_str());
  }
  ~temp_journal() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
};

std::vector<batch_job> small_batch(std::size_t num_jobs,
                                   std::size_t sinks = 40) {
  std::vector<batch_job> jobs(num_jobs);
  for (auto& job : jobs) {
    tree::random_tree_options g;
    g.num_sinks = sinks;
    job.generate = g;
    job.options.library = timing::standard_library();
  }
  return jobs;
}

batch_solver make_solver(std::size_t threads = 2, std::uint64_t seed = 11) {
  batch_solver::config cfg;
  cfg.num_threads = threads;
  cfg.batch_seed = seed;
  return batch_solver{cfg};
}

TEST(Journal, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value for the ASCII digits "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0x00000000u);
}

TEST(Journal, RecordRoundTripIsBitExact) {
  // Doubles that a decimal text format would mangle: denormals, -0.0,
  // values needing all 17 digits. The journal stores raw bit patterns, so
  // every one must survive exactly.
  const double nasty[] = {
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      0.1,
      1.0 / 3.0,
      -1.2345678901234567e-308,
      1.7976931348623157e308,
  };

  journal_header header;
  header.has_batch_seed = true;
  header.batch_seed = 0xDEADBEEFCAFEBABEull;
  header.num_jobs = 3;
  header.jobs_fingerprint = 42;

  journal_record rec;
  rec.job_index = 2;
  rec.fingerprint = 77;
  rec.ok = true;
  rec.num_sources = 9;
  std::vector<stats::lf_term> terms;
  for (std::size_t k = 0; k < std::size(nasty); ++k) {
    terms.push_back({static_cast<std::uint32_t>(k), nasty[k]});
  }
  rec.result.root_rat = stats::linear_form{nasty[4], terms};
  rec.result.assignment = timing::buffer_assignment{4};
  rec.result.assignment.place(2, 1);
  rec.result.wires = timing::wire_assignment{4};
  rec.result.num_buffers = 1;
  std::size_t value = 101;  // every counter distinct
  for (const stat_counter& c : stat_counters) {
    rec.result.stats.*c.member = value++;
  }
  rec.result.stats.wall_seconds = 0.25;
  rec.result.path = solve_path::primary;

  temp_journal tj{"roundtrip"};
  {
    journal_writer writer{tj.path, header, 1, 0};
    writer.append(rec);
    writer.flush();
    EXPECT_TRUE(writer.io_error().empty());
  }

  auto read = read_journal(tj.path);
  ASSERT_TRUE(read.ok()) << read.error().message();
  ASSERT_TRUE(read->has_header);
  EXPECT_EQ(read->header.batch_seed, header.batch_seed);
  EXPECT_TRUE(read->header.has_batch_seed);
  EXPECT_EQ(read->header.num_jobs, header.num_jobs);
  EXPECT_EQ(read->header.jobs_fingerprint, header.jobs_fingerprint);
  ASSERT_EQ(read->records.size(), 1u);

  const journal_record& got = read->records[0];
  EXPECT_EQ(got.job_index, rec.job_index);
  EXPECT_EQ(got.fingerprint, rec.fingerprint);
  EXPECT_TRUE(got.ok);
  EXPECT_EQ(got.num_sources, rec.num_sources);
  const auto want_terms = rec.result.root_rat.terms();
  const auto got_terms = got.result.root_rat.terms();
  ASSERT_EQ(got_terms.size(), want_terms.size());
  for (std::size_t k = 0; k < want_terms.size(); ++k) {
    EXPECT_EQ(got_terms[k].id, want_terms[k].id);
    // Bit-pattern equality: distinguishes -0.0 from 0.0, exact denormals.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got_terms[k].coeff),
              std::bit_cast<std::uint64_t>(want_terms[k].coeff))
        << "term " << k;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.result.root_rat.nominal()),
            std::bit_cast<std::uint64_t>(rec.result.root_rat.nominal()));
  ASSERT_EQ(got.result.assignment.num_nodes(), 4u);
  EXPECT_TRUE(got.result.assignment.has_buffer(2));
  EXPECT_EQ(got.result.assignment.buffer(2), 1u);
  EXPECT_EQ(got.result.num_buffers, 1u);
  // A restored result carries the result counters and the two telemetry
  // counters; the organization counters are not journaled and read 0.
  for (const stat_counter& c : stat_counters) {
    const std::size_t want = c.kind == stat_class::organization
                                 ? 0
                                 : rec.result.stats.*c.member;
    EXPECT_EQ(got.result.stats.*c.member, want) << c.name;
  }
  EXPECT_EQ(got.result.stats.wall_seconds, 0.25);
}

TEST(Journal, ErrorRecordRoundTrips) {
  journal_header header;
  header.num_jobs = 1;

  journal_record rec;
  rec.job_index = 0;
  rec.fingerprint = 5;
  rec.ok = false;
  rec.code = solve_code::candidate_cap;
  rec.error_node = 17;
  rec.detail = "candidate list exceeded max_list_size at node 17";

  temp_journal tj{"error_record"};
  {
    journal_writer writer{tj.path, header};
    writer.append(rec);
    writer.flush();
  }
  auto read = read_journal(tj.path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_FALSE(read->records[0].ok);
  EXPECT_EQ(read->records[0].code, solve_code::candidate_cap);
  EXPECT_EQ(read->records[0].error_node, 17u);
  EXPECT_EQ(read->records[0].detail, rec.detail);
}

TEST(Journal, MissingFileReadsAsEmpty) {
  auto read = read_journal(::testing::TempDir() + "vabi_journal_nonexistent.vjl");
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->has_header);
  EXPECT_TRUE(read->records.empty());
}

TEST(Journal, JournaledBatchIsBitIdenticalToPlain) {
  const auto jobs = small_batch(6);
  auto solver = make_solver();
  const auto plain = solver.solve_outcomes(jobs);

  temp_journal tj{"vs_plain"};
  batch_journal_options jopts;
  jopts.path = tj.path;
  jopts.checkpoint_every_jobs = 2;
  auto journaled = solver.solve_journaled(jobs, jopts);
  ASSERT_TRUE(journaled.ok()) << journaled.error().message();
  EXPECT_EQ(journaled->restored, 0u);
  EXPECT_EQ(journaled->solved, jobs.size());
  EXPECT_GE(journaled->checkpoints, 3u);  // every 2 jobs + final flush
  EXPECT_TRUE(journaled->journal_warning.empty());

  EXPECT_EQ(hash_outcomes(journaled->slots), hash_outcomes(plain));
}

TEST(Journal, ResumeFromCompleteJournalRestoresEverythingBitIdentically) {
  const auto jobs = small_batch(5);
  auto solver = make_solver();

  temp_journal tj{"resume_complete"};
  batch_journal_options jopts;
  jopts.path = tj.path;
  auto first = solver.solve_journaled(jobs, jopts);
  ASSERT_TRUE(first.ok());

  jopts.resume = true;
  jopts.verify_restored = true;  // the resume invariant, executable
  auto second = solver.solve_journaled(jobs, jopts);
  ASSERT_TRUE(second.ok()) << second.error().message();
  EXPECT_EQ(second->restored, jobs.size());
  EXPECT_EQ(second->solved, 0u);
  EXPECT_EQ(hash_outcomes(second->slots), hash_outcomes(first->slots));
}

TEST(Journal, ResumeFromPartialJournalSolvesOnlyTheRest) {
  const auto jobs = small_batch(6);
  auto solver = make_solver();

  temp_journal tj{"resume_partial"};
  batch_journal_options jopts;
  jopts.path = tj.path;
  auto full = solver.solve_journaled(jobs, jopts);
  ASSERT_TRUE(full.ok());

  // Craft a partial journal: header + the records for jobs 0, 2 and 4 only,
  // exactly as a run killed mid-way would have left them.
  auto read = read_journal(tj.path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), jobs.size());
  {
    std::ofstream os(tj.path, std::ios::binary | std::ios::trunc);
    os.write("VABIJRNL", 8);
    auto frame = journal_detail::encode_header_frame(read->header);
    os.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
    for (const auto& rec : read->records) {
      if (rec.job_index % 2 != 0) continue;
      frame = journal_detail::encode_record_frame(rec);
      os.write(reinterpret_cast<const char*>(frame.data()),
               static_cast<std::streamsize>(frame.size()));
    }
  }

  jopts.resume = true;
  auto resumed = solver.solve_journaled(jobs, jopts);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message();
  EXPECT_EQ(resumed->restored, 3u);
  EXPECT_EQ(resumed->solved, 3u);
  EXPECT_EQ(hash_outcomes(resumed->slots), hash_outcomes(full->slots));
}

TEST(Journal, ResumeIsThreadCountInvariant) {
  const auto jobs = small_batch(6);

  temp_journal tj{"resume_threads"};
  batch_journal_options jopts;
  jopts.path = tj.path;

  auto serial = make_solver(/*threads=*/1);
  auto reference = serial.solve_outcomes(jobs);

  auto first = make_solver(/*threads=*/1).solve_journaled(jobs, jopts);
  ASSERT_TRUE(first.ok());

  // Keep only half the records, then resume on 8 threads: the restored half
  // and the re-solved half must both match the serial reference bit for bit.
  auto read = read_journal(tj.path);
  ASSERT_TRUE(read.ok());
  {
    std::ofstream os(tj.path, std::ios::binary | std::ios::trunc);
    os.write("VABIJRNL", 8);
    auto frame = journal_detail::encode_header_frame(read->header);
    os.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
    for (const auto& rec : read->records) {
      if (rec.job_index >= 3) continue;
      frame = journal_detail::encode_record_frame(rec);
      os.write(reinterpret_cast<const char*>(frame.data()),
               static_cast<std::streamsize>(frame.size()));
    }
  }
  jopts.resume = true;
  auto resumed = make_solver(/*threads=*/8).solve_journaled(jobs, jopts);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message();
  EXPECT_EQ(resumed->restored, 3u);
  EXPECT_EQ(hash_outcomes(resumed->slots), hash_outcomes(reference));
}

TEST(Journal, ErrorOutcomesAreJournaledAndRestored) {
  // Job 1 has neither a tree nor generator options: solving it yields a
  // typed error, and that *error* must journal and restore verbatim.
  auto jobs = small_batch(3);
  jobs[1].generate.reset();

  auto solver = make_solver();
  temp_journal tj{"error_restore"};
  batch_journal_options jopts;
  jopts.path = tj.path;
  auto first = solver.solve_journaled(jobs, jopts);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->slots[1].ok());
  const auto code = first->slots[1].error().code;
  const auto detail = first->slots[1].error().detail;

  jopts.resume = true;
  auto second = solver.solve_journaled(jobs, jopts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->restored, 3u);
  ASSERT_FALSE(second->slots[1].ok());
  EXPECT_EQ(second->slots[1].error().code, code);
  EXPECT_EQ(second->slots[1].error().detail, detail);
  EXPECT_EQ(hash_outcomes(second->slots), hash_outcomes(first->slots));
}

TEST(Journal, FingerprintSeesOptionsTreeAndSeed) {
  auto jobs = small_batch(2);
  const auto base = fingerprint_job(jobs[0], 0, 11);

  EXPECT_NE(fingerprint_job(jobs[0], 1, 11), base) << "index must matter";
  EXPECT_NE(fingerprint_job(jobs[0], 0, 12), base) << "batch seed must matter";

  auto tweaked = jobs[0];
  tweaked.options.driver_res_ohm += 1.0;
  EXPECT_NE(fingerprint_job(tweaked, 0, 11), base) << "options must matter";

  tweaked = jobs[0];
  tweaked.generate->num_sinks += 1;
  EXPECT_NE(fingerprint_job(tweaked, 0, 11), base) << "generator must matter";

  tweaked = jobs[0];
  tweaked.model.mode = layout::nom_mode();
  EXPECT_NE(fingerprint_job(tweaked, 0, 11), base) << "model config must matter";
}

}  // namespace
}  // namespace vabi::core
