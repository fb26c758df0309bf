#include "core/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "core/byte_codec.hpp"
#include "testing/fault_injection.hpp"

namespace vabi::core {

namespace {

constexpr char k_magic[8] = {'V', 'A', 'B', 'I', 'J', 'R', 'N', 'L'};
constexpr std::size_t k_magic_size = sizeof(k_magic);
constexpr std::size_t k_frame_head = 8;  // u32 len + u32 crc
/// A frame longer than this is taken as a corrupted length field, not a
/// record (the largest real record is a few MB of canonical-form terms).
constexpr std::uint32_t k_max_frame = 1u << 30;
/// The writer's byte trigger: checkpoint after this many appended bytes.
constexpr std::uint64_t k_checkpoint_every_bytes = 1u << 22;  // 4 MiB

constexpr std::uint8_t k_kind_header = 1;
constexpr std::uint8_t k_kind_record = 2;
constexpr std::uint8_t k_kind_shard = 3;

using namespace codec;

// -- payload codecs ---------------------------------------------------------

std::vector<std::uint8_t> encode_header_payload(const journal_header& h) {
  std::vector<std::uint8_t> out;
  put_u8(out, k_kind_header);
  put_u32(out, h.version);
  put_u8(out, h.has_batch_seed ? 1 : 0);
  put_u64(out, h.batch_seed);
  put_u64(out, h.num_jobs);
  put_u64(out, h.jobs_fingerprint);
  return out;
}

bool decode_header_payload(cursor& c, journal_header& h) {
  h.version = c.get_u32();
  h.has_batch_seed = c.get_u8() != 0;
  h.batch_seed = c.get_u64();
  h.num_jobs = c.get_u64();
  h.jobs_fingerprint = c.get_u64();
  return c.done();
}

std::vector<std::uint8_t> encode_shard_payload(const shard_info& s) {
  std::vector<std::uint8_t> out;
  put_u8(out, k_kind_shard);
  put_u32(out, s.shard_index);
  put_u32(out, s.shard_count);
  put_u64(out, s.parent_fingerprint);
  return out;
}

bool decode_shard_payload(cursor& c, shard_info& s) {
  s.shard_index = c.get_u32();
  s.shard_count = c.get_u32();
  s.parent_fingerprint = c.get_u64();
  return c.done();
}

std::vector<std::uint8_t> record_payload_bytes(const journal_record& r) {
  std::vector<std::uint8_t> out;
  put_u8(out, k_kind_record);
  put_u64(out, r.job_index);
  put_u64(out, r.fingerprint);
  put_u8(out, r.ok ? 1 : 0);
  if (!r.ok) {
    put_u8(out, static_cast<std::uint8_t>(r.code));
    put_u32(out, r.error_node);
    put_str(out, r.detail);
    return out;
  }
  const stat_result& res = r.result;
  put_u8(out, static_cast<std::uint8_t>(res.path));
  put_u64(out, r.num_sources);
  put_u64(out, res.num_buffers);

  const dp_stats& st = res.stats;
  put_u64(out, st.candidates_created);
  put_u64(out, st.candidates_pruned);
  put_u64(out, st.merge_pairs);
  put_u64(out, st.peak_list_size);
  put_u64(out, st.allocations);
  put_u64(out, st.peak_terms);
  put_f64(out, st.wall_seconds);
  put_u8(out, st.aborted ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(st.abort_code));
  put_u32(out, st.abort_node);
  put_str(out, st.abort_reason);

  put_f64(out, res.root_rat.nominal());
  const auto terms = res.root_rat.terms();
  put_u32(out, static_cast<std::uint32_t>(terms.size()));
  for (const auto& t : terms) {
    put_u32(out, t.id);
    put_f64(out, t.coeff);
  }

  put_u32(out, static_cast<std::uint32_t>(res.assignment.num_nodes()));
  for (tree::node_id n = 0; n < res.assignment.num_nodes(); ++n) {
    const std::int32_t b = res.assignment.has_buffer(n)
                               ? static_cast<std::int32_t>(res.assignment.buffer(n))
                               : timing::buffer_assignment::no_buffer;
    put_u32(out, static_cast<std::uint32_t>(b));
  }

  put_u32(out, static_cast<std::uint32_t>(res.wires.num_nodes()));
  for (tree::node_id n = 0; n < res.wires.num_nodes(); ++n) {
    put_u32(out, res.wires.width(n));
  }
  return out;
}

bool record_payload_decode(cursor& c, journal_record& r) {
  r.job_index = c.get_u64();
  r.fingerprint = c.get_u64();
  r.ok = c.get_u8() != 0;
  if (!r.ok) {
    r.code = static_cast<solve_code>(c.get_u8());
    r.error_node = c.get_u32();
    r.detail = c.get_str();
    return c.done();
  }
  stat_result& res = r.result;
  res.path = static_cast<solve_path>(c.get_u8());
  r.num_sources = c.get_u64();
  res.num_buffers = c.get_u64();

  dp_stats& st = res.stats;
  st.candidates_created = c.get_u64();
  st.candidates_pruned = c.get_u64();
  st.merge_pairs = c.get_u64();
  st.peak_list_size = c.get_u64();
  st.allocations = c.get_u64();
  st.peak_terms = c.get_u64();
  st.wall_seconds = c.get_f64();
  st.aborted = c.get_u8() != 0;
  st.abort_code = static_cast<solve_code>(c.get_u8());
  st.abort_node = c.get_u32();
  st.abort_reason = c.get_str();

  const double nominal = c.get_f64();
  const std::uint32_t nterms = c.get_u32();
  if (!c.need(static_cast<std::size_t>(nterms) * 12)) return false;
  std::vector<stats::lf_term> terms(nterms);
  for (auto& t : terms) {
    t.id = c.get_u32();
    t.coeff = c.get_f64();
  }
  res.root_rat = stats::linear_form(nominal, std::move(terms));

  const std::uint32_t anodes = c.get_u32();
  if (!c.need(static_cast<std::size_t>(anodes) * 4)) return false;
  res.assignment = timing::buffer_assignment(anodes);
  for (std::uint32_t n = 0; n < anodes; ++n) {
    const auto b = static_cast<std::int32_t>(c.get_u32());
    if (b != timing::buffer_assignment::no_buffer) {
      res.assignment.place(n, static_cast<timing::buffer_index>(b));
    }
  }

  const std::uint32_t wnodes = c.get_u32();
  if (!c.need(static_cast<std::size_t>(wnodes) * 4)) return false;
  res.wires = timing::wire_assignment(wnodes);
  for (std::uint32_t n = 0; n < wnodes; ++n) {
    res.wires.set(n, c.get_u32());
  }
  return c.done();
}

void append_frame(std::vector<std::uint8_t>& image,
                  std::vector<std::uint8_t> payload, bool allow_faults) {
  put_u32(image, static_cast<std::uint32_t>(payload.size()));
  put_u32(image, crc32(payload.data(), payload.size()));
  if (allow_faults &&
      testing::should_fire(testing::fault_point::journal_crc_flip)) {
    // Flip one payload bit *after* the CRC was computed over the clean
    // bytes -- i.e. corrupt the stored payload, keep the stored CRC.
    // (Flipping before would just journal a different, self-consistent
    // record.) The reader must detect this as a CRC mismatch.
    payload[payload.size() / 2] ^= 0x10;
  }
  image.insert(image.end(), payload.begin(), payload.end());
}

solve_error corrupt(std::string detail) {
  return solve_error{solve_code::journal_corrupt, tree::invalid_node,
                     std::move(detail)};
}

}  // namespace

// ---------------------------------------------------------------------------
// Hashes.
// ---------------------------------------------------------------------------

std::uint32_t crc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

solve_outcome<journal_contents> read_journal(const std::string& path) {
  journal_contents out;

  std::ifstream in(path, std::ios::binary);
  if (!in) return out;  // no file yet: nothing was checkpointed before dying
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (bytes.empty()) return out;

  if (bytes.size() < k_magic_size) {
    // Shorter than the magic: can only be a torn first write.
    out.dropped_tail_bytes = bytes.size();
    return out;
  }
  if (std::memcmp(bytes.data(), k_magic, k_magic_size) != 0) {
    return corrupt("bad magic: '" + path + "' is not a vabi journal");
  }

  std::vector<bool> seen;  // indexed by job_index once the header is known
  std::size_t offset = k_magic_size;
  std::size_t frame_index = 0;
  while (offset < bytes.size()) {
    const std::size_t remaining = bytes.size() - offset;
    if (remaining < k_frame_head) {
      out.dropped_tail_bytes = remaining;  // torn frame header
      break;
    }
    cursor head{bytes.data() + offset, k_frame_head};
    const std::uint32_t len = head.get_u32();
    const std::uint32_t stored_crc = head.get_u32();
    if (len > k_max_frame || k_frame_head + len > remaining) {
      // Length field implausible or frame runs past EOF: a torn tail. (A
      // bit-flipped length mid-log desynchronizes framing; the very next
      // "frame" then fails its CRC with bytes after it and is reported as
      // mid-log corruption below.)
      out.dropped_tail_bytes = remaining;
      break;
    }
    const std::uint8_t* payload = bytes.data() + offset + k_frame_head;
    const std::size_t frame_end = offset + k_frame_head + len;
    if (crc32(payload, len) != stored_crc) {
      if (frame_end == bytes.size()) {
        out.dropped_tail_bytes = remaining;  // bit flip in the last frame
        break;
      }
      return corrupt("CRC mismatch at record " + std::to_string(frame_index) +
                     " (offset " + std::to_string(offset) + ")");
    }
    cursor c{payload, len};
    const std::uint8_t kind = c.get_u8();
    if (frame_index == 0) {
      if (kind != k_kind_header || !decode_header_payload(c, out.header)) {
        return corrupt("first frame is not a valid journal header");
      }
      if (out.header.version != 1) {
        return corrupt("unsupported journal version " +
                       std::to_string(out.header.version));
      }
      out.has_header = true;
      seen.assign(out.header.num_jobs, false);
    } else if (frame_index == 1 && kind == k_kind_shard) {
      // Optional shard frame (sharded batches, src/shard). Only valid in
      // slot 1; a shard frame anywhere else falls through to the record
      // branch and is rejected as an undecodable record.
      if (!decode_shard_payload(c, out.shard)) {
        return corrupt("undecodable shard frame");
      }
      out.has_shard = true;
    } else {
      journal_record rec;
      if (kind != k_kind_record || !record_payload_decode(c, rec)) {
        // The CRC passed, so this is not line noise: reject loudly.
        return corrupt("undecodable record " + std::to_string(frame_index));
      }
      if (rec.job_index < seen.size() && seen[rec.job_index]) {
        ++out.duplicates_dropped;  // keep the first (checkpointed) copy
      } else {
        if (rec.job_index < seen.size()) seen[rec.job_index] = true;
        out.records.push_back(std::move(rec));
      }
    }
    offset = frame_end;
    ++frame_index;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

namespace journal_detail {

std::vector<std::uint8_t> encode_record_frame(const journal_record& record) {
  std::vector<std::uint8_t> frame;
  append_frame(frame, record_payload_bytes(record), /*allow_faults=*/false);
  return frame;
}

std::vector<std::uint8_t> encode_header_frame(const journal_header& header) {
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_header_payload(header), /*allow_faults=*/false);
  return frame;
}

std::vector<std::uint8_t> encode_shard_frame(const shard_info& shard) {
  std::vector<std::uint8_t> frame;
  append_frame(frame, encode_shard_payload(shard), /*allow_faults=*/false);
  return frame;
}

std::vector<std::uint8_t> encode_record_payload(const journal_record& record) {
  return record_payload_bytes(record);
}

bool decode_record_payload(const std::uint8_t* data, std::size_t size,
                           journal_record& out) {
  cursor c{data, size};
  if (c.get_u8() != k_kind_record) return false;
  return record_payload_decode(c, out);
}

}  // namespace journal_detail

journal_writer::journal_writer(std::string path, const journal_header& header,
                               std::size_t checkpoint_every_jobs)
    : path_(std::move(path)), checkpoint_every_jobs_(checkpoint_every_jobs) {
  image_.assign(k_magic, k_magic + k_magic_size);
  append_frame(image_, encode_header_payload(header), /*allow_faults=*/false);
  bytes_at_checkpoint_ = image_.size();
}

journal_writer::journal_writer(std::string path, const journal_header& header,
                               const shard_info& shard,
                               std::size_t checkpoint_every_jobs)
    : journal_writer(std::move(path), header, checkpoint_every_jobs) {
  has_shard_ = true;
  shard_index_ = shard.shard_index;
  append_frame(image_, encode_shard_payload(shard), /*allow_faults=*/false);
  bytes_at_checkpoint_ = image_.size();
}

void journal_writer::restore(const journal_record& record) {
  append_frame(image_, record_payload_bytes(record), /*allow_faults=*/false);
  ++records_;
  records_at_checkpoint_ = records_;
  bytes_at_checkpoint_ = image_.size();
}

void journal_writer::append(const journal_record& record) {
  append_frame(image_, record_payload_bytes(record), /*allow_faults=*/true);
  ++records_;
  maybe_checkpoint();
}

void journal_writer::maybe_checkpoint() {
  const bool jobs_due =
      checkpoint_every_jobs_ != 0 &&
      records_ - records_at_checkpoint_ >= checkpoint_every_jobs_;
  const bool bytes_due =
      image_.size() - bytes_at_checkpoint_ >= k_checkpoint_every_bytes;
  if (jobs_due || bytes_due) flush();
}

void journal_writer::flush() {
  records_at_checkpoint_ = records_;
  bytes_at_checkpoint_ = image_.size();

  const auto fail = [&](const char* what) {
    if (io_error_.empty()) {
      io_error_ = std::string(what) + " '" + path_ + "': " +
                  std::strerror(errno);
    }
  };

  const std::string tmp = path_ + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    fail("journal: cannot open");
    return;
  }
  std::size_t to_write = image_.size();
  // shard_write_short is queried with the shard's index so a test can tear
  // one specific shard's checkpoints (spec clause `node=<shard_index>`).
  if (testing::should_fire(testing::fault_point::journal_write_short) ||
      (has_shard_ && testing::should_fire(
                         testing::fault_point::shard_write_short,
                         shard_index_))) {
    // Simulate a crash mid-write: persist a truncated image (and still
    // rename it into place, as if power died between rename and the next
    // checkpoint). The reader must recover everything up to the torn frame.
    to_write = to_write > 13 ? to_write - 13 : to_write / 2;
  }
  std::size_t written = 0;
  while (written < to_write) {
    const ssize_t n =
        ::write(fd, image_.data() + written, to_write - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("journal: write failed on");
      ::close(fd);
      return;
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("journal: fsync failed on");
  ::close(fd);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    fail("journal: rename failed for");
    return;
  }
  // fsync the directory so the rename itself is durable.
  std::string dir = path_;
  const std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  ++checkpoints_;
}

}  // namespace vabi::core
