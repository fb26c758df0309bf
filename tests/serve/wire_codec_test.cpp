// Malformed-frame corpus for the serve wire codec, mirroring
// tests/tree/tree_io_corpus_test.cpp's discipline: every way a frame can be
// damaged -- truncation at every byte boundary, a bit flip in every
// header/payload bit, bogus message kinds, oversized length prefixes --
// must come back as a typed decode status (need_more / corrupt), never a
// crash, never an out-of-bounds read, and never a silently accepted wrong
// message. Also covers the incremental frame_splitter and the wire-level
// fault-injection points (crc flip, short read, short write).
#include "serve/wire.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "testing/fault_injection.hpp"

namespace vabi::serve {
namespace {

struct disarm_guard {
  ~disarm_guard() { testing::disarm(); }
};

submit_msg sample_submit() {
  submit_msg m;
  m.batch_seed = 42;
  m.priority = 7;
  m.session_deadline_ms = 1500;
  m.options.rule = 1;
  m.options.pbar = 0.25;
  m.options.per_net_deadline_seconds = 2.5;
  wire_job gen;
  gen.num_sinks = 33;
  gen.die_side_um = 5000.0;
  gen.criticality_balance = 0.6;
  m.jobs.push_back(gen);
  wire_job explicit_tree;
  explicit_tree.has_tree = true;
  explicit_tree.tree_text = "vabi-tree v1\nnot actually parsed here\n";
  m.jobs.push_back(explicit_tree);
  return m;
}

result_msg sample_result() {
  result_msg m;
  m.resumed = true;
  m.record.job_index = 5;
  m.record.fingerprint = 0xdeadbeefcafe1234ull;
  m.record.ok = true;
  m.record.num_sources = 9;
  m.record.result.num_buffers = 4;
  m.record.result.root_rat = stats::linear_form(
      -123.456, {{0, 1.5}, {3, -0.25}, {8, 0.0625}});
  m.record.result.stats.candidates_created = 77;
  m.record.result.stats.merge_pairs = 11;
  return m;
}

message decode_one(const std::vector<std::uint8_t>& frame) {
  decode_result r = decode_frame(frame.data(), frame.size());
  EXPECT_EQ(r.status, decode_status::ok) << r.error;
  EXPECT_EQ(r.consumed, frame.size());
  return r.msg;
}

TEST(WireCodec, RoundTripsEveryMessageKind) {
  {
    hello_msg h;
    h.token = "sess-42";
    h.resume = true;
    auto m = decode_one(encode_frame(message{h}));
    auto* d = std::get_if<hello_msg>(&m);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->version, k_protocol_version);
    EXPECT_EQ(d->token, "sess-42");
    EXPECT_TRUE(d->resume);
  }
  {
    auto m = decode_one(encode_frame(message{sample_submit()}));
    auto* d = std::get_if<submit_msg>(&m);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->batch_seed, 42u);
    EXPECT_EQ(d->priority, 7);
    EXPECT_EQ(d->session_deadline_ms, 1500u);
    EXPECT_EQ(d->options.rule, 1);
    EXPECT_DOUBLE_EQ(d->options.pbar, 0.25);
    ASSERT_EQ(d->jobs.size(), 2u);
    EXPECT_FALSE(d->jobs[0].has_tree);
    EXPECT_EQ(d->jobs[0].num_sinks, 33u);
    EXPECT_TRUE(d->jobs[1].has_tree);
    EXPECT_EQ(d->jobs[1].tree_text,
              "vabi-tree v1\nnot actually parsed here\n");
  }
  for (const message& empty_kinds : {message{cancel_msg{}},
                                    message{stats_request_msg{}},
                                    message{bye_msg{}}}) {
    auto m = decode_one(encode_frame(empty_kinds));
    EXPECT_EQ(kind_of(m), kind_of(empty_kinds));
  }
  {
    auto m = decode_one(encode_frame(message{sample_result()}));
    auto* d = std::get_if<result_msg>(&m);
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->resumed);
    EXPECT_EQ(d->record.job_index, 5u);
    EXPECT_EQ(d->record.fingerprint, 0xdeadbeefcafe1234ull);
    EXPECT_TRUE(d->record.ok);
    // The record travels through the journal codec: bit-exact round trip.
    const auto a = core::journal_detail::encode_record_payload(
        sample_result().record);
    const auto b = core::journal_detail::encode_record_payload(d->record);
    EXPECT_EQ(a, b);
  }
  {
    overloaded_msg o;
    o.queued = 99;
    o.capacity = 100;
    o.detail = "full";
    auto m = decode_one(encode_frame(message{o}));
    auto* d = std::get_if<overloaded_msg>(&m);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->queued, 99u);
    EXPECT_EQ(d->detail, "full");
  }
  {
    batch_done_msg b;
    b.solved = 5;
    b.restored = 2;
    b.failed = 1;
    b.cancelled = 3;
    b.wall_seconds = 1.25;
    auto m = decode_one(encode_frame(message{b}));
    auto* d = std::get_if<batch_done_msg>(&m);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->solved, 5u);
    EXPECT_EQ(d->cancelled, 3u);
    EXPECT_DOUBLE_EQ(d->wall_seconds, 1.25);
  }
  {
    session_error_msg e;
    e.code = 4;
    e.detail = "deadline";
    auto m = decode_one(encode_frame(message{e}));
    auto* d = std::get_if<session_error_msg>(&m);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->code, 4);
    EXPECT_EQ(d->detail, "deadline");
  }
}

// -- the corpus -------------------------------------------------------------

TEST(WireCodecCorpus, TruncationAtEveryByteIsNeedMore) {
  const std::vector<std::uint8_t> frame =
      encode_frame(message{sample_submit()});
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const decode_result r = decode_frame(frame.data(), len);
    EXPECT_EQ(r.status, decode_status::need_more)
        << "prefix of " << len << " bytes";
  }
}

TEST(WireCodecCorpus, EveryBitFlipIsRejectedOrIncomplete) {
  const std::vector<std::uint8_t> frame =
      encode_frame(message{sample_result()});
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> damaged = frame;
      damaged[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const decode_result r = decode_frame(damaged.data(), damaged.size());
      // A flip in the length prefix may make the frame look longer
      // (need_more on a stream); every other flip must be typed corrupt.
      // Nothing may decode as ok: the CRC covers the whole payload and the
      // length is part of what the CRC check implicitly pins.
      EXPECT_NE(r.status, decode_status::ok)
          << "byte " << byte << " bit " << bit;
      if (byte >= 8) {
        EXPECT_EQ(r.status, decode_status::corrupt)
            << "payload flip must be corrupt: byte " << byte << " bit "
            << bit;
      }
    }
  }
}

std::vector<std::uint8_t> frame_with_payload(
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> f;
  const auto put32 = [&f](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      f.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu));
    }
  };
  put32(static_cast<std::uint32_t>(payload.size()));
  put32(core::crc32(payload.data(), payload.size()));
  f.insert(f.end(), payload.begin(), payload.end());
  return f;
}

TEST(WireCodecCorpus, BogusMessageKindsAreCorrupt) {
  for (const std::uint8_t kind :
       {0x00, 0x06, 0x07, 0x42, 0x80, 0x89, 0xaa, 0xff}) {
    const std::vector<std::uint8_t> frame = frame_with_payload({kind});
    const decode_result r = decode_frame(frame.data(), frame.size());
    EXPECT_EQ(r.status, decode_status::corrupt) << "kind " << int(kind);
    EXPECT_NE(r.error.find("unknown message kind"), std::string::npos)
        << r.error;
  }
}

TEST(WireCodecCorpus, OversizedLengthPrefixIsCorruptNotAllocation) {
  for (const std::uint32_t len :
       {k_max_frame_bytes + 1, 0x7fffffffu, 0xffffffffu}) {
    std::vector<std::uint8_t> frame;
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<std::uint8_t>((len >> (8 * i)) & 0xffu));
    }
    frame.resize(64, 0);  // garbage crc + bytes; length check must fire first
    const decode_result r = decode_frame(frame.data(), frame.size());
    EXPECT_EQ(r.status, decode_status::corrupt);
    EXPECT_NE(r.error.find("exceeds limit"), std::string::npos) << r.error;
  }
}

TEST(WireCodecCorpus, EmptyPayloadIsCorrupt) {
  const std::vector<std::uint8_t> frame = frame_with_payload({});
  const decode_result r = decode_frame(frame.data(), frame.size());
  EXPECT_EQ(r.status, decode_status::corrupt);
}

TEST(WireCodecCorpus, TruncatedInteriorStringIsCorrupt) {
  // A hello whose token length field claims more bytes than the payload
  // holds: the CRC is valid (we frame the damaged payload ourselves), so
  // only the payload decoder's bounds checks stand between this and an
  // out-of-bounds read.
  std::vector<std::uint8_t> payload;
  payload.push_back(0x01);  // hello
  for (int i = 0; i < 4; ++i) payload.push_back(0x01);  // version
  payload.push_back(0xff);  // token length 0x400000ff...
  payload.push_back(0x00);
  payload.push_back(0x00);
  payload.push_back(0x40);
  payload.push_back('x');  // one actual byte
  const std::vector<std::uint8_t> frame = frame_with_payload(payload);
  const decode_result r = decode_frame(frame.data(), frame.size());
  EXPECT_EQ(r.status, decode_status::corrupt);
}

TEST(WireCodecCorpus, TrailingGarbageAfterValidPayloadIsCorrupt) {
  std::vector<std::uint8_t> payload;
  payload.push_back(0x03);  // cancel: kind byte only
  payload.push_back(0x99);  // trailing garbage the decoder must not ignore
  const std::vector<std::uint8_t> frame = frame_with_payload(payload);
  const decode_result r = decode_frame(frame.data(), frame.size());
  EXPECT_EQ(r.status, decode_status::corrupt);
}

// -- splitter ---------------------------------------------------------------

TEST(WireCodec, SplitterReassemblesByteAtATime) {
  std::vector<std::uint8_t> stream;
  const message msgs[] = {message{hello_msg{}}, message{sample_submit()},
                          message{sample_result()}};
  for (const message& m : msgs) {
    const auto f = encode_frame(m);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  frame_splitter splitter;
  std::vector<msg_kind> got;
  for (const std::uint8_t b : stream) {
    splitter.feed(&b, 1);
    for (;;) {
      message m;
      std::string err;
      const decode_status st = splitter.next(m, err);
      if (st != decode_status::ok) {
        ASSERT_EQ(st, decode_status::need_more) << err;
        break;
      }
      got.push_back(kind_of(m));
    }
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], msg_kind::hello);
  EXPECT_EQ(got[1], msg_kind::submit);
  EXPECT_EQ(got[2], msg_kind::result);
  EXPECT_EQ(splitter.buffered(), 0u);
}

TEST(WireCodec, SplitterReportsCorruptionAfterGoodFrames) {
  frame_splitter splitter;
  const auto good = encode_frame(message{bye_msg{}});
  splitter.feed(good.data(), good.size());
  const auto bad = frame_with_payload({0x7f});  // bogus kind, valid crc
  splitter.feed(bad.data(), bad.size());
  message m;
  std::string err;
  EXPECT_EQ(splitter.next(m, err), decode_status::ok);
  EXPECT_EQ(splitter.next(m, err), decode_status::corrupt);
  EXPECT_FALSE(err.empty());
}

// -- fault injection --------------------------------------------------------

TEST(WireCodec, CrcFlipInjectionMakesReceiverReject) {
  disarm_guard guard;
  testing::arm("wire_crc_flip");
  const auto frame = encode_frame(message{sample_submit()});
  EXPECT_GE(testing::fired_count(testing::fault_point::wire_crc_flip), 1u);
  testing::disarm();
  const decode_result r = decode_frame(frame.data(), frame.size());
  EXPECT_EQ(r.status, decode_status::corrupt);
  EXPECT_NE(r.error.find("CRC"), std::string::npos) << r.error;
}

TEST(WireCodec, ShortReadInjectionTruncates) {
  disarm_guard guard;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::vector<std::uint8_t> bytes(100, 0xab);
  ASSERT_TRUE(wire_write_all(fds[0], bytes.data(), bytes.size()));
  testing::arm("wire_short_read");
  std::uint8_t buf[100];
  const ssize_t n = wire_read(fds[1], buf, sizeof buf);
  EXPECT_EQ(n, 50);  // half delivered, half lost: a torn read
  testing::disarm();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireCodec, ShortWriteInjectionReportsPeerGone) {
  disarm_guard guard;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  testing::arm("wire_short_write");
  const std::vector<std::uint8_t> bytes(100, 0xcd);
  EXPECT_FALSE(wire_write_all(fds[0], bytes.data(), bytes.size()));
  testing::disarm();
  std::uint8_t buf[100];
  const ssize_t n = ::read(fds[1], buf, sizeof buf);
  EXPECT_EQ(n, 50);  // the truncated half really went out
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireCodec, WriteToClosedPeerReturnsFalse) {
  // A daemon that drops the connection must cost the client a failed write
  // (and a reconnect), not the process: no SIGPIPE.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  const std::vector<std::uint8_t> bytes(100, 0xef);
  EXPECT_FALSE(wire_write_all(fds[0], bytes.data(), bytes.size()));
  EXPECT_FALSE(wire_write_all(fds[0], bytes.data(), bytes.size()));
  ::close(fds[0]);
}

TEST(WireCodec, RejectedFramesAreDumpedForCi) {
  const std::string dir =
      std::filesystem::temp_directory_path() /
      ("vabi-frame-dump-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const char* prev = std::getenv("VABI_FRAME_DUMP_DIR");
  const std::string prev_dir = prev != nullptr ? prev : "";
  ::setenv("VABI_FRAME_DUMP_DIR", dir.c_str(), 1);
  const auto bad = frame_with_payload({0x66});  // bogus kind
  const decode_result r = decode_frame(bad.data(), bad.size());
  if (prev != nullptr) {
    ::setenv("VABI_FRAME_DUMP_DIR", prev_dir.c_str(), 1);
  } else {
    ::unsetenv("VABI_FRAME_DUMP_DIR");
  }
  EXPECT_EQ(r.status, decode_status::corrupt);
  bool found = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("frame-", 0) == 0) {
      EXPECT_EQ(std::filesystem::file_size(entry.path()), bad.size());
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no frame dump written to " << dir;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vabi::serve
