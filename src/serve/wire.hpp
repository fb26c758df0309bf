// Wire protocol of the vabi_serve solver daemon.
//
// Transport framing is the journal codec's, reused verbatim: every message is
// one length-prefixed CRC32-framed blob
//
//   +--------------+--------------------+--------------------------+
//   | u32 len      | u32 crc32(payload) | payload (len bytes)      |
//   +--------------+--------------------+--------------------------+
//
// whose payload starts with a one-byte message kind. All integers are
// little-endian; doubles travel as raw IEEE-754 bit patterns. Per-net results
// embed a *journal record payload* (core/journal.hpp) unchanged: the bytes a
// client receives for net i are the bytes the server's session journal holds
// for net i, which is what makes "stream now" and "restore after reconnect"
// bit-identical by construction.
//
// Robustness contract of the decoder (mirrors read_journal's):
//   - a frame longer than k_max_frame_bytes, a CRC mismatch, an unknown
//     message kind, or an undecodable payload are *corrupt* -- typed status,
//     never UB, never a throw, and never an out-of-bounds read;
//   - a prefix of a valid frame is need_more (on a stream that just means
//     the rest has not arrived yet);
//   - when VABI_FRAME_DUMP_DIR is set, every rejected frame is dumped there
//     as frame-<n>-<reason>.bin so CI can upload the exact bytes that broke
//     a session (see .github/workflows/nightly.yml).
//
// The fault-injection points wire_short_read / wire_short_write /
// wire_crc_flip (testing/fault_injection.hpp) are honored by the I/O helpers
// and the encoder, so torn connections and bit flips are deterministically
// reproducible in tests.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/journal.hpp"

namespace vabi::serve {

inline constexpr std::uint32_t k_protocol_version = 2;
inline constexpr std::size_t k_frame_header_bytes = 8;  // u32 len + u32 crc
/// A length prefix beyond this is a corrupted frame, not a message (the
/// largest real message is a batch of tree texts or one canonical-form
/// result -- single-digit MB).
inline constexpr std::uint32_t k_max_frame_bytes = 1u << 24;

/// Message kinds. Low values flow client -> server, high values server ->
/// client; anything else is a corrupt frame.
enum class msg_kind : std::uint8_t {
  hello = 0x01,          ///< session handshake (token + resume intent)
  submit = 0x02,         ///< a batch of jobs to solve
  cancel = 0x03,         ///< abandon the session's in-flight batch
  stats_request = 0x04,  ///< ask for the daemon's aggregated stats JSON
  bye = 0x05,            ///< orderly goodbye

  hello_ack = 0x81,     ///< handshake reply carrying the (assigned) token
  accepted = 0x82,      ///< batch admitted; restored = journal-recovered jobs
  overloaded = 0x83,    ///< typed admission-control rejection
  result = 0x84,        ///< one per-net outcome, streamed as it completes
  batch_done = 0x85,    ///< the batch drained (counts + wall time)
  stats_reply = 0x86,   ///< stats JSON (vabi_serve_stats v3 schema)
  session_error = 0x87, ///< typed session failure (solve_code + detail)
  draining = 0x88,      ///< daemon is draining; submission refused
};

const char* to_string(msg_kind kind);

// ---------------------------------------------------------------------------
// Client -> server messages.
// ---------------------------------------------------------------------------

struct hello_msg {
  std::uint32_t version = k_protocol_version;
  /// Session token. Empty asks the server to assign one (returned in
  /// hello_ack); a client that reconnects presents its previous token.
  std::string token;
  /// Restore journaled results for `token` instead of re-solving them.
  bool resume = false;
};

/// Solver options of a batch, mapped deterministically onto stat_options by
/// the server (serve::make_batch_jobs). Deterministic mapping matters: the
/// journal fingerprints cover the mapped options, so the same submit_msg
/// resumes cleanly across reconnects and daemon restarts.
struct wire_options {
  std::uint8_t rule = 0;     ///< core::pruning_kind (0 2p / 1 4p / 2 corner)
  std::uint8_t mode = 2;     ///< 0 nom / 1 d2d / 2 wid
  std::uint8_t profile = 1;  ///< layout::spatial_profile (0 homo / 1 hetero)
  double pbar = 0.5;
  double yield_percentile = 0.05;
  double driver_res_ohm = 150.0;
  /// Per-net wall budget (stat_options::max_wall_seconds); 0 = unlimited.
  /// The *session* deadline is separate (submit_msg::session_deadline_ms)
  /// and enforced via cancel_token so it never perturbs fingerprints.
  double per_net_deadline_seconds = 0.0;
  std::uint8_t degrade = 0;  ///< core::degrade_policy
};

/// One net: either an explicit vabi-tree text or a generator spec (per-job
/// seeds derive from submit_msg::batch_seed exactly like batch_solver's).
struct wire_job {
  bool has_tree = false;
  std::string tree_text;  ///< vabi-tree v1, when has_tree
  std::uint64_t num_sinks = 0;
  double die_side_um = 8000.0;
  double criticality_balance = 0.8;
};

struct submit_msg {
  std::uint64_t batch_seed = 1;
  /// Scheduling priority of this session's jobs on the shared pool
  /// (higher runs first; ties run in admission order).
  std::uint8_t priority = 1;
  /// Wall deadline for the whole session, from admission; 0 = none. On
  /// expiry the session's cancel token is armed: running jobs wind down
  /// with solve_code::cancelled, pending ones never start.
  std::uint64_t session_deadline_ms = 0;
  wire_options options;
  std::vector<wire_job> jobs;
};

struct cancel_msg {};
struct stats_request_msg {};
struct bye_msg {};

// ---------------------------------------------------------------------------
// Server -> client messages.
// ---------------------------------------------------------------------------

struct hello_ack_msg {
  std::uint32_t version = k_protocol_version;
  std::string token;  ///< assigned (or echoed) session token
};

struct accepted_msg {
  std::uint64_t num_jobs = 0;
  std::uint64_t restored = 0;  ///< jobs recovered from the session journal
};

/// Typed admission-control rejection: the bounded job queue is full. The
/// session stays open; the client may retry with backoff.
struct overloaded_msg {
  std::uint64_t queued = 0;
  std::uint64_t capacity = 0;
  std::string detail;
};

/// One per-net outcome. `record` is the journal record, full precision --
/// including typed solve errors and every dp_stats counter verbatim.
struct result_msg {
  bool resumed = false;  ///< restored from the session journal, not re-solved
  core::journal_record record;
};

struct batch_done_msg {
  std::uint64_t solved = 0;
  std::uint64_t restored = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  double wall_seconds = 0.0;
};

struct stats_reply_msg {
  std::string json;  ///< vabi_serve_stats v3 (see serve/stats_store.hpp)
};

struct session_error_msg {
  std::uint8_t code = 0;  ///< core::solve_code
  std::string detail;
};

struct draining_msg {
  std::string detail;
};

using message =
    std::variant<hello_msg, submit_msg, cancel_msg, stats_request_msg, bye_msg,
                 hello_ack_msg, accepted_msg, overloaded_msg, result_msg,
                 batch_done_msg, stats_reply_msg, session_error_msg,
                 draining_msg>;

msg_kind kind_of(const message& m);

// ---------------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------------

/// Encodes one complete frame (len | crc | payload). The wire_crc_flip fault
/// point, when armed, flips one payload bit *after* the CRC was computed
/// over the clean bytes -- the receiver must reject the frame.
std::vector<std::uint8_t> encode_frame(const message& m);

enum class decode_status : std::uint8_t {
  ok,         ///< one message decoded; `consumed` bytes were eaten
  need_more,  ///< the buffer holds only a prefix of a frame
  corrupt,    ///< framing/CRC/kind/payload damage; `error` says what
};

struct decode_result {
  decode_status status = decode_status::need_more;
  message msg;
  std::size_t consumed = 0;
  std::string error;
};

/// Decodes the first frame of `data`. Never throws, never reads out of
/// bounds; rejected frames are dumped when VABI_FRAME_DUMP_DIR is set.
decode_result decode_frame(const std::uint8_t* data, std::size_t size);

/// Incremental deframer for a byte stream: feed() what the socket delivered,
/// next() until it returns need_more. Compacts its buffer as frames drain.
class frame_splitter {
 public:
  void feed(const void* data, std::size_t n);
  decode_status next(message& out, std::string& error);
  std::size_t buffered() const { return buf_.size() - at_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t at_ = 0;
};

/// Writes the raw bytes of a rejected frame to
/// $VABI_FRAME_DUMP_DIR/frame-<n>-<reason>.bin (no-op when the env var is
/// unset). Best effort; never throws.
void dump_rejected_frame(const void* data, std::size_t size,
                         const char* reason);

// ---------------------------------------------------------------------------
// Fault-injected socket I/O.
// ---------------------------------------------------------------------------

/// read(2) with the wire_short_read point applied: when armed, the returned
/// byte count is truncated and the connection subsequently reports EOF --
/// exactly what a peer dying mid-frame looks like.
ssize_t wire_read(int fd, void* buf, std::size_t n);

/// Writes all of [buf, buf+n) to socket `fd` (EINTR-safe). False on error,
/// including a peer that closed the connection (MSG_NOSIGNAL: EPIPE, never
/// SIGPIPE), or when the wire_short_write point fires (a truncated write
/// followed by a dead peer).
bool wire_write_all(int fd, const void* buf, std::size_t n);

}  // namespace vabi::serve
