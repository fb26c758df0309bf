#include "serve/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "core/byte_codec.hpp"
#include "testing/fault_injection.hpp"

namespace vabi::serve {

namespace {

using namespace core::codec;

void put_options(std::vector<std::uint8_t>& out, const wire_options& o) {
  put_u8(out, o.rule);
  put_u8(out, o.mode);
  put_u8(out, o.profile);
  put_f64(out, o.pbar);
  put_f64(out, o.yield_percentile);
  put_f64(out, o.driver_res_ohm);
  put_f64(out, o.per_net_deadline_seconds);
  put_u8(out, o.degrade);
}

bool get_options(cursor& c, wire_options& o) {
  o.rule = c.get_u8();
  o.mode = c.get_u8();
  o.profile = c.get_u8();
  o.pbar = c.get_f64();
  o.yield_percentile = c.get_f64();
  o.driver_res_ohm = c.get_f64();
  o.per_net_deadline_seconds = c.get_f64();
  o.degrade = c.get_u8();
  return !c.failed;
}

std::vector<std::uint8_t> encode_payload(const message& m) {
  std::vector<std::uint8_t> p;
  put_u8(p, static_cast<std::uint8_t>(kind_of(m)));
  std::visit(
      [&p](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, hello_msg>) {
          put_u32(p, v.version);
          put_str(p, v.token);
          put_u8(p, v.resume ? 1 : 0);
        } else if constexpr (std::is_same_v<T, submit_msg>) {
          put_u64(p, v.batch_seed);
          put_u8(p, v.priority);
          put_u64(p, v.session_deadline_ms);
          put_options(p, v.options);
          put_u32(p, static_cast<std::uint32_t>(v.jobs.size()));
          for (const wire_job& j : v.jobs) {
            put_u8(p, j.has_tree ? 1 : 0);
            if (j.has_tree) {
              put_str(p, j.tree_text);
            } else {
              put_u64(p, j.num_sinks);
              put_f64(p, j.die_side_um);
              put_f64(p, j.criticality_balance);
            }
          }
        } else if constexpr (std::is_same_v<T, cancel_msg> ||
                             std::is_same_v<T, stats_request_msg> ||
                             std::is_same_v<T, bye_msg>) {
          // kind byte only
        } else if constexpr (std::is_same_v<T, hello_ack_msg>) {
          put_u32(p, v.version);
          put_str(p, v.token);
        } else if constexpr (std::is_same_v<T, accepted_msg>) {
          put_u64(p, v.num_jobs);
          put_u64(p, v.restored);
        } else if constexpr (std::is_same_v<T, overloaded_msg>) {
          put_u64(p, v.queued);
          put_u64(p, v.capacity);
          put_str(p, v.detail);
        } else if constexpr (std::is_same_v<T, result_msg>) {
          put_u8(p, v.resumed ? 1 : 0);
          put_u64(p, v.cache_hits);
          put_u64(p, v.cache_misses);
          put_u64(p, v.nodes_reused);
          const std::vector<std::uint8_t> rec =
              core::journal_detail::encode_record_payload(v.record);
          put_u32(p, static_cast<std::uint32_t>(rec.size()));
          p.insert(p.end(), rec.begin(), rec.end());
        } else if constexpr (std::is_same_v<T, batch_done_msg>) {
          put_u64(p, v.solved);
          put_u64(p, v.restored);
          put_u64(p, v.failed);
          put_u64(p, v.cancelled);
          put_f64(p, v.wall_seconds);
        } else if constexpr (std::is_same_v<T, stats_reply_msg>) {
          put_str(p, v.json);
        } else if constexpr (std::is_same_v<T, session_error_msg>) {
          put_u8(p, v.code);
          put_str(p, v.detail);
        } else if constexpr (std::is_same_v<T, draining_msg>) {
          put_str(p, v.detail);
        }
      },
      m);
  return p;
}

bool decode_payload(const std::uint8_t* data, std::size_t size, message& out,
                    std::string& error) {
  cursor c{data, size};
  const std::uint8_t kind = c.get_u8();
  switch (static_cast<msg_kind>(kind)) {
    case msg_kind::hello: {
      hello_msg v;
      v.version = c.get_u32();
      v.token = c.get_str();
      v.resume = c.get_u8() != 0;
      out = std::move(v);
      break;
    }
    case msg_kind::submit: {
      submit_msg v;
      v.batch_seed = c.get_u64();
      v.priority = c.get_u8();
      v.session_deadline_ms = c.get_u64();
      if (!get_options(c, v.options)) break;
      const std::uint32_t n = c.get_u32();
      // A job count that cannot fit in the remaining bytes (each job costs
      // at least its tag byte) is framing damage, not a huge batch.
      if (c.failed || n > size - c.at) {
        c.fail();
        break;
      }
      v.jobs.reserve(n);
      for (std::uint32_t i = 0; i < n && !c.failed; ++i) {
        wire_job j;
        j.has_tree = c.get_u8() != 0;
        if (j.has_tree) {
          j.tree_text = c.get_str();
        } else {
          j.num_sinks = c.get_u64();
          j.die_side_um = c.get_f64();
          j.criticality_balance = c.get_f64();
        }
        v.jobs.push_back(std::move(j));
      }
      out = std::move(v);
      break;
    }
    case msg_kind::cancel:
      out = cancel_msg{};
      break;
    case msg_kind::stats_request:
      out = stats_request_msg{};
      break;
    case msg_kind::bye:
      out = bye_msg{};
      break;
    case msg_kind::hello_ack: {
      hello_ack_msg v;
      v.version = c.get_u32();
      v.token = c.get_str();
      out = std::move(v);
      break;
    }
    case msg_kind::accepted: {
      accepted_msg v;
      v.num_jobs = c.get_u64();
      v.restored = c.get_u64();
      out = v;
      break;
    }
    case msg_kind::overloaded: {
      overloaded_msg v;
      v.queued = c.get_u64();
      v.capacity = c.get_u64();
      v.detail = c.get_str();
      out = std::move(v);
      break;
    }
    case msg_kind::result: {
      result_msg v;
      v.resumed = c.get_u8() != 0;
      v.cache_hits = c.get_u64();
      v.cache_misses = c.get_u64();
      v.nodes_reused = c.get_u64();
      const std::uint32_t rec_len = c.get_u32();
      if (!c.need(rec_len)) break;
      if (!core::journal_detail::decode_record_payload(data + c.at, rec_len,
                                                       v.record)) {
        error = "wire: undecodable journal record in result message";
        c.fail();
        break;
      }
      c.at += rec_len;
      out = std::move(v);
      break;
    }
    case msg_kind::batch_done: {
      batch_done_msg v;
      v.solved = c.get_u64();
      v.restored = c.get_u64();
      v.failed = c.get_u64();
      v.cancelled = c.get_u64();
      v.wall_seconds = c.get_f64();
      out = v;
      break;
    }
    case msg_kind::stats_reply: {
      stats_reply_msg v;
      v.json = c.get_str();
      out = std::move(v);
      break;
    }
    case msg_kind::session_error: {
      session_error_msg v;
      v.code = c.get_u8();
      v.detail = c.get_str();
      out = std::move(v);
      break;
    }
    case msg_kind::draining: {
      draining_msg v;
      v.detail = c.get_str();
      out = std::move(v);
      break;
    }
    default:
      error = "wire: unknown message kind 0x" + [kind] {
        char buf[8];
        std::snprintf(buf, sizeof buf, "%02x", kind);
        return std::string(buf);
      }();
      return false;
  }
  if (c.failed || !c.done()) {
    if (error.empty()) {
      error = std::string("wire: truncated or oversized payload for ") +
              to_string(static_cast<msg_kind>(kind)) + " message";
    }
    return false;
  }
  return true;
}

}  // namespace

const char* to_string(msg_kind kind) {
  switch (kind) {
    case msg_kind::hello:
      return "hello";
    case msg_kind::submit:
      return "submit";
    case msg_kind::cancel:
      return "cancel";
    case msg_kind::stats_request:
      return "stats_request";
    case msg_kind::bye:
      return "bye";
    case msg_kind::hello_ack:
      return "hello_ack";
    case msg_kind::accepted:
      return "accepted";
    case msg_kind::overloaded:
      return "overloaded";
    case msg_kind::result:
      return "result";
    case msg_kind::batch_done:
      return "batch_done";
    case msg_kind::stats_reply:
      return "stats_reply";
    case msg_kind::session_error:
      return "session_error";
    case msg_kind::draining:
      return "draining";
  }
  return "?";
}

msg_kind kind_of(const message& m) {
  return std::visit(
      [](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, hello_msg>) return msg_kind::hello;
        if constexpr (std::is_same_v<T, submit_msg>) return msg_kind::submit;
        if constexpr (std::is_same_v<T, cancel_msg>) return msg_kind::cancel;
        if constexpr (std::is_same_v<T, stats_request_msg>)
          return msg_kind::stats_request;
        if constexpr (std::is_same_v<T, bye_msg>) return msg_kind::bye;
        if constexpr (std::is_same_v<T, hello_ack_msg>)
          return msg_kind::hello_ack;
        if constexpr (std::is_same_v<T, accepted_msg>)
          return msg_kind::accepted;
        if constexpr (std::is_same_v<T, overloaded_msg>)
          return msg_kind::overloaded;
        if constexpr (std::is_same_v<T, result_msg>) return msg_kind::result;
        if constexpr (std::is_same_v<T, batch_done_msg>)
          return msg_kind::batch_done;
        if constexpr (std::is_same_v<T, stats_reply_msg>)
          return msg_kind::stats_reply;
        if constexpr (std::is_same_v<T, session_error_msg>)
          return msg_kind::session_error;
        if constexpr (std::is_same_v<T, draining_msg>)
          return msg_kind::draining;
      },
      m);
}

std::vector<std::uint8_t> encode_frame(const message& m) {
  std::vector<std::uint8_t> payload = encode_payload(m);
  std::vector<std::uint8_t> frame;
  frame.reserve(k_frame_header_bytes + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, core::crc32(payload.data(), payload.size()));
  if (testing::should_fire(testing::fault_point::wire_crc_flip,
                           static_cast<std::uint64_t>(kind_of(m)))) {
    if (!payload.empty()) payload.back() ^= 0x01;
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

decode_result decode_frame(const std::uint8_t* data, std::size_t size) {
  decode_result r;
  if (size < k_frame_header_bytes) {
    r.status = decode_status::need_more;
    return r;
  }
  cursor head{data, k_frame_header_bytes};
  const std::uint32_t len = head.get_u32();
  const std::uint32_t crc = head.get_u32();
  if (len > k_max_frame_bytes) {
    r.status = decode_status::corrupt;
    r.error = "wire: frame length " + std::to_string(len) +
              " exceeds limit " + std::to_string(k_max_frame_bytes);
    dump_rejected_frame(data, size, "oversized");
    return r;
  }
  if (size < k_frame_header_bytes + len) {
    r.status = decode_status::need_more;
    return r;
  }
  const std::uint8_t* payload = data + k_frame_header_bytes;
  if (core::crc32(payload, len) != crc) {
    r.status = decode_status::corrupt;
    r.error = "wire: frame CRC mismatch";
    dump_rejected_frame(data, k_frame_header_bytes + len, "crc");
    return r;
  }
  if (len == 0) {
    r.status = decode_status::corrupt;
    r.error = "wire: empty frame has no message kind";
    dump_rejected_frame(data, k_frame_header_bytes, "empty");
    return r;
  }
  if (!decode_payload(payload, len, r.msg, r.error)) {
    r.status = decode_status::corrupt;
    dump_rejected_frame(data, k_frame_header_bytes + len, "payload");
    return r;
  }
  r.status = decode_status::ok;
  r.consumed = k_frame_header_bytes + len;
  return r;
}

void frame_splitter::feed(const void* data, std::size_t n) {
  // Compact once the consumed prefix dominates, so a long-lived session
  // does not grow its buffer without bound.
  if (at_ > 0 && at_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(at_));
    at_ = 0;
  }
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), bytes, bytes + n);
}

decode_status frame_splitter::next(message& out, std::string& error) {
  decode_result r = decode_frame(buf_.data() + at_, buf_.size() - at_);
  if (r.status == decode_status::ok) {
    out = std::move(r.msg);
    at_ += r.consumed;
  } else if (r.status == decode_status::corrupt) {
    error = std::move(r.error);
  }
  return r.status;
}

void dump_rejected_frame(const void* data, std::size_t size,
                         const char* reason) {
  const char* dir = std::getenv("VABI_FRAME_DUMP_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  const std::string path = std::string(dir) + "/frame-" + std::to_string(n) +
                           "-" + reason + ".bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  if (size > 0) (void)std::fwrite(data, 1, size, f);
  (void)std::fclose(f);
}

ssize_t wire_read(int fd, void* buf, std::size_t n) {
  ssize_t got;
  do {
    got = ::read(fd, buf, n);
  } while (got < 0 && errno == EINTR);
  if (got > 1 &&
      testing::should_fire(testing::fault_point::wire_short_read,
                           static_cast<std::uint64_t>(fd))) {
    got /= 2;  // the rest of the bytes never arrive: a torn read
  }
  return got;
}

bool wire_write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t left = n;
  if (n > 1 &&
      testing::should_fire(testing::fault_point::wire_short_write,
                           static_cast<std::uint64_t>(fd))) {
    // Deliver half the bytes, then behave like the peer vanished.
    std::size_t half = n / 2;
    while (half > 0) {
      const ssize_t put = ::send(fd, p, half, MSG_NOSIGNAL);
      if (put < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += put;
      half -= static_cast<std::size_t>(put);
    }
    return false;
  }
  while (left > 0) {
    const ssize_t put = ::send(fd, p, left, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += put;
    left -= static_cast<std::size_t>(put);
  }
  return true;
}

}  // namespace vabi::serve
