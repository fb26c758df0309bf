#include "testing/fault_injection.hpp"

#include <array>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

namespace vabi::testing {

namespace {

constexpr std::size_t num_points =
    static_cast<std::size_t>(fault_point::count_);

/// Armed specs plus counters. Specs are written under g_mu only while the
/// mask bit is clear (arm() publishes the bit last, disarm() clears it
/// first), so the lock-free readers in detail::fire never observe a spec
/// being rewritten.
struct point_state {
  fault_spec spec;
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> fired{0};
};

std::array<point_state, num_points>& states() {
  static std::array<point_state, num_points> s;
  return s;
}

std::mutex g_mu;

std::uint64_t parse_u64(std::string_view clause, std::string_view value) {
  std::uint64_t out = 0;
  if (value.empty()) {
    throw std::invalid_argument("fault_injection: empty value in clause '" +
                                std::string(clause) + "'");
  }
  for (char c : value) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("fault_injection: bad number in clause '" +
                                  std::string(clause) + "'");
    }
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return out;
}

fault_point point_from_name(std::string_view name, std::string_view clause) {
  for (std::size_t i = 0; i < num_points; ++i) {
    if (name == to_string(static_cast<fault_point>(i))) {
      return static_cast<fault_point>(i);
    }
  }
  throw std::invalid_argument("fault_injection: unknown point in clause '" +
                              std::string(clause) + "'");
}

}  // namespace

const char* to_string(fault_point point) {
  switch (point) {
    case fault_point::term_pool_alloc:
      return "term_pool_alloc";
    case fault_point::device_nan:
      return "device_nan";
    case fault_point::deadline_at_node:
      return "deadline_at_node";
    case fault_point::cancel_wave:
      return "cancel_wave";
    case fault_point::batch_job_throw:
      return "batch_job_throw";
    case fault_point::journal_write_short:
      return "journal_write_short";
    case fault_point::journal_crc_flip:
      return "journal_crc_flip";
    case fault_point::crash_after_job:
      return "crash_after_job";
    case fault_point::wire_short_read:
      return "wire_short_read";
    case fault_point::wire_short_write:
      return "wire_short_write";
    case fault_point::wire_crc_flip:
      return "wire_crc_flip";
    case fault_point::wire_accept_fail:
      return "wire_accept_fail";
    case fault_point::wire_stall_client:
      return "wire_stall_client";
    case fault_point::wire_drop_session:
      return "wire_drop_session";
    case fault_point::worker_spawn_fail:
      return "worker_spawn_fail";
    case fault_point::worker_hang:
      return "worker_hang";
    case fault_point::shard_write_short:
      return "shard_write_short";
    case fault_point::heartbeat_drop:
      return "heartbeat_drop";
    case fault_point::count_:
      break;
  }
  return "?";
}

fault_config parse_fault_spec(std::string_view text) {
  fault_config config;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = std::min(text.find(';', pos), text.size());
    std::string_view clause = text.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) {
      if (end == text.size()) break;
      continue;
    }
    if (clause.substr(0, 5) == "seed=") {
      config.seed = parse_u64(clause, clause.substr(5));
      continue;
    }
    const std::size_t colon = clause.find(':');
    fault_spec spec;
    spec.point = point_from_name(clause.substr(0, colon), clause);
    if (colon != std::string_view::npos) {
      std::string_view args = clause.substr(colon + 1);
      std::size_t apos = 0;
      while (apos <= args.size()) {
        const std::size_t aend = std::min(args.find(',', apos), args.size());
        std::string_view kv = args.substr(apos, aend - apos);
        apos = aend + 1;
        if (kv.empty()) {
          if (aend == args.size()) break;
          continue;
        }
        if (kv.substr(0, 6) == "after=") {
          spec.after = parse_u64(clause, kv.substr(6));
        } else if (kv.substr(0, 5) == "node=" || kv.substr(0, 4) == "job=") {
          spec.id = parse_u64(clause, kv.substr(kv.find('=') + 1));
        } else {
          throw std::invalid_argument(
              "fault_injection: unknown key in clause '" + std::string(clause) +
              "'");
        }
        if (aend == args.size()) break;
      }
    }
    config.specs.push_back(spec);
    if (end == text.size()) break;
  }
  return config;
}

void arm(const fault_config& config) {
  std::lock_guard lk(g_mu);
  detail::g_armed_mask.store(0, std::memory_order_release);
  std::uint32_t mask = 0;
  for (auto& st : states()) {
    st.queries.store(0, std::memory_order_relaxed);
    st.fired.store(0, std::memory_order_relaxed);
  }
  for (const fault_spec& spec : config.specs) {
    if (spec.point >= fault_point::count_) continue;
    const auto idx = static_cast<std::size_t>(spec.point);
    states()[idx].spec = spec;
    mask |= 1u << idx;
  }
  detail::g_armed_mask.store(mask, std::memory_order_release);
}

void arm(std::string_view spec) { arm(parse_fault_spec(spec)); }

void disarm() {
  std::lock_guard lk(g_mu);
  detail::g_armed_mask.store(0, std::memory_order_release);
}

std::uint64_t fired_count(fault_point point) {
  return states()[static_cast<std::size_t>(point)].fired.load(
      std::memory_order_relaxed);
}

std::uint64_t env_seed() {
  const char* env = std::getenv("VABI_FAULT_SPEC");
  if (env == nullptr) return 1;
  return parse_fault_spec(env).seed;
}

namespace detail {

std::atomic<std::uint32_t> g_armed_mask{0};

bool fire(fault_point point, std::uint64_t id) noexcept {
  point_state& st = states()[static_cast<std::size_t>(point)];
  const std::uint64_t ordinal =
      st.queries.fetch_add(1, std::memory_order_relaxed);
  const fault_spec& spec = st.spec;
  if (spec.id != any_id && id != spec.id) return false;
  if (ordinal < spec.after) return false;
  st.fired.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace detail

}  // namespace vabi::testing
