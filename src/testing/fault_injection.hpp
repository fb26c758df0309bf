// Deterministic fault injection for the solver guardrail tests.
//
// The solver stack promises that every failure mode -- pool exhaustion, a
// NaN-poisoned device fit, a deadline, a cancelled wave, a throwing batch
// job -- comes back as a typed solve_error with a bounded blast radius
// (tests/core/fault_tolerance_test.cpp). Faults of that kind are hard to
// provoke organically, so the production code carries named *injection
// points*: cheap hooks that are compiled in always and do nothing until a
// test (or the VABI_FAULT_SPEC environment variable) arms them.
//
// Zero-cost when disarmed: every site guards its slow path behind one
// relaxed atomic load of a bitmask (`armed(point)`); with no spec armed the
// mask is zero and the branch is never taken.
//
// Determinism: firing is driven by per-point query counters and explicit
// node/job selectors, never by wall time or randomness. A spec string such
// as
//
//   term_pool_alloc:after=40;device_nan:node=7;seed=3
//
// arms the pool-exhaustion point from its 41st query onward and poisons the
// device characterized at node 7. The free-standing `seed=N` clause is not an
// injection point: it is a knob the fault-tolerance test reads (env_seed())
// to derive its own per-seed trigger counts, which is how CI runs the same
// test binary across a seed matrix with one env var.
//
// This header must stay dependency-free (vabi_testing sits below vabi_stats
// so term_pool can host an injection point).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vabi::testing {

/// The named injection points wired into the solver stack.
enum class fault_point : std::uint8_t {
  term_pool_alloc,   ///< stats::term_pool::allocate throws std::bad_alloc
  device_nan,        ///< device forms are NaN-poisoned after characterization
  deadline_at_node,  ///< the resource guard reports deadline expiry at a node
  cancel_wave,       ///< cooperative cancellation trips at a node boundary
  batch_job_throw,   ///< a batch job throws before solving (isolation test)
  journal_write_short,  ///< a journal checkpoint writes a truncated image
  journal_crc_flip,     ///< a journal record's payload is bit-flipped on write
  crash_after_job,      ///< the batch process _Exits right after a job commits
  wire_short_read,      ///< a socket read returns a truncated byte count
  wire_short_write,     ///< a socket write truncates, then reports the peer gone
  wire_crc_flip,        ///< an outgoing wire frame's payload is bit-flipped
  wire_accept_fail,     ///< the daemon's accept() fails transiently
  wire_stall_client,    ///< the client library delays draining its socket
  wire_drop_session,    ///< the daemon force-closes a session mid-batch
  worker_spawn_fail,    ///< the shard coordinator's worker fork fails
  worker_hang,          ///< a shard worker wedges (stops heartbeating) forever
  shard_write_short,    ///< a shard journal checkpoint writes a torn image
  heartbeat_drop,       ///< a shard worker's heartbeats are silently dropped
  count_             ///< sentinel, not a point
};

const char* to_string(fault_point point);

/// Matches any node / job id in a fault_spec.
inline constexpr std::uint64_t any_id = ~std::uint64_t{0};

/// One armed injection point. The point fires on every query whose ordinal
/// is >= `after` (0 = from the first query) and whose site id matches `id`
/// (node id or batch job index; `any_id` matches everything).
struct fault_spec {
  fault_point point = fault_point::count_;
  std::uint64_t after = 0;
  std::uint64_t id = any_id;
};

/// A parsed VABI_FAULT_SPEC string: the armed points plus the free-standing
/// test seed.
struct fault_config {
  std::vector<fault_spec> specs;
  std::uint64_t seed = 1;
};

/// Parses a spec string (see the header comment for the grammar); throws
/// std::invalid_argument naming the offending clause.
fault_config parse_fault_spec(std::string_view text);

/// Arms the given configuration (replacing any previous one) / a spec string,
/// zeroing every point's query and fired counters.
void arm(const fault_config& config);
void arm(std::string_view spec);
/// Disarms every point. The query and fired counters keep their values
/// (fired_count still reads them) until the next arm().
void disarm();

/// How many queries of `point` fired so far (armed sessions only).
std::uint64_t fired_count(fault_point point);

/// The `seed=N` clause of VABI_FAULT_SPEC (1 when unset/absent): the
/// fault-tolerance test derives its per-seed trigger counts from this.
std::uint64_t env_seed();

namespace detail {
/// Bit i set <=> fault_point(i) is armed. Relaxed reads on the hot path.
extern std::atomic<std::uint32_t> g_armed_mask;
/// Slow path: counts the query and decides whether `point` fires for `id`.
bool fire(fault_point point, std::uint64_t id) noexcept;
}  // namespace detail

/// True when `point` is armed at all. One relaxed atomic load; this is the
/// only cost a disarmed injection site pays.
inline bool armed(fault_point point) noexcept {
  return (detail::g_armed_mask.load(std::memory_order_relaxed) &
          (1u << static_cast<unsigned>(point))) != 0;
}

/// The injection-site entry point: false immediately when disarmed,
/// otherwise counts the query and applies the armed spec.
inline bool should_fire(fault_point point, std::uint64_t id = any_id) noexcept {
  return armed(point) && detail::fire(point, id);
}

}  // namespace vabi::testing
