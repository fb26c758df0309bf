// Structured error taxonomy for the solver stack.
//
// Historically each driver reported failure its own way: validation threw
// std::invalid_argument, resource caps set a boolean dp_stats::aborted with a
// free-text reason, and a throwing batch job took the whole batch down. For a
// service solving thousands of nets per design, every failure mode needs a
// *typed* result with a bounded blast radius instead. This header defines:
//
//   - solve_code / solve_error: the closed taxonomy of solver failures, with
//     the tree node where the failure was detected (when one is known) and a
//     human-readable detail string.
//   - solve_outcome<T>: an expected-style sum of a result and a solve_error.
//     The `solve_*` entry points of every driver (statistical_dp,
//     van_ginneken, cost_bounded, parallel, batch_solver, sessions) return
//     one of these and never throw; they are the only way into the solvers.
//   - cancel_token: a cooperative cancellation flag callers can pass into the
//     drivers; workers poll it at node boundaries.
//   - detail::guarded_solve: the entry policy all of them share.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "tree/routing_tree.hpp"

namespace vabi::core {

/// Why a solve failed. Codes are stable across threads and runs: the same
/// input with the same caps yields the same code regardless of scheduling.
enum class solve_code : std::uint8_t {
  ok,                 ///< not an error (never stored in a solve_error)
  candidate_cap,      ///< max_list_size / max_candidates exceeded
  deadline_exceeded,  ///< wall-clock deadline passed at a node boundary
  memory_cap,         ///< arena-bytes cap exceeded or allocation failed
  nonfinite_value,    ///< NaN/inf detected in a canonical form at a seal point
  invalid_options,    ///< option validation failed (detail names the field)
  invalid_tree,       ///< the routing tree failed structural validation
  cancelled,          ///< a cancel_token was triggered (or a sibling aborted)
  internal,           ///< unexpected exception escaping the engine
  journal_corrupt,    ///< a result journal failed CRC/framing mid-log
  journal_mismatch,   ///< a journal does not match the jobs being resumed
  shard_mismatch,     ///< shard journals disagree/overlap/missing at merge
};

inline const char* to_string(solve_code code) {
  switch (code) {
    case solve_code::ok:
      return "ok";
    case solve_code::candidate_cap:
      return "candidate_cap";
    case solve_code::deadline_exceeded:
      return "deadline_exceeded";
    case solve_code::memory_cap:
      return "memory_cap";
    case solve_code::nonfinite_value:
      return "nonfinite_value";
    case solve_code::invalid_options:
      return "invalid_options";
    case solve_code::invalid_tree:
      return "invalid_tree";
    case solve_code::cancelled:
      return "cancelled";
    case solve_code::internal:
      return "internal";
    case solve_code::journal_corrupt:
      return "journal_corrupt";
    case solve_code::journal_mismatch:
      return "journal_mismatch";
    case solve_code::shard_mismatch:
      return "shard_mismatch";
  }
  return "?";
}

/// One typed solver failure: what went wrong, where (when a node is known),
/// and a detail string for humans/logs. `node` is the tree node at which the
/// failure was *detected* — for deadline/cap trips that is the node boundary
/// where the guard fired, not necessarily where the budget was consumed.
struct solve_error {
  solve_code code = solve_code::internal;
  tree::node_id node = tree::invalid_node;
  std::string detail;

  /// "deadline_exceeded at node 17: wall clock exceeded max_wall_seconds"
  std::string message() const {
    std::string out = to_string(code);
    if (node != tree::invalid_node) {
      out += " at node ";
      out += std::to_string(node);
    }
    if (!detail.empty()) {
      out += ": ";
      out += detail;
    }
    return out;
  }
};

/// Expected-style result: either a T or a solve_error. Drivers returning a
/// solve_outcome never throw for failures in the taxonomy above.
template <class T>
class solve_outcome {
 public:
  solve_outcome(T value) : state_(std::move(value)) {}             // NOLINT
  solve_outcome(solve_error error) : state_(std::move(error)) {}   // NOLINT

  bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  /// The error code; solve_code::ok when the outcome holds a value.
  solve_code code() const {
    return ok() ? solve_code::ok : std::get<solve_error>(state_).code;
  }

  T& value() & { return std::get<T>(state_); }
  const T& value() const& { return std::get<T>(state_); }
  T&& value() && { return std::get<T>(std::move(state_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  solve_error& error() & { return std::get<solve_error>(state_); }
  const solve_error& error() const& { return std::get<solve_error>(state_); }

 private:
  std::variant<T, solve_error> state_;
};

/// Cooperative cancellation flag. A caller arms it (request_stop) from any
/// thread; workers poll stop_requested() at node boundaries and wind down
/// with solve_code::cancelled. Reusable after reset().
class cancel_token {
 public:
  cancel_token() = default;
  cancel_token(const cancel_token&) = delete;
  cancel_token& operator=(const cancel_token&) = delete;

  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { stop_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> stop_{false};
};

/// Whether a solve of `tree` runs the whole-tree entry checks
/// (`routing_tree::validate` and the non-finite input scan). A `checked()`
/// tree already passed both and has changed since only through finite
/// `apply_edit` edits, which keep every `validate()` rule but one: a prune
/// can detach the last sink, so a sinkless tree is checked again.
inline bool runs_entry_checks(const tree::routing_tree& tree) {
  return !tree.checked() || tree.num_sinks() == 0;
}

namespace detail {

/// The first attached node whose solve inputs -- sink load and RAT, the wire
/// above it -- are not finite. add_sink and retarget_rat accept NaN and
/// routing_tree::validate checks structure only, but an unordered key would
/// reach the engines' sorts and root selection.
inline std::optional<solve_error> check_finite_inputs(
    const tree::routing_tree& tree) {
  for (const tree::tree_node& n : tree.nodes()) {
    if (!n.inputs_finite() && !n.detached) {
      return solve_error{solve_code::nonfinite_value, n.id,
                         "non-finite sink load, sink RAT or wire length"};
    }
  }
  return std::nullopt;
}

/// The entry policy every typed solve_* function shares: reject bad options
/// (`bad_options`, from the driver's own check), a structurally invalid tree
/// and non-finite tree inputs (both whole-tree scans skipped unless
/// `runs_entry_checks`), run the solve, and translate everything that can go
/// wrong inside it -- an aborted run's dp_stats, a failed allocation, an
/// escaped exception -- into a solve_error. Never throws.
template <class Result, class Run>
solve_outcome<Result> guarded_solve(const tree::routing_tree& tree,
                                    std::optional<solve_error> bad_options,
                                    Run&& run) {
  if (bad_options) return std::move(*bad_options);
  if (runs_entry_checks(tree)) {
    try {
      tree.validate();
    } catch (const std::exception& e) {
      return solve_error{solve_code::invalid_tree, tree::invalid_node,
                         e.what()};
    }
    if (auto bad = check_finite_inputs(tree)) return std::move(*bad);
  }
  try {
    Result r = run();
    if (!r.stats.aborted) return r;
    const solve_code code = r.stats.abort_code == solve_code::ok
                                ? solve_code::internal
                                : r.stats.abort_code;
    return solve_error{code, r.stats.abort_node,
                       std::move(r.stats.abort_reason)};
  } catch (const std::bad_alloc&) {
    return solve_error{solve_code::memory_cap, tree::invalid_node,
                       "allocation failed"};
  } catch (const std::exception& e) {
    return solve_error{solve_code::internal, tree::invalid_node, e.what()};
  }
}

}  // namespace detail

}  // namespace vabi::core
