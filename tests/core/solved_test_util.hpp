// Test helpers: unwraps a typed solve the test expects to succeed, and pins
// the dominance-sweep implementation for a scope.
#pragma once

#include <stdexcept>
#include <utility>

#include "core/pruning.hpp"
#include "core/solve_status.hpp"

namespace vabi::core::testutil {

/// The value of `out`; a failed solve throws with the error's message, which
/// gtest reports as the failure of the test that asked for it.
template <class T>
T solved(solve_outcome<T>&& out) {
  if (!out.ok()) {
    throw std::runtime_error("solve failed: " + out.error().message());
  }
  return std::move(out).value();
}

/// Forces one prune implementation for the scope (set_force_prune's modes);
/// restores the VABI_FORCE_PRUNE environment default on exit.
struct prune_guard {
  explicit prune_guard(int mode) { set_force_prune(mode); }
  ~prune_guard() { reset_force_prune_from_env(); }
  prune_guard(const prune_guard&) = delete;
  prune_guard& operator=(const prune_guard&) = delete;
};

}  // namespace vabi::core::testutil
