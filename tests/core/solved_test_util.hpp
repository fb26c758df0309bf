// Test helper: unwraps a typed solve the test expects to succeed.
#pragma once

#include <stdexcept>
#include <utility>

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

}  // namespace vabi::core::testutil
