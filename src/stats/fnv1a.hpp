// 64-bit FNV-1a: the one hash primitive behind every content hash and
// fingerprint in the library -- routing-tree subtree hashes (src/tree), the
// journal and session option fingerprints (src/core), canonical-form hashes.
// Header-only and dependency-free so every layer from src/tree up shares the
// same recipes bit for bit.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace vabi::stats {

inline constexpr std::uint64_t fnv1a_seed = 14695981039346656037ull;

/// FNV-1a over a byte range (chainable via `h`).
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t h = fnv1a_seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t h) {
  return fnv1a(&v, sizeof(v), h);
}

/// Hashes the raw IEEE-754 bit pattern (0.0 and -0.0 differ).
inline std::uint64_t fnv1a_f64(double v, std::uint64_t h) {
  return fnv1a_u64(std::bit_cast<std::uint64_t>(v), h);
}

/// Length-prefixed, so concatenations of different splits hash apart.
inline std::uint64_t fnv1a_str(const std::string& s, std::uint64_t h) {
  h = fnv1a_u64(s.size(), h);
  return fnv1a(s.data(), s.size(), h);
}

}  // namespace vabi::stats
