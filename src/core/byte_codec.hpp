// Little-endian byte primitives of the result journal (core/journal.cpp), the
// daemon's wire protocol (serve/wire.cpp) and the shard workers' pipe
// messages: integers little-endian, doubles as raw IEEE-754 bits, strings as
// a u32 length and the bytes. Corpus tests pin the formats.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vabi::core::codec {

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xffu);
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xffu);
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

inline void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked sequential reader. The first overrun latches `failed`,
/// and from then on every read fails and returns zero, so a decoder reads a
/// whole message and checks done() once at the end.
struct cursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t at = 0;
  bool failed = false;

  bool fail() {
    failed = true;
    return false;
  }
  bool need(std::size_t n) {
    if (failed || size - at < n) return fail();
    return true;
  }
  std::uint8_t get_u8() {
    if (!need(1)) return 0;
    return data[at++];
  }
  template <class T>
  T get_le() {
    if (!need(sizeof(T))) return 0;
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) v |= T{data[at++]} << (8 * i);
    return v;
  }
  std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
  std::string get_str() {
    const std::uint32_t n = get_u32();
    // A string longer than the payload it lives in is garbage.
    if (!need(n)) return {};
    std::string s(reinterpret_cast<const char*>(data + at), n);
    at += n;
    return s;
  }
  bool done() const { return !failed && at == size; }
};

}  // namespace vabi::core::codec
