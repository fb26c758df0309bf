#include "timing/buffer_library.hpp"

#include <cmath>
#include <stdexcept>

namespace vabi::timing {

buffer_library::buffer_library(std::vector<buffer_type> types)
    : types_(std::move(types)) {
  for (const auto& t : types_) check(t);
}

void buffer_library::check(const buffer_type& type) const {
  // Negated so that a NaN characteristic fails too.
  if (!(type.cap_pf > 0.0) || !(type.res_ohm > 0.0) ||
      !(type.delay_ps >= 0.0)) {
    throw std::invalid_argument("buffer_library: invalid characteristics for '" +
                                type.name + "'");
  }
}

buffer_index buffer_library::add(buffer_type type) {
  check(type);
  types_.push_back(std::move(type));
  return static_cast<buffer_index>(types_.size() - 1);
}

buffer_library standard_library() {
  // 65nm-flavor repeaters. With the default wire (0.2 ohm/um, 0.2 fF/um)
  // the x1 optimal repeater spacing sqrt(2(T_b + R_b C_b)/(r c)) is ~1.5 mm,
  // so multi-millimeter nets want buffers -- the regime the paper studies.
  return buffer_library{{
      {"buf_x1", 0.020, 40.0, 400.0},
      {"buf_x2", 0.040, 36.0, 200.0},
      {"buf_x4", 0.080, 33.0, 100.0},
  }};
}

buffer_library single_buffer_library() {
  return buffer_library{{{"buf_x1", 0.020, 40.0, 400.0}}};
}

buffer_library make_parameterized_library(std::size_t size,
                                          std::uint32_t seed) {
  if (size == 0 || size > 1024) {
    throw std::invalid_argument(
        "make_parameterized_library: size must be in [1, 1024]");
  }
  // splitmix64-style mixer: cheap, deterministic across platforms, and good
  // enough to decorrelate the per-type percent-level jitter.
  auto mix = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  // Uniform in [-1, 1), from the top 53 bits.
  auto jitter = [&mix](std::uint64_t key) {
    return 2.0 * static_cast<double>(mix(key) >> 11) * 0x1p-53 - 1.0;
  };

  std::vector<buffer_type> types;
  types.reserve(size);
  const std::size_t drive_steps = size < 4 ? size : (size + 3) / 4 * 4 / 4;
  for (std::size_t i = 0; i < size; ++i) {
    // Drive index walks x1 -> x64 geometrically; variants (skewed, inverting)
    // reuse the drive of their base cell so res_ohm values genuinely repeat.
    const std::size_t drive_idx = size < 4 ? i : i / 4;
    const std::size_t variant = size < 4 ? 0 : i % 4;
    const double t = drive_steps <= 1
                         ? 0.0
                         : static_cast<double>(drive_idx) /
                               static_cast<double>(drive_steps - 1);
    const double drive = std::pow(64.0, t);  // x1 .. x64
    const std::uint64_t key =
        (static_cast<std::uint64_t>(seed) << 32) ^ drive_idx;

    buffer_type b;
    b.cap_pf = 0.020 * drive * (1.0 + 0.03 * jitter(key ^ 0x11));
    b.res_ohm = 400.0 / drive * (1.0 + 0.03 * jitter(key ^ 0x22));
    b.delay_ps = (40.0 - 7.0 * t) * (1.0 + 0.03 * jitter(key ^ 0x33));
    std::string tag = "buf";
    if (variant == 1 || variant == 3) {
      // Skewed cell: same drive (resistance tie with the base cell), more
      // intrinsic delay, a touch less input cap.
      b.delay_ps *= variant == 1 ? 1.15 : 1.30;
      b.cap_pf *= 0.95;
      tag = variant == 1 ? "bufskw" : "bufskw2";
    } else if (variant == 2) {
      // Inverting cell: one extra stage of intrinsic delay.
      b.delay_ps += 12.0;
      tag = "inv";
    }
    b.name = tag + "_d" + std::to_string(drive_idx) + "_s" +
             std::to_string(seed);
    types.push_back(std::move(b));
  }
  return buffer_library{std::move(types)};
}

}  // namespace vabi::timing
