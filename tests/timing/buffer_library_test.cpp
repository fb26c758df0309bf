#include "timing/buffer_library.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace vabi::timing {
namespace {

TEST(BufferLibrary, StandardLibraryHasThreeSizes) {
  const buffer_library lib = standard_library();
  ASSERT_EQ(lib.size(), 3u);
  // Bigger buffers: more input cap, less output resistance.
  EXPECT_LT(lib[0].cap_pf, lib[1].cap_pf);
  EXPECT_LT(lib[1].cap_pf, lib[2].cap_pf);
  EXPECT_GT(lib[0].res_ohm, lib[1].res_ohm);
  EXPECT_GT(lib[1].res_ohm, lib[2].res_ohm);
}

TEST(BufferLibrary, SingleBufferLibrary) {
  const buffer_library lib = single_buffer_library();
  EXPECT_EQ(lib.size(), 1u);
  EXPECT_FALSE(lib.empty());
}

TEST(BufferLibrary, AddReturnsDenseIndices) {
  buffer_library lib;
  EXPECT_TRUE(lib.empty());
  const auto a = lib.add({"a", 0.01, 10.0, 500.0});
  const auto b = lib.add({"b", 0.02, 12.0, 250.0});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(lib[b].name, "b");
}

TEST(BufferLibrary, RejectsInvalidCharacteristics) {
  buffer_library lib;
  EXPECT_THROW(lib.add({"bad", 0.0, 10.0, 500.0}), std::invalid_argument);
  EXPECT_THROW(lib.add({"bad", 0.01, -1.0, 500.0}), std::invalid_argument);
  EXPECT_THROW(lib.add({"bad", 0.01, 10.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(buffer_library({{"bad", -0.01, 10.0, 500.0}}),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(lib.add({"bad", nan, 10.0, 500.0}), std::invalid_argument);
  EXPECT_THROW(lib.add({"bad", 0.01, nan, 500.0}), std::invalid_argument);
  EXPECT_THROW(lib.add({"bad", 0.01, 10.0, nan}), std::invalid_argument);
  EXPECT_EQ(lib.size(), 0u);
}

}  // namespace
}  // namespace vabi::timing
