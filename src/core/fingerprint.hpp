// Option fingerprints: the FNV-1a recipes (stats/fnv1a.hpp) that key the
// result journal (fingerprint_job in core/parallel.hpp) and the session
// cache (core/slab_cache.hpp). Every value is persisted or compared across
// runs, so a recipe change must be deliberate: a drifted job fingerprint
// turns a resume of an older journal into journal_mismatch, a drifted session
// fingerprint silently flushes warm caches. tests/core/fingerprint_test.cpp
// pins them.
#pragma once

#include <cstdint>

#include "core/statistical_dp.hpp"

namespace vabi::core {

/// Chains every solve-relevant stat_options field except li_shi (which
/// changes the operation organization, never a result) into `h`. The
/// journal's per-job fingerprint.
std::uint64_t hash_stat_options(const stat_options& options, std::uint64_t h);

/// hash_stat_options plus li_shi, from the FNV seed: solve_session flushes
/// its slab cache when this changes, so cached lists are reproducible under
/// exactly one configuration.
std::uint64_t fingerprint_stat_options(const stat_options& options);

/// The buffer library alone; a change additionally flushes a session's
/// device memo (entries are indexed by buffer type).
std::uint64_t fingerprint_library(const timing::buffer_library& library);

}  // namespace vabi::core
