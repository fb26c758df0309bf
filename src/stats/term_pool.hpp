// Pooled storage for canonical-form terms.
//
// The DP engines create and drop millions of short-lived linear forms; giving
// each form its own heap vector makes malloc/free the dominant cost of the
// key operations (bench_micro_ops). This module provides the two arena
// building blocks the engines use instead:
//
//   - term_pool: a chunked bump allocator of lf_term slabs. Chunks are
//     stable-address (never relocated or freed before the pool dies);
//     reset() rewinds the pool to empty in O(1) while keeping the chunks for
//     the next epoch, so steady-state allocation is pointer arithmetic.
//     Epoch discipline: every span handed out by allocate() is invalidated
//     by reset(); holders must copy terms they want to keep (see
//     linear_form::own_terms) before the epoch ends.
//
//   - term_block: a single owned slab used to "seal" the survivors of an
//     epoch. A DP node's final candidate list copies its forms' terms into
//     one exactly-sized block, after which the scratch pool can be rewound.
//     Blocks recycle their capacity, so a steady-state DP run allocates no
//     new memory per node.
//
// Neither type is thread-safe; the engines keep one pool per worker. Blocks
// may migrate between threads (a parent task consumes a child's sealed list)
// because they are plain heap allocations with single ownership.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace vabi::stats {

struct lf_term;  // linear_form.hpp

/// Chunked bump allocator for term arrays. Addresses are stable until
/// reset(); reset() keeps the chunks, so one pool amortizes to zero
/// allocations across epochs (nodes, nets).
class term_pool {
 public:
  term_pool() = default;
  term_pool(const term_pool&) = delete;
  term_pool& operator=(const term_pool&) = delete;

  /// Returns an uninitialized span of `n` terms, stable until reset().
  lf_term* allocate(std::size_t n);

  /// Returns the unused tail of the *most recent* allocation to the pool:
  /// after `p = allocate(max)` wrote only `used` terms, trim(p, max, used)
  /// rewinds the cursor. A no-op when `p` is not the latest allocation.
  void trim(lf_term* p, std::size_t allocated, std::size_t used);

  /// Rewinds the pool to empty, keeping chunks and statistics. All spans
  /// handed out in this epoch are invalidated.
  void reset();

  /// Zeroes the high-water mark and the allocation counter (call at the
  /// start of a run when the pool is reused across nets).
  void reset_statistics();

  std::size_t live_terms() const { return live_; }
  /// High-water mark of live terms across epochs since reset_statistics().
  std::size_t peak_terms() const { return peak_; }
  /// Number of slab (chunk) heap allocations since reset_statistics().
  std::size_t allocations() const { return allocs_; }
  /// Total terms the chunks can hold.
  std::size_t capacity() const { return capacity_; }

 private:
  struct chunk {
    std::unique_ptr<lf_term[]> data;
    std::size_t cap = 0;
  };

  static constexpr std::size_t min_chunk_terms = 1024;

  std::vector<chunk> chunks_;
  std::size_t chunk_idx_ = 0;  ///< chunk currently bumped into
  std::size_t used_ = 0;       ///< terms used in chunks_[chunk_idx_]
  std::size_t live_ = 0;
  std::size_t peak_ = 0;
  std::size_t allocs_ = 0;
  std::size_t capacity_ = 0;
};

/// One owned, exactly-sized slab of terms: the storage of a sealed candidate
/// list. Recycles its capacity across uses.
class term_block {
 public:
  term_block() = default;
  // Moves must zero the source's capacity along with the pointer: a
  // moved-from block reporting stale capacity would hand out nullptr from a
  // later ensure() that thinks the slab is still there.
  term_block(term_block&& other) noexcept
      : data_(std::move(other.data_)), cap_(std::exchange(other.cap_, 0)) {}
  term_block& operator=(term_block&& other) noexcept {
    data_ = std::move(other.data_);
    cap_ = std::exchange(other.cap_, 0);
    return *this;
  }
  term_block(const term_block&) = delete;
  term_block& operator=(const term_block&) = delete;

  /// Makes room for `n` terms and returns the base pointer. Grows (a heap
  /// allocation, counted into *alloc_counter when given) only when the
  /// recycled capacity is too small. Contents are uninitialized.
  lf_term* ensure(std::size_t n, std::size_t* alloc_counter = nullptr);

  std::size_t capacity() const { return cap_; }
  bool empty() const { return cap_ == 0; }

  /// Base pointer of the slab (nullptr when empty). The slab-cache clone
  /// path memcpys the sealed prefix and rebases borrowed forms onto the
  /// copy; lf_term is trivially copyable so a byte copy is exact.
  const lf_term* data() const { return data_.get(); }
  lf_term* data() { return data_.get(); }

 private:
  std::unique_ptr<lf_term[]> data_;
  std::size_t cap_ = 0;
};

/// Thread-local count of heap allocations made by owning linear_form storage
/// (the value-semantics fallback path). Together with term_pool::allocations
/// this is what dp_stats::allocations aggregates.
std::size_t term_heap_allocations() noexcept;

namespace detail {
/// Bumps the thread-local owning-storage allocation counter (linear_form
/// internal).
void count_term_heap_allocation() noexcept;
}  // namespace detail

}  // namespace vabi::stats
