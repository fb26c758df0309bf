#include "stats/term_pool.hpp"

#include <algorithm>
#include <new>

#include "stats/linear_form.hpp"
#include "testing/fault_injection.hpp"

namespace vabi::stats {

lf_term* term_pool::allocate(std::size_t n) {
  if (n == 0) return nullptr;
  if (testing::should_fire(testing::fault_point::term_pool_alloc)) {
    throw std::bad_alloc{};
  }
  // Bump semantics: a chunk whose tail is too small is skipped for the rest
  // of the epoch (reset() makes the space usable again).
  while (chunk_idx_ < chunks_.size() &&
         chunks_[chunk_idx_].cap - used_ < n) {
    ++chunk_idx_;
    used_ = 0;
  }
  if (chunk_idx_ == chunks_.size()) {
    const std::size_t cap = std::max(
        n, chunks_.empty() ? min_chunk_terms : chunks_.back().cap * 2);
    chunks_.push_back(chunk{std::make_unique<lf_term[]>(cap), cap});
    capacity_ += cap;
    ++allocs_;
    used_ = 0;
  }
  lf_term* p = chunks_[chunk_idx_].data.get() + used_;
  used_ += n;
  live_ += n;
  peak_ = std::max(peak_, live_);
  return p;
}

void term_pool::trim(lf_term* p, std::size_t allocated, std::size_t used) {
  if (allocated == used) return;
  if (chunk_idx_ < chunks_.size() && used_ >= allocated &&
      chunks_[chunk_idx_].data.get() + (used_ - allocated) == p) {
    used_ -= allocated - used;
    live_ -= allocated - used;
  }
}

void term_pool::reset() {
  chunk_idx_ = 0;
  used_ = 0;
  live_ = 0;
}

void term_pool::reset_statistics() {
  peak_ = live_;
  allocs_ = 0;
}

lf_term* term_block::ensure(std::size_t n, std::size_t* alloc_counter) {
  if (n > cap_) {
    const std::size_t cap = std::max(n, cap_ * 2);
    data_ = std::make_unique<lf_term[]>(cap);
    cap_ = cap;
    if (alloc_counter != nullptr) ++*alloc_counter;
  }
  return data_.get();
}

namespace {
thread_local std::size_t t_term_heap_allocs = 0;
}  // namespace

std::size_t term_heap_allocations() noexcept { return t_term_heap_allocs; }

void detail::count_term_heap_allocation() noexcept { ++t_term_heap_allocs; }

}  // namespace vabi::stats
