#include "stats/linear_form.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ostream>

#include "stats/normal.hpp"

namespace vabi::stats {

namespace {
thread_local std::size_t t_terms_merged = 0;
}  // namespace

std::size_t pooled_terms_merged() noexcept { return t_terms_merged; }

// ---------------------------------------------------------------------------
// Storage management
// ---------------------------------------------------------------------------

linear_form::linear_form(const linear_form& other)
    : nominal_(other.nominal_), size_(other.size_) {
  if (other.capacity_ == 0) {
    // Copy of a borrowed form is shallow: same external storage.
    data_ = other.data_;
    capacity_ = 0;
  } else if (size_ <= inline_capacity) {
    data_ = sbo_;
    capacity_ = inline_capacity;
    std::copy(other.data_, other.data_ + size_, data_);
  } else {
    data_ = new lf_term[size_];
    capacity_ = size_;
    detail::count_term_heap_allocation();
    std::copy(other.data_, other.data_ + size_, data_);
  }
}

linear_form::linear_form(linear_form&& other) noexcept
    : nominal_(other.nominal_), size_(other.size_) {
  if (other.owns_heap()) {
    data_ = other.data_;
    capacity_ = other.capacity_;
    other.data_ = other.sbo_;
    other.capacity_ = inline_capacity;
    other.size_ = 0;
  } else if (other.capacity_ == 0) {
    data_ = other.data_;
    capacity_ = 0;
  } else {
    data_ = sbo_;
    capacity_ = inline_capacity;
    std::copy(other.sbo_, other.sbo_ + size_, sbo_);
  }
}

linear_form& linear_form::operator=(const linear_form& other) {
  if (this == &other) return *this;
  nominal_ = other.nominal_;
  if (other.capacity_ == 0) {
    release_heap();
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = 0;
  } else {
    assign_terms(other.data_, other.size_);
  }
  return *this;
}

linear_form& linear_form::operator=(linear_form&& other) noexcept {
  if (this == &other) return *this;
  nominal_ = other.nominal_;
  if (other.owns_heap()) {
    release_heap();
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.data_ = other.sbo_;
    other.capacity_ = inline_capacity;
    other.size_ = 0;
  } else if (other.capacity_ == 0) {
    release_heap();
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = 0;
  } else {
    assign_terms(other.data_, other.size_);
  }
  return *this;
}

void linear_form::assign_terms(const lf_term* src, std::size_t n) {
  if (n <= inline_capacity) {
    release_heap();
    data_ = sbo_;
    capacity_ = inline_capacity;
  } else if (capacity_ < n) {
    lf_term* p = new lf_term[n];
    detail::count_term_heap_allocation();
    release_heap();
    data_ = p;
    capacity_ = static_cast<std::uint32_t>(n);
  }
  std::copy(src, src + n, data_);
  size_ = static_cast<std::uint32_t>(n);
}

void linear_form::ensure_mutable(std::size_t min_capacity) {
  if (capacity_ == 0) {
    // Borrowed: materialize the current terms into owned storage.
    const lf_term* src = data_;
    if (min_capacity <= inline_capacity) {
      data_ = sbo_;
      capacity_ = inline_capacity;
    } else {
      data_ = new lf_term[min_capacity];
      capacity_ = static_cast<std::uint32_t>(min_capacity);
      detail::count_term_heap_allocation();
    }
    std::copy(src, src + size_, data_);
    return;
  }
  if (capacity_ >= min_capacity) return;
  const std::size_t cap =
      std::max(min_capacity, static_cast<std::size_t>(capacity_) * 2);
  lf_term* p = new lf_term[cap];
  detail::count_term_heap_allocation();
  std::copy(data_, data_ + size_, p);
  release_heap();
  data_ = p;
  capacity_ = static_cast<std::uint32_t>(cap);
}

void linear_form::own_terms() {
  if (owns_terms()) return;
  ensure_mutable(size_);
}

std::size_t linear_form::relocate_terms(lf_term* dst) {
  if (owns_terms()) return 0;
  if (size_ <= inline_capacity) {
    ensure_mutable(size_);
    return 0;
  }
  std::copy(data_, data_ + size_, dst);
  data_ = dst;
  return size_;
}

linear_form linear_form::from_pooled(double nominal,
                                     std::span<const lf_term> terms) {
  if (terms.empty()) return linear_form(nominal);
  return linear_form(nominal, terms.data(), terms.size());
}

linear_form::linear_form(double nominal, std::vector<lf_term> terms)
    : nominal_(nominal), data_(sbo_) {
  std::sort(terms.begin(), terms.end(),
            [](const lf_term& a, const lf_term& b) { return a.id < b.id; });
  // Coalesce duplicate ids.
  std::size_t out = 0;
  for (std::size_t i = 0; i < terms.size();) {
    lf_term merged = terms[i];
    std::size_t j = i + 1;
    while (j < terms.size() && terms[j].id == merged.id) {
      merged.coeff += terms[j].coeff;
      ++j;
    }
    terms[out++] = merged;
    i = j;
  }
  assign_terms(terms.data(), out);
}

// ---------------------------------------------------------------------------
// Value-semantics operations
// ---------------------------------------------------------------------------

double linear_form::coefficient(source_id id) const {
  const auto* it = std::lower_bound(
      data_, data_ + size_, id,
      [](const lf_term& t, source_id v) { return t.id < v; });
  if (it != data_ + size_ && it->id == id) return it->coeff;
  return 0.0;
}

void linear_form::add_term(source_id id, double coeff) {
  if (coeff == 0.0) return;
  const std::size_t lo = static_cast<std::size_t>(
      std::lower_bound(data_, data_ + size_, id,
                       [](const lf_term& t, source_id v) { return t.id < v; }) -
      data_);
  if (lo < size_ && data_[lo].id == id) {
    ensure_mutable(size_);
    data_[lo].coeff += coeff;
    return;
  }
  ensure_mutable(size_ + std::size_t{1});
  for (std::size_t k = size_; k > lo; --k) data_[k] = data_[k - 1];
  data_[lo] = lf_term{id, coeff};
  ++size_;
}

namespace {

// Merges two sorted sparse term arrays into `out` (sized for a.size() +
// b.size()) as sa*a + sb*b. Exact coefficient expressions:
//   both present: (sa * a_i) + (sb * b_i)
//   a only:        sa * a_i
//   b only:        sb * b_i
// With sa == 1.0 this is bit-identical to the historical merge_terms(a, b,
// sign) (1.0 * x == x for every x), which the golden bit-identity tests rely
// on.
std::size_t merge_scaled(std::span<const lf_term> a, double sa,
                         std::span<const lf_term> b, double sb,
                         lf_term* out) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t n = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].id < b[j].id) {
      out[n++] = lf_term{a[i].id, sa * a[i].coeff};
      ++i;
    } else if (a[i].id > b[j].id) {
      out[n++] = lf_term{b[j].id, sb * b[j].coeff};
      ++j;
    } else {
      const double pa = sa * a[i].coeff;
      const double pb = sb * b[j].coeff;
      out[n++] = lf_term{a[i].id, pa + pb};
      ++i;
      ++j;
    }
  }
  for (; i < a.size(); ++i) out[n++] = lf_term{a[i].id, sa * a[i].coeff};
  for (; j < b.size(); ++j) out[n++] = lf_term{b[j].id, sb * b[j].coeff};
  return n;
}

// Reused merge destination for the value-semantics += / -=. One live buffer
// per thread; since every value op copies the result out before returning,
// re-entrancy is impossible.
thread_local std::vector<lf_term> t_merge_scratch;

}  // namespace

linear_form& linear_form::operator+=(const linear_form& rhs) {
  nominal_ += rhs.nominal_;
  if (rhs.size_ == 0) return *this;
  if (size_ == 0) {
    assign_terms(rhs.data_, rhs.size_);
    return *this;
  }
  const std::size_t need = std::size_t{size_} + rhs.size_;
  if (t_merge_scratch.size() < need) t_merge_scratch.resize(need);
  const std::size_t n = merge_scaled(terms(), 1.0, rhs.terms(), 1.0,
                                     t_merge_scratch.data());
  assign_terms(t_merge_scratch.data(), n);
  return *this;
}

linear_form& linear_form::operator-=(const linear_form& rhs) {
  nominal_ -= rhs.nominal_;
  if (rhs.size_ == 0) return *this;
  const std::size_t need = std::size_t{size_} + rhs.size_;
  if (t_merge_scratch.size() < need) t_merge_scratch.resize(need);
  const std::size_t n = merge_scaled(terms(), 1.0, rhs.terms(), -1.0,
                                     t_merge_scratch.data());
  assign_terms(t_merge_scratch.data(), n);
  return *this;
}

linear_form& linear_form::operator+=(double constant) {
  nominal_ += constant;
  return *this;
}

linear_form& linear_form::operator-=(double constant) {
  nominal_ -= constant;
  return *this;
}

linear_form& linear_form::operator*=(double scale) {
  nominal_ *= scale;
  if (size_ == 0) return *this;
  if (scale == 0.0) {
    size_ = 0;
    if (capacity_ == 0) {
      data_ = sbo_;
      capacity_ = inline_capacity;
    }
    return *this;
  }
  ensure_mutable(size_);
  for (std::uint32_t i = 0; i < size_; ++i) data_[i].coeff *= scale;
  return *this;
}

double linear_form::variance(const variation_space& space) const {
  double var = 0.0;
  for (const auto& t : terms()) var += t.coeff * t.coeff * space.variance(t.id);
  return var;
}

double linear_form::stddev(const variation_space& space) const {
  return std::sqrt(variance(space));
}

double linear_form::evaluate(std::span<const double> sample) const {
  double v = nominal_;
  for (const auto& t : terms()) {
    assert(t.id < sample.size());
    v += t.coeff * sample[t.id];
  }
  return v;
}

bool linear_form::is_finite() const {
  if (!std::isfinite(nominal_)) return false;
  for (std::uint32_t i = 0; i < size_; ++i) {
    if (!std::isfinite(data_[i].coeff)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Free functions over forms
// ---------------------------------------------------------------------------

double covariance(const linear_form& a, const linear_form& b,
                  const variation_space& space) {
  const auto ta = a.terms();
  const auto tb = b.terms();
  double cov = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ta.size() && j < tb.size()) {
    if (ta[i].id < tb[j].id) {
      ++i;
    } else if (ta[i].id > tb[j].id) {
      ++j;
    } else {
      cov += ta[i].coeff * tb[j].coeff * space.variance(ta[i].id);
      ++i;
      ++j;
    }
  }
  return cov;
}

double correlation(const linear_form& a, const linear_form& b,
                   const variation_space& space) {
  const double sa = a.stddev(space);
  const double sb = b.stddev(space);
  if (sa == 0.0 || sb == 0.0) return 0.0;
  return covariance(a, b, space) / (sa * sb);
}

double sigma_of_difference(const linear_form& a, const linear_form& b,
                           const variation_space& space) {
  // One sparse pass over the union of term ids: Var(a-b) = sum (a_i-b_i)^2 s_i^2.
  const auto ta = a.terms();
  const auto tb = b.terms();
  double var = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ta.size() || j < tb.size()) {
    double d = 0.0;
    source_id id = 0;
    if (j >= tb.size() || (i < ta.size() && ta[i].id < tb[j].id)) {
      d = ta[i].coeff;
      id = ta[i].id;
      ++i;
    } else if (i >= ta.size() || tb[j].id < ta[i].id) {
      d = -tb[j].coeff;
      id = tb[j].id;
      ++j;
    } else {
      d = ta[i].coeff - tb[j].coeff;
      id = ta[i].id;
      ++i;
      ++j;
    }
    var += d * d * space.variance(id);
  }
  return std::sqrt(std::max(var, 0.0));
}

double prob_greater(const linear_form& a, const linear_form& b,
                    const variation_space& space) {
  const double sigma = sigma_of_difference(a, b, space);
  return normal_exceedance(a.mean() - b.mean(), sigma, 0.0);
}

linear_form statistical_min(const linear_form& a, const linear_form& b,
                            const variation_space& space) {
  const double sigma = sigma_of_difference(a, b, space);
  if (sigma == 0.0) {
    // Perfectly correlated (or both deterministic): exact min by mean.
    return (a.mean() <= b.mean()) ? a : b;
  }
  // t = P(a < b), the tightness probability of eq. (39).
  const double z = (b.mean() - a.mean()) / sigma;
  const double t = normal_cdf(z);
  // Mean correction term of eq. (38): -sigma * phi(z). This makes the mean
  // exact: E[min] = t*mu_a + (1-t)*mu_b - sigma*phi(z) (Cain 1994).
  linear_form out = t * a + (1.0 - t) * b;
  out -= sigma * normal_pdf(z);
  return out;
}

linear_form statistical_max(const linear_form& a, const linear_form& b,
                            const variation_space& space) {
  linear_form na = -1.0 * a;
  linear_form nb = -1.0 * b;
  linear_form m = statistical_min(na, nb, space);
  m *= -1.0;
  return m;
}

double percentile(const linear_form& f, const variation_space& space,
                  double p) {
  return normal_percentile(f.mean(), f.stddev(space), p);
}

std::ostream& operator<<(std::ostream& os, const linear_form& f) {
  os << f.nominal();
  for (const auto& t : f.terms()) {
    os << (t.coeff >= 0.0 ? " + " : " - ") << std::abs(t.coeff) << "*X"
       << t.id;
  }
  return os;
}

// ---------------------------------------------------------------------------
// Pooled operations
// ---------------------------------------------------------------------------

namespace detail {

linear_form adopt_pool_result(double nominal, term_pool& pool, lf_term* buf,
                              std::size_t allocated, std::size_t used) {
  if (used <= linear_form::inline_capacity) {
    // Small result: inline, and the whole pool allocation is returned.
    linear_form out(nominal, nullptr, 0);
    std::copy(buf, buf + used, out.sbo_);
    out.size_ = static_cast<std::uint32_t>(used);
    pool.trim(buf, allocated, 0);
    return out;
  }
  pool.trim(buf, allocated, used);
  return linear_form(nominal, buf, used);
}

}  // namespace detail

linear_form pooled_copy(const linear_form& f, term_pool& pool) {
  if (!f.owns_terms()) {
    // Borrowed copies stay shallow: their storage already has
    // caller-managed lifetime.
    return f;
  }
  const auto ts = f.terms();
  if (ts.size() <= linear_form::inline_capacity) {
    // Inline copies are self-contained.
    return f;
  }
  lf_term* buf = pool.allocate(ts.size());
  std::copy(ts.begin(), ts.end(), buf);
  return detail::adopt_pool_result(f.nominal(), pool, buf, ts.size(),
                                   ts.size());
}

namespace {

/// The one pooled merge body: sa*a + sb*b into `pool`, with `nominal`
/// already combined by the caller.
///
/// A zero scale eliminates that side's term ids entirely: operator*= clears
/// the terms on scale == 0, and the historical blends were built on it, so
/// the ids must not survive as explicit zero-coefficient terms (form
/// equality drives the pruning tie conventions, and the 4P prune's
/// identical-form shortcut depends on it). Saturated tightness -- t exactly
/// 0 or 1, routine when near-identical candidates meet in a cross merge --
/// zero-weights one side of the statistical min/max blend this way.
///
/// A positive `drop_rel_eps` then drops terms with |coeff| <= drop_rel_eps *
/// max|coeff| of the result: the tightness blend otherwise keeps every
/// near-zero coefficient forever, and deep trees accumulate the union of
/// every source id they ever saw. The fixed-scale merges never ask for it
/// and return before the drop pass.
linear_form pooled_merge(double nominal, double sa, const linear_form& a,
                         double sb, const linear_form& b, term_pool& pool,
                         double drop_rel_eps = 0.0) {
  const std::span<const lf_term> ta =
      sa == 0.0 ? std::span<const lf_term>{} : a.terms();
  const std::span<const lf_term> tb =
      sb == 0.0 ? std::span<const lf_term>{} : b.terms();
  const std::size_t cap = ta.size() + tb.size();
  lf_term* buf = pool.allocate(cap);
  std::size_t n = merge_scaled(ta, sa, tb, sb, buf);
  t_terms_merged += n;
  if (!(drop_rel_eps > 0.0)) {
    return detail::adopt_pool_result(nominal, pool, buf, cap, n);
  }
  double max_abs = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    max_abs = std::max(max_abs, std::abs(buf[k].coeff));
  }
  const double thr = drop_rel_eps * max_abs;
  std::size_t out = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (std::abs(buf[k].coeff) > thr) buf[out++] = buf[k];
  }
  return detail::adopt_pool_result(nominal, pool, buf, cap, out);
}

}  // namespace

linear_form pooled_add(const linear_form& a, const linear_form& b,
                       term_pool& pool) {
  return pooled_merge(a.nominal() + b.nominal(), 1.0, a, 1.0, b, pool);
}

linear_form pooled_sub(const linear_form& a, const linear_form& b,
                       term_pool& pool) {
  return pooled_merge(a.nominal() - b.nominal(), 1.0, a, -1.0, b, pool);
}

linear_form pooled_sub_scaled(const linear_form& a, double s,
                              const linear_form& b, term_pool& pool) {
  // a - s*b in one pass: (-s)*b_i == -(s*b_i) exactly (IEEE negation commutes
  // with rounding), so this matches the two-step `a -= s * b` bit for bit.
  // s == 0 scaled the temporary to an empty form historically (operator*=
  // clears on zero), making the subtraction a terms no-op.
  if (s == 0.0) {
    linear_form out = pooled_copy(a, pool);
    out -= s * b.nominal();
    return out;
  }
  return pooled_merge(a.nominal() - s * b.nominal(), 1.0, a, -s, b, pool);
}

linear_form pooled_add_scaled(const linear_form& a, double s,
                              const linear_form& b, term_pool& pool) {
  // a + s*b; the s == 0 guard mirrors pooled_sub_scaled.
  if (s == 0.0) {
    linear_form out = pooled_copy(a, pool);
    out += s * b.nominal();
    return out;
  }
  return pooled_merge(a.nominal() + s * b.nominal(), 1.0, a, s, b, pool);
}

linear_form pooled_blend(double sa, const linear_form& a, double sb,
                         const linear_form& b, term_pool& pool) {
  return pooled_merge(sa * a.nominal() + sb * b.nominal(), sa, a, sb, b,
                      pool);
}

linear_form statistical_min(const linear_form& a, const linear_form& b,
                            const variation_space& space, term_pool& pool,
                            double drop_rel_eps) {
  const double sigma = sigma_of_difference(a, b, space);
  if (sigma == 0.0) return (a.mean() <= b.mean()) ? a : b;
  const double z = (b.mean() - a.mean()) / sigma;
  const double t = normal_cdf(z);
  const double sb = 1.0 - t;
  const double correction = -(sigma * normal_pdf(z));
  return pooled_merge((t * a.nominal() + sb * b.nominal()) + correction, t, a,
                      sb, b, pool, drop_rel_eps);
}

linear_form statistical_max(const linear_form& a, const linear_form& b,
                            const variation_space& space, term_pool& pool,
                            double drop_rel_eps) {
  // max(a,b) = -min(-a,-b); folding the negations through the linearization
  // gives the same blend with t = P(a > b) and a positive mean correction.
  // Every fold is an exact IEEE negation, so this matches the value-semantics
  // statistical_max bit for bit.
  const double sigma = sigma_of_difference(a, b, space);
  if (sigma == 0.0) return (a.mean() >= b.mean()) ? a : b;
  const double z = (a.mean() - b.mean()) / sigma;
  const double t = normal_cdf(z);
  const double sb = 1.0 - t;
  const double correction = sigma * normal_pdf(z);
  return pooled_merge((t * a.nominal() + sb * b.nominal()) + correction, t, a,
                      sb, b, pool, drop_rel_eps);
}

}  // namespace vabi::stats
