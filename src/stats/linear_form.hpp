// First-order canonical form over a variation_space.
//
// Every statistical quantity in the library -- a buffer's capacitance or
// intrinsic delay, a candidate solution's downstream load L and required
// arrival time T -- is represented as
//
//   V = v0 + sum_i a_i * X_i                           (paper eqs. 31-32)
//
// where v0 is the nominal value and X_i are the independent zero-mean normal
// sources registered in a variation_space. The form is stored sparsely as an
// array of (source id, coefficient) terms sorted by id, so that addition,
// subtraction and covariance are single linear merges over the terms that are
// actually present.
//
// Because the X_i are independent normals, any linear form is normal, any set
// of linear forms over the same space is *jointly* normal, and the exact
// second-order statistics are:
//
//   Var(V)      = sum_i a_i^2 sigma_i^2                (eq. 41)
//   Cov(V, W)   = sum_i a_i b_i sigma_i^2              (numerator of eq. 43)
//
// This is what makes the paper's two-parameter pruning rule exact (Lemmas 2-4)
// and the statistical min (eq. 38) a closed-form operation.
//
// Storage model. A form's terms live in one of three places:
//
//   - inline: up to `inline_capacity` terms in the form itself (most device
//     forms and all deterministic forms fit here) -- no heap traffic at all;
//   - owned: a heap array, used by the value-semantics API when a form
//     outgrows the inline buffer (counted by term_heap_allocations());
//   - borrowed: a span inside a term_pool / term_block owned by the caller.
//     Copies of a borrowed form are shallow; the caller guarantees the
//     storage outlives every borrowing form (see term_pool.hpp for the epoch
//     rules). Any value-mutating operation first materializes the terms into
//     inline/owned storage, so borrowed spans are never written through.
//
// The hot path (the DP inner loops) uses the pooled_* free functions, which
// write results straight into a caller-provided term_pool and return
// borrowing forms: zero allocations per operation in steady state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "stats/term_pool.hpp"
#include "stats/variation_space.hpp"

namespace vabi::stats {

/// One sparse term a_i * X_i of a canonical form.
struct lf_term {
  source_id id = 0;
  double coeff = 0.0;

  friend bool operator==(const lf_term&, const lf_term&) = default;
};

class linear_form;

namespace detail {
/// Finishes a pooled operation: returns `used` merged terms written at `buf`
/// (the head of a pool allocation of `allocated` terms) as a linear_form --
/// inline when small enough (the pool allocation is fully returned),
/// borrowing the pool otherwise (the unused tail is trimmed).
linear_form adopt_pool_result(double nominal, term_pool& pool, lf_term* buf,
                              std::size_t allocated, std::size_t used);
}  // namespace detail

/// Thread-local count of terms written by pooled merge/blend operations (the
/// union size of each merge); dp_stats::terms_merged aggregates this.
std::size_t pooled_terms_merged() noexcept;

/// Sparse first-order canonical form v0 + sum a_i X_i.
class linear_form {
 public:
  /// Terms up to this count are stored inline (no heap, no pool).
  static constexpr std::size_t inline_capacity = 4;

  linear_form() : data_(sbo_) {}
  /// A deterministic constant (no variation terms).
  explicit linear_form(double nominal) : nominal_(nominal), data_(sbo_) {}
  /// A form with explicit terms; `terms` need not be sorted or deduplicated.
  linear_form(double nominal, std::vector<lf_term> terms);

  linear_form(const linear_form& other);
  linear_form(linear_form&& other) noexcept;
  linear_form& operator=(const linear_form& other);
  linear_form& operator=(linear_form&& other) noexcept;
  ~linear_form() { release_heap(); }

  /// A form whose terms borrow external storage (a term_pool span or a
  /// sealed term_block). `terms` must be sorted by id with unique ids, and
  /// must outlive every form borrowing it; the form never writes through the
  /// span (mutation materializes an owned copy first).
  static linear_form from_pooled(double nominal, std::span<const lf_term> terms);

  double nominal() const { return nominal_; }
  /// Mean of the form; equals the nominal value since all sources are
  /// zero-mean.
  double mean() const { return nominal_; }

  /// The terms, sorted by id with unique ids.
  std::span<const lf_term> terms() const { return {data_, size_}; }
  std::size_t num_terms() const { return size_; }
  bool is_deterministic() const { return size_ == 0; }

  /// True when the terms live in this object (inline) or on its own heap
  /// block; false when they borrow a pool/block span.
  bool owns_terms() const { return capacity_ != 0; }
  /// Materializes borrowed terms into owned storage; no-op when already
  /// owned. Call before the borrowed storage's epoch ends.
  void own_terms();
  /// Sealing primitive: moves borrowed terms out of their current storage
  /// before its epoch ends. Small borrowed forms become inline (returns 0);
  /// larger ones copy their terms to `dst` and borrow from there (returns
  /// the number of terms written). Owned forms are untouched (returns 0).
  std::size_t relocate_terms(lf_term* dst);

  /// Coefficient on source `id` (0 if absent).
  double coefficient(source_id id) const;

  /// Adds `coeff * X_id` to this form.
  void add_term(source_id id, double coeff);

  linear_form& operator+=(const linear_form& rhs);
  linear_form& operator-=(const linear_form& rhs);
  linear_form& operator+=(double constant);
  linear_form& operator-=(double constant);
  linear_form& operator*=(double scale);

  friend linear_form operator+(linear_form lhs, const linear_form& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend linear_form operator-(linear_form lhs, const linear_form& rhs) {
    lhs -= rhs;
    return lhs;
  }
  friend linear_form operator*(linear_form lhs, double scale) {
    lhs *= scale;
    return lhs;
  }
  friend linear_form operator*(double scale, linear_form rhs) {
    rhs *= scale;
    return rhs;
  }

  friend bool operator==(const linear_form& a, const linear_form& b) {
    if (a.nominal_ != b.nominal_ || a.size_ != b.size_) return false;
    for (std::uint32_t i = 0; i < a.size_; ++i) {
      if (a.data_[i].id != b.data_[i].id ||
          a.data_[i].coeff != b.data_[i].coeff) {
        return false;
      }
    }
    return true;
  }

  /// Exact variance over `space` (eq. 41).
  double variance(const variation_space& space) const;
  double stddev(const variation_space& space) const;

  /// Evaluates the form at a concrete sample of every source. `sample[id]`
  /// must hold the drawn value of source `id` (see monte_carlo.hpp).
  double evaluate(std::span<const double> sample) const;

  /// True when the nominal and every coefficient are finite (the engines'
  /// seal-point NaN scan).
  bool is_finite() const;

 private:
  friend linear_form detail::adopt_pool_result(double, term_pool&, lf_term*,
                                               std::size_t, std::size_t);

  linear_form(double nominal, const lf_term* borrowed, std::size_t n)
      : nominal_(nominal),
        data_(borrowed != nullptr ? const_cast<lf_term*>(borrowed) : sbo_),
        size_(static_cast<std::uint32_t>(n)),
        capacity_(borrowed != nullptr ? 0 : inline_capacity) {}

  bool owns_heap() const { return capacity_ != 0 && data_ != sbo_; }
  void release_heap() {
    if (owns_heap()) delete[] data_;
  }
  /// Guarantees owned storage for at least `min_capacity` terms, preserving
  /// the current terms (materializes borrowed spans).
  void ensure_mutable(std::size_t min_capacity);
  /// Replaces this form's terms with a copy of src[0..n), reusing owned
  /// capacity when possible. `src` must not alias this form's storage.
  void assign_terms(const lf_term* src, std::size_t n);

  double nominal_ = 0.0;
  lf_term* data_ = nullptr;       // sbo_, owned heap, or borrowed terms
  std::uint32_t size_ = 0;        // terms in use
  std::uint32_t capacity_ = inline_capacity;  // 0 <=> borrowed (non-owning)
  lf_term sbo_[inline_capacity];  // small-buffer inline storage
};

/// Exact covariance of two forms over `space`.
double covariance(const linear_form& a, const linear_form& b,
                  const variation_space& space);

/// Correlation coefficient rho(a, b); returns 0 when either form is
/// deterministic.
double correlation(const linear_form& a, const linear_form& b,
                   const variation_space& space);

/// Standard deviation of the difference a - b (paper eq. 9 / eq. 40):
///   sigma_{a,b} = sqrt(Var(a) - 2 Cov(a,b) + Var(b))
/// computed in one sparse pass without materializing a - b.
double sigma_of_difference(const linear_form& a, const linear_form& b,
                           const variation_space& space);

/// P(a > b) for jointly normal forms (paper eq. 8):
///   Phi((mu_a - mu_b) / sigma_{a,b}).
/// When sigma_{a,b} == 0 the comparison degenerates to the deterministic one
/// (returns 1, 0, or 0.5 on a tie).
double prob_greater(const linear_form& a, const linear_form& b,
                    const variation_space& space);

/// Statistical min of two jointly normal forms, re-expressed as a canonical
/// form via the tightness-probability linearization of [Visweswariah et al.]
/// (paper eq. 38):
///
///   min(a,b) ~ t*a0 + (1-t)*b0 - sigma_{a,b} * phi((mu_b - mu_a)/sigma_{a,b})
///              + sum (t*a_i + (1-t)*b_i) X_i,   t = P(a < b).
///
/// The mean matches the exact mean of min(a,b) (Cain 1994); the linear terms
/// preserve covariance with the underlying sources to first order.
linear_form statistical_min(const linear_form& a, const linear_form& b,
                            const variation_space& space);

/// Statistical max, by the dual linearization: max(a,b) = -min(-a,-b).
linear_form statistical_max(const linear_form& a, const linear_form& b,
                            const variation_space& space);

/// The p-quantile of the (normal) form: mean + stddev * Phi^-1(p).
double percentile(const linear_form& f, const variation_space& space, double p);

std::ostream& operator<<(std::ostream& os, const linear_form& f);

// ---------------------------------------------------------------------------
// Pooled operations: results borrow `pool` storage (inline when <= 4 terms),
// so steady-state cost is the merge itself -- no allocation, no free. All of
// them are bit-identical to the equivalent value-semantics expression; the
// engines' golden tests depend on this.
// ---------------------------------------------------------------------------

/// A borrowing copy of `f` with its terms re-homed into `pool`. Used to pin
/// a short-lived owned form (e.g. a characterized device form) into the
/// current pool epoch so candidates can borrow it.
linear_form pooled_copy(const linear_form& f, term_pool& pool);

/// a + b. Bit-identical to `linear_form c = a; c += b;`.
linear_form pooled_add(const linear_form& a, const linear_form& b,
                       term_pool& pool);

/// a - b. Bit-identical to `linear_form c = a; c -= b;`.
linear_form pooled_sub(const linear_form& a, const linear_form& b,
                       term_pool& pool);

/// a - s*b in one merge. Bit-identical to `linear_form c = a; c -= s * b;`
/// (the add-wire / add-buffer updates of eqs. 33-36).
linear_form pooled_sub_scaled(const linear_form& a, double s,
                              const linear_form& b, term_pool& pool);

/// a + s*b in one merge. Bit-identical to `linear_form c = a; c += s * b;`
/// (the top-down arrival accumulation of the skew analysis).
linear_form pooled_add_scaled(const linear_form& a, double s,
                              const linear_form& b, term_pool& pool);

/// sa*a + sb*b in one merge. Bit-identical to `sa * a + sb * b` (the
/// tightness-probability blend of eq. 38).
linear_form pooled_blend(double sa, const linear_form& a, double sb,
                         const linear_form& b, term_pool& pool);

/// statistical_min with the result in `pool`. Bit-identical to the value
/// overload when `drop_rel_eps == 0`. A positive `drop_rel_eps` drops blend
/// terms with |coeff| <= drop_rel_eps * max|coeff| of the result -- the
/// tightness blend otherwise keeps every near-zero coefficient forever and
/// deep trees accumulate superlinear term counts (see
/// stat_options::term_prune_rel_eps).
linear_form statistical_min(const linear_form& a, const linear_form& b,
                            const variation_space& space, term_pool& pool,
                            double drop_rel_eps = 0.0);

/// statistical_max with the result in `pool`; dual of the pooled min.
linear_form statistical_max(const linear_form& a, const linear_form& b,
                            const variation_space& space, term_pool& pool,
                            double drop_rel_eps = 0.0);

}  // namespace vabi::stats
