#include "stats/kernels.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <cstring>
#include <new>
#include <string>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define VABI_X86 1
#endif

namespace vabi::stats::kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar kernels -- the reference semantics every ISA must reproduce.
// ---------------------------------------------------------------------------

double s_variance_plane(const double* a, const double* s2, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * a[i] * s2[i];
  return acc;
}

double s_sigma_diff_sq_planes(const double* a, const double* b,
                              const double* s2, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d * s2[i];
  }
  return acc;
}

std::size_t s_argmax_buffered_row(const double* rats, const double* loads,
                                  double d, double R, std::size_t n) {
  double best = -std::numeric_limits<double>::infinity();
  std::size_t bk = static_cast<std::size_t>(-1);
  for (std::size_t k = 0; k < n; ++k) {
    const double v = rats[k] - d - R * loads[k];
    if (v > best) {
      best = v;
      bk = k;
    }
  }
  return bk;
}

// One-vs-many reference forms: per row, exactly the one-plane reduction
// above (same single left-to-right chain).

void s_variance_rows(const double* const* rows, std::size_t m,
                     const double* s2, std::size_t n, double* out) {
  for (std::size_t j = 0; j < m; ++j) out[j] = s_variance_plane(rows[j], s2, n);
}

void s_sigma_diff_sq_row_tile(const double* x, const double* const* rows,
                              std::size_t m, const double* s2, std::size_t n,
                              double* out) {
  for (std::size_t j = 0; j < m; ++j) {
    out[j] = s_sigma_diff_sq_planes(x, rows[j], s2, n);
  }
}

// The exact branch ladder of prob_less_at_least (core/pruning.cpp): a NaN in
// any operand fails every comparison and yields 2 (exact pass), like the
// scalar prefilter's fall-through.
void s_prefilter_row_tile(const double* mu_d, const double* sigma_x,
                          const double* sigma_y, std::size_t m, double z_hi,
                          double z_lo, std::uint8_t* verdict) {
  for (std::size_t j = 0; j < m; ++j) {
    if (mu_d[j] > z_hi * (sigma_x[j] + sigma_y[j])) {
      verdict[j] = 1;
    } else if (mu_d[j] < 0.0 ||
               mu_d[j] < z_lo * std::abs(sigma_x[j] - sigma_y[j])) {
      verdict[j] = 0;
    } else {
      verdict[j] = 2;
    }
  }
}

constexpr kernel_table k_scalar_table = {
    kernel_isa::scalar,       s_variance_plane, s_sigma_diff_sq_planes,
    s_argmax_buffered_row,    s_variance_rows,  s_sigma_diff_sq_row_tile,
    s_prefilter_row_tile,
};

// ---------------------------------------------------------------------------
// x86-64 AVX2 (runtime-detected, per-function target attributes so the rest
// of the binary keeps the portable baseline).
// ---------------------------------------------------------------------------

#ifdef VABI_X86

// Reductions keep the bit-identity contract by vectorizing only the
// *products* (_mm256_mul_pd rounds each lane exactly like the scalar `*`)
// and feeding them through the same single left-to-right add chain as the
// scalar kernels. The chain is the latency floor either way; lifting the
// multiplies off it is what the vector forms buy.
__attribute__((target("avx2"))) double avx2_variance_plane(const double* a,
                                                           const double* s2,
                                                           std::size_t n) {
  double acc = 0.0;
  alignas(32) double t[8];
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d va0 = _mm256_loadu_pd(a + i);
    const __m256d va1 = _mm256_loadu_pd(a + i + 4);
    _mm256_store_pd(t, _mm256_mul_pd(_mm256_mul_pd(va0, va0),
                                     _mm256_loadu_pd(s2 + i)));
    _mm256_store_pd(t + 4, _mm256_mul_pd(_mm256_mul_pd(va1, va1),
                                         _mm256_loadu_pd(s2 + i + 4)));
    for (int k = 0; k < 8; ++k) acc += t[k];
  }
  for (; i < n; ++i) acc += a[i] * a[i] * s2[i];
  return acc;
}

__attribute__((target("avx2"))) double avx2_sigma_diff_sq_planes(
    const double* a, const double* b, const double* s2, std::size_t n) {
  double acc = 0.0;
  alignas(32) double t[4];
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d p =
        _mm256_mul_pd(_mm256_mul_pd(d, d), _mm256_loadu_pd(s2 + i));
    _mm256_store_pd(t, p);
    acc += t[0];
    acc += t[1];
    acc += t[2];
    acc += t[3];
  }
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d * s2[i];
  }
  return acc;
}

// The argmax update keeps per-lane state: lane l holds the max over indices
// congruent to l (mod 4) together with the *smallest* index attaining it
// (strictly-greater never replaces on ties). The final reduction takes the
// lexicographic (max value, min index) over lanes plus the scalar tail,
// which is exactly the scalar leftmost rule. GT is the ordered quiet
// compare, so NaN keys never win -- also exactly the scalar `>`.
__attribute__((target("avx2"))) std::size_t avx2_argmax_buffered_row(
    const double* rats, const double* loads, double d, double R,
    std::size_t n) {
  double best = -std::numeric_limits<double>::infinity();
  std::size_t bk = static_cast<std::size_t>(-1);
  std::size_t i = 0;
  if (n >= 8) {
    const __m256d vd = _mm256_set1_pd(d);
    const __m256d vr = _mm256_set1_pd(R);
    __m256d vbest = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
    __m256i vidx = _mm256_set1_epi64x(-1);
    __m256i cur = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i step = _mm256_set1_epi64x(4);
    for (; i + 4 <= n; i += 4) {
      const __m256d v = _mm256_sub_pd(
          _mm256_sub_pd(_mm256_loadu_pd(rats + i), vd),
          _mm256_mul_pd(vr, _mm256_loadu_pd(loads + i)));
      const __m256d gt = _mm256_cmp_pd(v, vbest, _CMP_GT_OQ);
      vbest = _mm256_blendv_pd(vbest, v, gt);
      vidx = _mm256_castpd_si256(_mm256_blendv_pd(
          _mm256_castsi256_pd(vidx), _mm256_castsi256_pd(cur), gt));
      cur = _mm256_add_epi64(cur, step);
    }
    alignas(32) double lane_val[4];
    alignas(32) std::int64_t lane_idx[4];
    _mm256_store_pd(lane_val, vbest);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_idx), vidx);
    for (int l = 0; l < 4; ++l) {
      if (lane_idx[l] < 0) continue;  // lane never saw a key > -inf
      const std::size_t k = static_cast<std::size_t>(lane_idx[l]);
      if (lane_val[l] > best || (lane_val[l] == best && k < bk)) {
        best = lane_val[l];
        bk = k;
      }
    }
  }
  for (; i < n; ++i) {
    const double v = rats[i] - d - R * loads[i];
    if (v > best) {
      best = v;
      bk = i;
    }
  }
  return bk;
}

// The one-vs-many reductions process four rows per pass: four independent
// accumulator chains (one per row, each in seed id order -- nothing is
// reassociated) hide the FP-add latency a single chain is bound by, and the
// sigma^2 vector is loaded once per column block instead of once per row.
// Leftover rows fall back to the one-plane kernels, whose chains are
// identical.
__attribute__((target("avx2"))) void avx2_variance_rows(
    const double* const* rows, std::size_t m, const double* s2, std::size_t n,
    double* out) {
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const double* r0 = rows[j];
    const double* r1 = rows[j + 1];
    const double* r2 = rows[j + 2];
    const double* r3 = rows[j + 3];
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    alignas(32) double t0[4], t1[4], t2[4], t3[4];
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d vs2 = _mm256_loadu_pd(s2 + i);
      const __m256d x0 = _mm256_loadu_pd(r0 + i);
      const __m256d x1 = _mm256_loadu_pd(r1 + i);
      const __m256d x2 = _mm256_loadu_pd(r2 + i);
      const __m256d x3 = _mm256_loadu_pd(r3 + i);
      _mm256_store_pd(t0, _mm256_mul_pd(_mm256_mul_pd(x0, x0), vs2));
      _mm256_store_pd(t1, _mm256_mul_pd(_mm256_mul_pd(x1, x1), vs2));
      _mm256_store_pd(t2, _mm256_mul_pd(_mm256_mul_pd(x2, x2), vs2));
      _mm256_store_pd(t3, _mm256_mul_pd(_mm256_mul_pd(x3, x3), vs2));
      for (int k = 0; k < 4; ++k) {
        a0 += t0[k];
        a1 += t1[k];
        a2 += t2[k];
        a3 += t3[k];
      }
    }
    for (; i < n; ++i) {
      a0 += r0[i] * r0[i] * s2[i];
      a1 += r1[i] * r1[i] * s2[i];
      a2 += r2[i] * r2[i] * s2[i];
      a3 += r3[i] * r3[i] * s2[i];
    }
    out[j] = a0;
    out[j + 1] = a1;
    out[j + 2] = a2;
    out[j + 3] = a3;
  }
  for (; j < m; ++j) out[j] = avx2_variance_plane(rows[j], s2, n);
}

__attribute__((target("avx2"))) void avx2_sigma_diff_sq_row_tile(
    const double* x, const double* const* rows, std::size_t m,
    const double* s2, std::size_t n, double* out) {
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const double* r0 = rows[j];
    const double* r1 = rows[j + 1];
    const double* r2 = rows[j + 2];
    const double* r3 = rows[j + 3];
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    alignas(32) double t0[4], t1[4], t2[4], t3[4];
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d vx = _mm256_loadu_pd(x + i);
      const __m256d vs2 = _mm256_loadu_pd(s2 + i);
      const __m256d d0 = _mm256_sub_pd(vx, _mm256_loadu_pd(r0 + i));
      const __m256d d1 = _mm256_sub_pd(vx, _mm256_loadu_pd(r1 + i));
      const __m256d d2 = _mm256_sub_pd(vx, _mm256_loadu_pd(r2 + i));
      const __m256d d3 = _mm256_sub_pd(vx, _mm256_loadu_pd(r3 + i));
      _mm256_store_pd(t0, _mm256_mul_pd(_mm256_mul_pd(d0, d0), vs2));
      _mm256_store_pd(t1, _mm256_mul_pd(_mm256_mul_pd(d1, d1), vs2));
      _mm256_store_pd(t2, _mm256_mul_pd(_mm256_mul_pd(d2, d2), vs2));
      _mm256_store_pd(t3, _mm256_mul_pd(_mm256_mul_pd(d3, d3), vs2));
      for (int k = 0; k < 4; ++k) {
        a0 += t0[k];
        a1 += t1[k];
        a2 += t2[k];
        a3 += t3[k];
      }
    }
    for (; i < n; ++i) {
      const double e0 = x[i] - r0[i];
      const double e1 = x[i] - r1[i];
      const double e2 = x[i] - r2[i];
      const double e3 = x[i] - r3[i];
      a0 += e0 * e0 * s2[i];
      a1 += e1 * e1 * s2[i];
      a2 += e2 * e2 * s2[i];
      a3 += e3 * e3 * s2[i];
    }
    out[j] = a0;
    out[j + 1] = a1;
    out[j + 2] = a2;
    out[j + 3] = a3;
  }
  for (; j < m; ++j) out[j] = avx2_sigma_diff_sq_planes(x, rows[j], s2, n);
}

const kernel_table k_avx2_table = {
    kernel_isa::avx2,         avx2_variance_plane, avx2_sigma_diff_sq_planes,
    avx2_argmax_buffered_row, avx2_variance_rows,  avx2_sigma_diff_sq_row_tile,
    // The prefilter is branch logic over a handful of doubles (tile width =
    // the sweep window); the scalar ladder is already optimal and keeps the
    // verdict order trivially identical.
    s_prefilter_row_tile,
};

#endif  // VABI_X86

kernel_isa best_available() {
#ifdef VABI_X86
  if (__builtin_cpu_supports("avx2")) return kernel_isa::avx2;
#endif
  return kernel_isa::scalar;
}

std::atomic<const kernel_table*> g_active{nullptr};

const kernel_table* resolve([[maybe_unused]] kernel_isa isa) {
#ifdef VABI_X86
  if (isa == kernel_isa::avx2 && __builtin_cpu_supports("avx2")) {
    return &k_avx2_table;
  }
#endif
  return &k_scalar_table;
}

kernel_isa parse_isa(const std::string& name, kernel_isa fallback) {
  if (name == "scalar") return kernel_isa::scalar;
  if (name == "avx2") return kernel_isa::avx2;
  return fallback;
}

const kernel_table* init_from_env() {
  kernel_isa isa = best_available();
  if (const char* env = std::getenv("VABI_FORCE_KERNEL")) {
    isa = parse_isa(env, isa);
  }
  return resolve(isa);
}

}  // namespace

const char* to_string(kernel_isa isa) {
  switch (isa) {
    case kernel_isa::scalar:
      return "scalar";
    case kernel_isa::avx2:
      return "avx2";
  }
  return "?";
}

const kernel_table& active() {
  const kernel_table* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = init_from_env();
    const kernel_table* expected = nullptr;
    // First resolver wins; racing threads resolve to the same table anyway.
    if (!g_active.compare_exchange_strong(expected, t,
                                          std::memory_order_acq_rel)) {
      t = expected;
    }
  }
  return *t;
}

kernel_isa active_isa() { return active().isa; }

kernel_isa set_forced_isa(const char* name) {
  const kernel_table* t =
      (name == nullptr || *name == '\0')
          ? init_from_env()
          : resolve(parse_isa(name, best_available()));
  g_active.store(t, std::memory_order_release);
  return t->isa;
}

const kernel_table& table_for(kernel_isa isa) { return *resolve(isa); }

bool isa_available(kernel_isa isa) { return resolve(isa)->isa == isa; }

// ---------------------------------------------------------------------------
// aligned_doubles
// ---------------------------------------------------------------------------

aligned_doubles::aligned_doubles(const aligned_doubles& other) {
  if (other.size_ != 0) {
    data_ = static_cast<double*>(
        ::operator new(other.size_ * sizeof(double), std::align_val_t{64}));
    std::memcpy(data_, other.data_, other.size_ * sizeof(double));
    size_ = other.size_;
    cap_ = other.size_;
  }
}

aligned_doubles& aligned_doubles::operator=(const aligned_doubles& other) {
  if (this != &other) {
    aligned_doubles copy{other};
    *this = std::move(copy);
  }
  return *this;
}

aligned_doubles::aligned_doubles(aligned_doubles&& other) noexcept
    : data_{other.data_}, size_{other.size_}, cap_{other.cap_} {
  other.data_ = nullptr;
  other.size_ = 0;
  other.cap_ = 0;
}

aligned_doubles& aligned_doubles::operator=(aligned_doubles&& other) noexcept {
  if (this != &other) {
    release();
    data_ = other.data_;
    size_ = other.size_;
    cap_ = other.cap_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.cap_ = 0;
  }
  return *this;
}

void aligned_doubles::push_back(double v) {
  if (size_ == cap_) {
    const std::size_t cap = cap_ == 0 ? 64 : cap_ * 2;
    double* p = static_cast<double*>(
        ::operator new(cap * sizeof(double), std::align_val_t{64}));
    if (size_ != 0) std::memcpy(p, data_, size_ * sizeof(double));
    release();
    data_ = p;
    cap_ = cap;
  }
  data_[size_++] = v;
}

double* aligned_doubles::grow(std::size_t count) {
  const std::size_t need = size_ + count;
  if (need > cap_) {
    std::size_t cap = cap_ == 0 ? 64 : cap_ * 2;
    if (cap < need) cap = need;
    double* p = static_cast<double*>(
        ::operator new(cap * sizeof(double), std::align_val_t{64}));
    if (size_ != 0) std::memcpy(p, data_, size_ * sizeof(double));
    release();
    data_ = p;
    cap_ = cap;
  }
  double* out = data_ + size_;
  size_ = need;
  return out;
}

void aligned_doubles::release() {
  if (data_ != nullptr) {
    ::operator delete(data_, std::align_val_t{64});
    data_ = nullptr;
  }
}

}  // namespace vabi::stats::kernels
