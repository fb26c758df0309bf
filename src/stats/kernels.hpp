// Runtime-dispatched SIMD kernels over coefficient planes.
//
// Canonical forms are stored sparsely (linear_form.hpp). Two hot loops work
// on contiguous arrays instead: the tiled 2P dominance sweep
// (core/pruning.cpp) gathers a candidate list into coefficient planes
// indexed by source id (stats/candidate_plane.hpp) and asks one-vs-many
// moment questions of them, and the Li-Shi frontier (core/li_shi.hpp) scans
// rows of per-candidate RATs and loads for the best buffered key. This
// module provides those element loops, dispatched once at startup to AVX2
// when the x86-64 CPU offers it and to portable scalar code otherwise.
//
// Bit-identity contract. Every kernel is bit-identical to its scalar
// reference on every ISA, and the plane reductions are bit-identical to the
// sparse pass over the gathered forms:
//
//   - the reductions (variance, sigma-of-difference) keep the sparse pass's
//     single left-to-right accumulation chain in id order. Absent slots
//     hold exactly 0.0, so their contributions (0.0 * sigma^2, 0.0 - 0.0
//     squared) are exact no-ops interleaved into that chain. The AVX2 forms
//     vectorize only the per-slot products; the batched row forms
//     additionally keep several *independent* chains in flight -- one per
//     row, each in its own id order -- which hides the FP add latency that
//     bounds a single chain. FMA contraction is off globally
//     (-ffp-contract=off) and the kernels use explicit mul/add intrinsics,
//     never fused ones.
//
//   - the argmax and the prefilter evaluate the exact scalar expressions
//     per lane; only the comparison schedule vectorizes.
//
// Dispatch is resolved once (first use) from CPUID and can be forced with
// VABI_FORCE_KERNEL={scalar,avx2}; forcing an ISA the CPU lacks, or naming
// an unknown one, falls back to the best available ISA. Tests exercise
// every reachable ISA through set_forced_isa().
#pragma once

#include <cstddef>
#include <cstdint>

namespace vabi::stats::kernels {

/// Instruction sets a kernel table can be built for.
enum class kernel_isa : std::uint8_t { scalar, avx2 };

const char* to_string(kernel_isa isa);

/// The ISA whose kernels are active (detection happens on first call;
/// VABI_FORCE_KERNEL is honored here).
kernel_isa active_isa();

/// Forces the kernel table for tests ("" / nullptr restores autodetection).
/// Requesting an unavailable ISA clamps to the best available one; returns
/// the ISA actually installed.
kernel_isa set_forced_isa(const char* name);

// ---------------------------------------------------------------------------
// Kernel table. Every plane pointer refers to `n` coefficient doubles
// indexed by source id, with absent slots holding exactly 0.0.
// ---------------------------------------------------------------------------

struct kernel_table {
  kernel_isa isa = kernel_isa::scalar;

  /// sum_i a_i^2 * s2_i, one left-to-right chain (seed variance order).
  double (*variance_plane)(const double* a, const double* s2, std::size_t n);

  /// sum_i (a_i - b_i)^2 * s2_i, one left-to-right chain (the seed
  /// sigma_of_difference union pass with absent slots reading 0.0).
  double (*sigma_diff_sq_planes)(const double* a, const double* b,
                                 const double* s2, std::size_t n);

  /// Leftmost strictly-greater argmax of the buffered-step key
  /// r_k - d - R*l_k over k in [0, n): the smallest k achieving the maximum
  /// (the DP engines' scan rule), or SIZE_MAX when no key compares greater
  /// than -infinity (empty range, all-NaN row). Keys are evaluated with the
  /// exact scalar expression -- per-lane sub/mul, never FMA -- so the
  /// selected index is identical on every ISA; only the comparison schedule
  /// vectorizes, and a (max value, min index) lane reduction restores the
  /// scalar leftmost rule exactly. This is the Li-Shi frontier's inner row
  /// scan (core/li_shi.hpp).
  std::size_t (*argmax_buffered_row)(const double* rats, const double* loads,
                                     double d, double R, std::size_t n);

  // -- One-vs-many reductions over gathered candidate planes ----------------
  //
  // `rows` is an array of `m` row pointers, each a plane of `n` coefficients
  // (see stats/candidate_plane.hpp). Every output out[j] is the exact value
  // the corresponding one-plane reduction above produces for rows[j]: each
  // row keeps its *own* single left-to-right add chain in id order, so no
  // chain is ever reassociated. What the batched forms buy is inter-row
  // instruction-level parallelism -- several independent chains in flight
  // hide the FP-add latency that bounds one -- plus one streaming pass over
  // the shared sigma^2 table per row group.

  /// out[j] = variance_plane(rows[j], s2, n) for j in [0, m).
  void (*variance_rows)(const double* const* rows, std::size_t m,
                        const double* s2, std::size_t n, double* out);

  /// out[j] = sigma_diff_sq_planes(x, rows[j], s2, n) for j in [0, m).
  void (*sigma_diff_sq_row_tile)(const double* x, const double* const* rows,
                                 std::size_t m, const double* s2,
                                 std::size_t n, double* out);

  /// Batched mean +- k*sigma interval prefilter of the 2P dominance sweep
  /// (core/pruning.cpp, prob_less_at_least). For each pair j:
  ///
  ///   verdict[j] = 1 when mu_d[j] >  z_hi * (sigma_x[j] + sigma_y[j])
  ///   verdict[j] = 0 when mu_d[j] <  0.0
  ///                  or mu_d[j] <  z_lo * |sigma_x[j] - sigma_y[j]|
  ///   verdict[j] = 2 otherwise (exact sigma-of-difference pass required)
  ///
  /// evaluated in exactly that branch order with the exact scalar
  /// expressions (z_hi/z_lo are the caller's pre-widened z_p +- kappa
  /// thresholds), so NaN moments fail every comparison and land on 2 -- the
  /// same fall-through to the exact path the scalar prefilter takes.
  void (*prefilter_row_tile)(const double* mu_d, const double* sigma_x,
                             const double* sigma_y, std::size_t m, double z_hi,
                             double z_lo, std::uint8_t* verdict);
};

/// The active kernel table (dispatch happens on first use).
const kernel_table& active();

/// The table for one specific ISA (clamped to availability); used by the
/// differential tests to compare ISAs directly.
const kernel_table& table_for(kernel_isa isa);

/// True when the running CPU can execute `isa` kernels.
bool isa_available(kernel_isa isa);

// ---------------------------------------------------------------------------
// Aligned storage for the per-space sigma^2 table (and anything else that
// wants vector-friendly alignment).
// ---------------------------------------------------------------------------

/// Minimal 64-byte-aligned growable double buffer (alignment covers AVX-512
/// and keeps cache-line-sized streaming loads clean).
class aligned_doubles {
 public:
  aligned_doubles() = default;
  ~aligned_doubles() { release(); }
  aligned_doubles(const aligned_doubles& other);
  aligned_doubles& operator=(const aligned_doubles& other);
  aligned_doubles(aligned_doubles&& other) noexcept;
  aligned_doubles& operator=(aligned_doubles&& other) noexcept;

  /// Appends one value, growing geometrically (contents are preserved).
  void push_back(double v);

  /// Appends `count` *uninitialized* slots (contents before the append are
  /// preserved; growth is geometric) and returns a pointer to the first new
  /// slot. The candidate-plane gather scatters rows into the returned span.
  double* grow(std::size_t count);

  /// Rewinds to empty keeping the capacity (the per-prune-call scratch
  /// reset).
  void clear() { size_ = 0; }

  const double* data() const { return data_; }
  double* data() { return data_; }
  std::size_t size() const { return size_; }

 private:
  void release();

  double* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace vabi::stats::kernels
