// Registry of independent variation sources.
//
// The paper's first-order process-variation model (Section 3) expresses every
// device characteristic as a linear combination of *independent* zero-mean
// normal random variables:
//
//   - per-device random variation X_i       (eqs. 19-20)
//   - intra-die spatial grid variables Y_i  (eqs. 21-22)
//   - one global inter-die variable G       (eqs. 23-24)
//
// A variation_space owns the identity and the standard deviation of each
// source. Linear forms (see linear_form.hpp) refer to sources by id; all
// second-order statistics (variance, covariance, correlation) are computed
// against the space that issued those ids.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/kernels.hpp"

namespace vabi::stats {

/// Identifier of a variation source within a variation_space.
using source_id = std::uint32_t;

/// The three variation classes of the paper's model, plus a generic class for
/// sources that do not fit the taxonomy (e.g. raw parametric variables used
/// by the device-characterization flow).
enum class source_kind : std::uint8_t {
  random_device,  ///< independent per-device variation (X_i)
  spatial,        ///< intra-die spatially correlated grid variable (Y_i)
  inter_die,      ///< global die-to-die variable (G)
  parametric,     ///< raw process parameter (L_eff, T_ox, ...)
};

const char* to_string(source_kind kind);

/// Owns the set of independent normal variation sources of one analysis.
///
/// Sources are append-only: ids are dense indices and never invalidated.
class variation_space {
 public:
  /// Registers a new independent source ~ N(0, sigma^2). `sigma` must be
  /// >= 0: a negative or NaN sigma throws std::invalid_argument.
  source_id add_source(source_kind kind, double sigma, std::string name = {});

  std::size_t size() const { return sigmas_.size(); }
  bool empty() const { return sigmas_.empty(); }

  double sigma(source_id id) const { return sigmas_[id]; }
  double variance(source_id id) const { return sigmas_[id] * sigmas_[id]; }
  source_kind kind(source_id id) const { return kinds_[id]; }
  const std::string& name(source_id id) const { return names_[id]; }

  /// All sigmas, indexed by source id (used by the Monte-Carlo sampler).
  const std::vector<double>& sigmas() const { return sigmas_; }

  /// 64-byte-aligned sigma^2 table indexed by source id -- the plane
  /// reduction kernels stream it sequentially. Each entry is the exact
  /// product sigma(id) * sigma(id), i.e. bit-identical to `variance(id)`.
  const double* sigma2_data() const { return sigma2_.data(); }
  double sigma2(source_id id) const { return sigma2_.data()[id]; }

  /// Number of registered sources of a given kind.
  std::size_t count(source_kind kind) const;

  /// True while every registered sigma^2 lies in [2^-64, 2^64]: the range
  /// over which the DP's bounded buffered-candidate selection proves its
  /// rounding slack (DESIGN.md, "Bounded buffered-candidate selection").
  /// Every source the process model registers has sigma = 1.
  bool moderate_variances() const { return moderate_; }

 private:
  std::vector<double> sigmas_;
  kernels::aligned_doubles sigma2_;
  std::vector<source_kind> kinds_;
  std::vector<std::string> names_;
  bool moderate_ = true;
};

}  // namespace vabi::stats
