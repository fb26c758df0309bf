#include "stats/variation_space.hpp"

#include <algorithm>
#include <stdexcept>

namespace vabi::stats {

const char* to_string(source_kind kind) {
  switch (kind) {
    case source_kind::random_device:
      return "random_device";
    case source_kind::spatial:
      return "spatial";
    case source_kind::inter_die:
      return "inter_die";
    case source_kind::parametric:
      return "parametric";
  }
  return "unknown";
}

source_id variation_space::add_source(source_kind kind, double sigma,
                                      std::string name) {
  if (!(sigma >= 0.0)) {  // also rejects NaN, for which sigma < 0 is false
    throw std::invalid_argument("variation_space: sigma must be >= 0");
  }
  const auto id = static_cast<source_id>(sigmas_.size());
  const double s2 = sigma * sigma;
  sigmas_.push_back(sigma);
  sigma2_.push_back(s2);
  if (!(s2 >= 0x1p-64 && s2 <= 0x1p64)) moderate_ = false;
  kinds_.push_back(kind);
  names_.push_back(std::move(name));
  return id;
}

std::size_t variation_space::count(source_kind kind) const {
  return static_cast<std::size_t>(
      std::count(kinds_.begin(), kinds_.end(), kind));
}

}  // namespace vabi::stats
