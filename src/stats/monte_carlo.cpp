#include "stats/monte_carlo.hpp"

namespace vabi::stats {

monte_carlo_sampler::monte_carlo_sampler(const variation_space& space,
                                         std::uint64_t seed)
    : space_(space), rng_(make_rng(seed)) {}

void monte_carlo_sampler::draw(std::vector<double>& out) {
  const auto& sigmas = space_.sigmas();
  out.resize(sigmas.size());
  for (std::size_t i = 0; i < sigmas.size(); ++i) {
    out[i] = sigmas[i] == 0.0 ? 0.0 : sigmas[i] * unit_normal_(rng_);
  }
}

}  // namespace vabi::stats
