#include "timing/wire_sizing.hpp"

#include <stdexcept>

namespace vabi::timing {

wire_menu::wire_menu(const wire_model& base)
    : variants_{base}, multipliers_{1.0} {
  base.validate();
}

wire_menu::wire_menu(const wire_model& base,
                     const std::vector<double>& multipliers,
                     double fringe_cap_per_um)
    : multipliers_(multipliers) {
  base.validate();
  if (multipliers.empty()) {
    throw std::invalid_argument("wire_menu: empty multiplier list");
  }
  if (fringe_cap_per_um < 0.0) {
    throw std::invalid_argument("wire_menu: negative fringe capacitance");
  }
  variants_.reserve(multipliers.size());
  for (const double m : multipliers) {
    if (m <= 0.0) {
      throw std::invalid_argument("wire_menu: width multiplier must be > 0");
    }
    variants_.push_back(wire_model{base.res_per_um / m,
                                   base.cap_per_um * m + fringe_cap_per_um});
  }
}

wire_menu make_wire_menu(const wire_model& base,
                         const std::vector<double>& multipliers) {
  return multipliers.size() <= 1 ? wire_menu{base}
                                 : wire_menu{base, multipliers};
}

std::size_t wire_assignment::count_nondefault() const {
  std::size_t n = 0;
  for (const width_index w : width_at_) {
    if (w != 0) ++n;
  }
  return n;
}

}  // namespace vabi::timing
