#include "analysis/reporting.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace vabi::analysis {

text_table::text_table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void text_table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("text_table: row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

void text_table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << std::left << std::setw(static_cast<int>(widths[c]))
         << cells[c] << " |";
    }
    os << '\n';
  };
  auto print_rule = [&]() {
    os << "+";
    for (std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  print_rule();
  print_row(headers_);
  print_rule();
  for (const auto& row : rows_) print_row(row);
  print_rule();
}

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string fmt_percent(double fraction, int precision) {
  return fmt(fraction * 100.0, precision) + "%";
}

void print_histogram(std::ostream& os,
                     const std::vector<std::pair<double, double>>& bins,
                     int width) {
  double peak = 0.0;
  for (const auto& [x, d] : bins) peak = std::max(peak, d);
  if (peak <= 0.0) peak = 1.0;
  for (const auto& [x, d] : bins) {
    const int bar = static_cast<int>(d / peak * width + 0.5);
    os << std::setw(12) << fmt(x, 2) << " | " << std::string(bar, '#') << '\n';
  }
}

}  // namespace vabi::analysis
