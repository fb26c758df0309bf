// ASCII table / figure rendering for the benchmark harness.
//
// Every bench binary reproduces one table or figure of the paper and prints
// it in a stable fixed-width format so EXPERIMENTS.md can quote output
// verbatim. Also provides a crude text histogram for the PDF figures.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace vabi::analysis {

/// Fixed-width text table. Columns size themselves to the widest cell.
class text_table {
 public:
  explicit text_table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `precision` digits after the point.
std::string fmt(double value, int precision = 1);

/// Formats a fraction as a percentage ("97.3%").
std::string fmt_percent(double fraction, int precision = 1);

/// Renders (x, density) pairs as a text histogram, one bar per bin.
void print_histogram(std::ostream& os,
                     const std::vector<std::pair<double, double>>& bins,
                     int width = 60);

}  // namespace vabi::analysis
