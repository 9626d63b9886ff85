#pragma once
// Markdown-style table rendering for the experiment benches. Every bench
// prints rows that mirror the paper's tables; this keeps the formatting in
// one place and aligned.

#include <cstddef>
#include <string>
#include <vector>

namespace nbtinoc::util {

/// A simple column-aligned table. Build with headers, push rows of strings
/// (helpers format doubles/percentages), then print as GitHub markdown or
/// plain aligned text.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  std::size_t columns() const { return headers_.size(); }
  std::size_t rows() const { return rows_.size(); }

  /// Adds one row. Throws std::invalid_argument on column-count mismatch.
  void add_row(std::vector<std::string> row);

  /// Renders as a GitHub-markdown table with padded columns.
  std::string to_markdown() const;
  /// Renders as plain aligned text (two-space gutters, underlined header).
  std::string to_text() const;
  /// Renders as CSV (no padding, comma-escaped).
  std::string to_csv() const;

  const std::vector<std::string>& header() const { return headers_; }

 private:
  std::vector<std::size_t> column_widths() const;

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given number of decimals ("12.34").
std::string format_double(double value, int decimals = 2);
/// Formats a ratio in [0,1]-free percent units with one decimal and a '%'
/// suffix ("26.6%"). The input is already in percent (paper convention).
std::string format_percent(double percent, int decimals = 1);

}  // namespace nbtinoc::util
