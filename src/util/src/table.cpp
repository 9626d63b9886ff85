#include "nbtinoc/util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "nbtinoc/util/csv.hpp"

namespace nbtinoc::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: need at least one column");
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != headers_.size()) {
    throw std::invalid_argument("Table: row has " + std::to_string(row.size()) + " cells, expected " +
                                std::to_string(headers_.size()));
  }
  rows_.push_back(std::move(row));
}

std::vector<std::size_t> Table::column_widths() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  return widths;
}

namespace {
void append_padded(std::string& out, const std::string& cell, std::size_t width) {
  out += cell;
  out.append(width - cell.size(), ' ');
}
}  // namespace

std::string Table::to_markdown() const {
  const auto widths = column_widths();
  std::string out;
  out += "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out += ' ';
    append_padded(out, headers_[c], widths[c]);
    out += " |";
  }
  out += "\n|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out.append(widths[c] + 2, '-');
    out += '|';
  }
  out += '\n';
  for (const auto& row : rows_) {
    out += '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += ' ';
      append_padded(out, row[c], widths[c]);
      out += " |";
    }
    out += '\n';
  }
  return out;
}

std::string Table::to_text() const {
  const auto widths = column_widths();
  std::string out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    append_padded(out, headers_[c], widths[c]);
    if (c + 1 < headers_.size()) out += "  ";
  }
  out += '\n';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out.append(widths[c], '-');
    if (c + 1 < headers_.size()) out += "  ";
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      append_padded(out, row[c], widths[c]);
      if (c + 1 < row.size()) out += "  ";
    }
    out += '\n';
  }
  return out;
}

std::string Table::to_csv() const {
  std::string out = format_csv_row(headers_) + '\n';
  for (const auto& row : rows_) out += format_csv_row(row) + '\n';
  return out;
}

std::string format_double(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string format_percent(double percent, int decimals) {
  return format_double(percent, decimals) + "%";
}

}  // namespace nbtinoc::util
