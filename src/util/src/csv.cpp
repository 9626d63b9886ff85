#include "nbtinoc/util/csv.hpp"

#include <stdexcept>

namespace nbtinoc::util {

namespace {
std::string quoted(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}
}  // namespace

std::string format_csv_row(const std::vector<std::string>& cells) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ',';
    out += quoted(cells[i]);
  }
  return out;
}

CsvWriter::CsvWriter(const std::string& path) : out_(path), path_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

void CsvWriter::write_comment(const std::string& text) { out_ << "# " << text << '\n'; }

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  out_ << format_csv_row(cells) << '\n';
}

std::vector<std::string> parse_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      cells.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  cells.push_back(std::move(current));
  return cells;
}

std::vector<std::vector<std::string>> read_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_csv: cannot open " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    rows.push_back(parse_csv_line(line));
  }
  return rows;
}

}  // namespace nbtinoc::util
