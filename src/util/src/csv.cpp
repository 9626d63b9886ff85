#include "nbtinoc/util/csv.hpp"

#include <stdexcept>

namespace nbtinoc::util {

namespace {
bool needs_quoting(const std::string& cell) {
  return cell.find_first_of(",\"\n") != std::string::npos;
}

std::string quoted(const std::string& cell) {
  if (!needs_quoting(cell)) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}
}  // namespace

CsvWriter::CsvWriter(const std::string& path) : out_(path), path_(path) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
}

void CsvWriter::write_comment(const std::string& text) { out_ << "# " << text << '\n'; }

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out_ << quoted(cells[i]);
    if (i + 1 < cells.size()) out_ << ',';
  }
  out_ << '\n';
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
