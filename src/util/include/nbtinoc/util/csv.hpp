#pragma once
// CSV writer/reader used to persist experiment results and traffic traces.
// The dialect is RFC-4180-ish: comma separator, double-quote escaping,
// '\n' record terminator; a leading '#' line is treated as a comment when
// reading.

#include <fstream>
#include <string>
#include <vector>

namespace nbtinoc::util {

/// Streams rows to a file. Throws std::runtime_error if the file cannot be
/// opened; flushes on destruction.
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path);

  void write_comment(const std::string& text);
  void write_row(const std::vector<std::string>& cells);

 private:
  std::ofstream out_;
  std::string path_;
};

/// One record: each cell quoted when it holds ',', '"' or '\n' (quotes
/// doubled), joined by commas, without the terminator.
std::string format_csv_row(const std::vector<std::string>& cells);

/// Parses one CSV line honoring quotes. Exposed for testing.
std::vector<std::string> parse_csv_line(const std::string& line);

/// Reads a whole CSV file, skipping '#' comment lines and empty lines.
/// Throws std::runtime_error if the file cannot be opened.
std::vector<std::vector<std::string>> read_csv(const std::string& path);

}  // namespace nbtinoc::util
