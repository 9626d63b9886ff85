#include "nbtinoc/traffic/trace.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "nbtinoc/util/csv.hpp"

namespace nbtinoc::traffic {

void Trace::save(const std::string& path) const {
  const bool any_vnet =
      std::any_of(records_.begin(), records_.end(), [](const TraceRecord& r) { return r.vnet != 0; });
  util::CsvWriter out(path);
  out.write_comment(any_vnet ? "nbtinoc packet trace: cycle,src,dst,length,vnet"
                             : "nbtinoc packet trace: cycle,src,dst,length");
  for (const auto& rec : records_) {
    std::vector<std::string> row{std::to_string(rec.cycle), std::to_string(rec.src),
                                 std::to_string(rec.dst), std::to_string(rec.length)};
    if (any_vnet) row.push_back(std::to_string(rec.vnet));
    out.write_row(row);
  }
}

namespace {
/// Strict non-negative integer parse for one CSV cell; `where` is the
/// "path:line" prefix and `what` the column name, so every rejection names
/// the exact cell ("trace.csv:7: dst is not a non-negative integer: '-3'").
std::uint64_t parse_trace_field(const std::string& cell, const char* what,
                                const std::string& where) {
  if (cell.empty())
    throw std::runtime_error("Trace::load: " + where + ": empty " + what + " column");
  std::uint64_t value = 0;
  for (char c : cell) {
    if (c < '0' || c > '9')
      throw std::runtime_error("Trace::load: " + where + ": " + what +
                               " is not a non-negative integer: '" + cell + "'");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      throw std::runtime_error("Trace::load: " + where + ": " + what + " overflows: '" + cell +
                               "'");
    value = value * 10 + digit;
  }
  return value;
}
}  // namespace

Trace Trace::load(const std::string& path, int num_nodes) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Trace::load: cannot open " + path);
  Trace trace;
  std::string text;
  int line = 0;
  while (std::getline(in, text)) {
    ++line;
    if (!text.empty() && text.back() == '\r') text.pop_back();
    if (text.empty() || text[0] == '#') continue;
    const std::string where = path + ":" + std::to_string(line);
    const auto fail = [&](const std::string& msg) {
      return std::runtime_error("Trace::load: " + where + ": " + msg);
    };
    const auto row = util::parse_csv_line(text);
    if (row.size() != 4 && row.size() != 5)
      throw fail("expected 4 or 5 columns (cycle,src,dst,length[,vnet]), got " +
                 std::to_string(row.size()));
    TraceRecord rec;
    rec.cycle = static_cast<sim::Cycle>(parse_trace_field(row[0], "cycle", where));
    const std::uint64_t src = parse_trace_field(row[1], "src", where);
    const std::uint64_t dst = parse_trace_field(row[2], "dst", where);
    const std::uint64_t length = parse_trace_field(row[3], "length", where);
    const std::uint64_t vnet =
        row.size() == 5 ? parse_trace_field(row[4], "vnet", where) : 0;
    const std::uint64_t node_limit =
        num_nodes > 0 ? static_cast<std::uint64_t>(num_nodes)
                      : static_cast<std::uint64_t>(std::numeric_limits<noc::NodeId>::max());
    const std::string limit_what =
        num_nodes > 0 ? " out of range for a " + std::to_string(num_nodes) + "-node network"
                      : " does not fit a node id";
    if (src >= node_limit) throw fail("src " + row[1] + limit_what);
    if (dst >= node_limit) throw fail("dst " + row[2] + limit_what);
    if (length < 1) throw fail("length must be >= 1, got " + row[3]);
    if (length > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
      throw fail("length overflows: '" + row[3] + "'");
    if (vnet > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
      throw fail("vnet overflows: '" + row[4] + "'");
    rec.src = static_cast<noc::NodeId>(src);
    rec.dst = static_cast<noc::NodeId>(dst);
    rec.length = static_cast<int>(length);
    rec.vnet = static_cast<int>(vnet);
    trace.add(rec);
  }
  return trace;
}

Trace Trace::capture(std::vector<noc::ITrafficSource*> sources, sim::Cycle cycles) {
  Trace trace;
  noc::PacketRequest burst[noc::kMaxGenerateBurst];
  for (sim::Cycle t = 0; t < cycles; ++t) {
    for (std::size_t node = 0; node < sources.size(); ++node) {
      if (sources[node] == nullptr) continue;
      const std::size_t n = sources[node]->generate_burst(t, burst, noc::kMaxGenerateBurst);
      for (std::size_t i = 0; i < n; ++i)
        trace.record(t, static_cast<noc::NodeId>(node), burst[i]);
    }
  }
  return trace;
}

TraceReplaySource::TraceReplaySource(std::shared_ptr<const TraceFile> file, noc::NodeId node)
    : file_(std::move(file)) {
  if (file_ == nullptr) throw std::invalid_argument("TraceReplaySource: null TraceFile");
  if (node < 0 || node >= file_->node_count())
    throw std::invalid_argument("TraceReplaySource: node " + std::to_string(node) +
                                " out of range for a " + std::to_string(file_->node_count()) +
                                "-node trace");
  slice_ = file_->slice(node);
}

std::optional<noc::PacketRequest> TraceReplaySource::maybe_generate(sim::Cycle now) {
  // Single-packet legacy path: one record per call; later same-cycle
  // records slip to subsequent calls, preserving order.
  if (next_ >= slice_.size() || slice_.cycle(next_) > now) return std::nullopt;
  return request_at(next_++);
}

std::size_t TraceReplaySource::generate_burst(sim::Cycle now, noc::PacketRequest* out,
                                              std::size_t max) {
  // A whole same-cycle run (including records slipped from earlier cycles
  // when a previous burst hit `max`) in one call, zero allocations.
  std::size_t n = 0;
  while (n < max && next_ < slice_.size() && slice_.cycle(next_) <= now)
    out[n++] = request_at(next_++);
  return n;
}

sim::Cycle TraceReplaySource::next_event_cycle(sim::Cycle now) {
  if (next_ >= slice_.size()) return sim::kCycleNever;
  return std::max(now, slice_.cycle(next_));
}

}  // namespace nbtinoc::traffic
