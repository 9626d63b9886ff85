// Example: spatial view of NBTI stress. Prints an ASCII heatmap of the
// average NBTI duty cycle per router (mean over its input-port VCs) under
// one or more policies and a traffic pattern — hotspot patterns light up
// the paths toward the hot node. Multiple policies (comma-separated, or
// "all") run as one parallel SweepRunner grid and print side by side.
//
//   ./duty_heatmap [--policy sensor-wise] [--pattern hotspot] [--cores 16]
//                  [--rate 0.2] [--cycles 120000] [--workers 0]
//   ./duty_heatmap --policy all             # every policy, one sweep
//   ./duty_heatmap --policy rr-no-sensor,sensor-wise

#include <iostream>

#include "nbtinoc/nbtinoc.hpp"
#include "nbtinoc/util/cli.hpp"
#include "nbtinoc/util/strings.hpp"
#include "nbtinoc/util/table.hpp"

using namespace nbtinoc;

namespace {

char shade(double duty_percent) {
  // 10 shades from '.' (cool) to '#' (always stressed).
  static const char kRamp[] = ".:-=+*%@$#";
  int idx = static_cast<int>(duty_percent / 10.0);
  if (idx < 0) idx = 0;
  if (idx > 9) idx = 9;
  return kRamp[idx];
}

std::vector<core::PolicyKind> parse_policies(const std::string& spec) {
  if (spec == "all")
    return {core::PolicyKind::kBaseline, core::PolicyKind::kRrNoSensor,
            core::PolicyKind::kSensorWiseNoTraffic, core::PolicyKind::kSensorWise,
            core::PolicyKind::kSensorRank};
  std::vector<core::PolicyKind> policies;
  for (const auto& name : util::split(spec, ','))
    policies.push_back(core::parse_policy(std::string(util::trim(name))));
  return policies;
}

// Average duty per router over every VC of every existing input port.
std::vector<double> router_duty_of(const core::RunResult& r, const sim::Scenario& s) {
  std::vector<double> duty(static_cast<std::size_t>(s.cores()), 0.0);
  std::vector<int> counts(static_cast<std::size_t>(s.cores()), 0);
  for (const auto& [key, port] : r.ports) {
    for (double d : port.duty_percent) {
      duty[static_cast<std::size_t>(key.router)] += d;
      ++counts[static_cast<std::size_t>(key.router)];
    }
  }
  for (std::size_t i = 0; i < duty.size(); ++i)
    if (counts[i] > 0) duty[i] /= counts[i];
  return duty;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto policies = parse_policies(args.get_or("policy", "sensor-wise"));
  const auto pattern = traffic::parse_pattern(args.get_or("pattern", "hotspot"));
  const int cores = args.get_int_as<int>("cores", 16);
  const double rate = args.get_double_or("rate", 0.2);
  const auto cycles = args.get_int_as<sim::Cycle>("cycles", 120'000);

  int width = 1;
  while (width * width < cores) ++width;
  sim::Scenario s = sim::Scenario::synthetic(width, 4, rate);
  s.warmup_cycles = cycles / 5;
  s.measure_cycles = cycles;

  std::cout << s.describe() << "  pattern         : " << to_string(pattern) << "\n\n";

  core::SweepOptions sweep_options;
  sweep_options.workers = args.get_int_as<unsigned>("workers", 0);
  core::SweepRunner sweep(sweep_options);
  sweep.add_grid({s}, policies, pattern);
  const core::SweepResult results = sweep.run();

  std::cout << "Average NBTI duty cycle per router ('.'=0-10% ... '#'=90-100%):\n";
  for (const auto& point : results) {
    const std::vector<double> router_duty = router_duty_of(point.result, s);
    std::cout << "\npolicy: " << to_string(point.result.policy) << " ("
              << util::format_double(point.wall_seconds, 1) << "s)\n\n";
    for (int y = 0; y < s.mesh_height; ++y) {
      std::cout << "   ";
      for (int x = 0; x < s.mesh_width; ++x)
        std::cout << shade(router_duty[static_cast<std::size_t>(y * s.mesh_width + x)]) << ' ';
      std::cout << "    ";
      for (int x = 0; x < s.mesh_width; ++x) {
        std::cout << util::format_percent(
                         router_duty[static_cast<std::size_t>(y * s.mesh_width + x)])
                  << '\t';
      }
      std::cout << '\n';
    }
  }
  std::cout << "\n(hotspot node is router " << (s.cores() - 1)
            << "; under hotspot traffic its feeding paths run the hottest)\n";
  return 0;
}
