// Example: study one multi-programmed workload (a named benchmark per core,
// SPLASH2/WCET substitutes) and compare the NBTI policies on every router
// port — the Table-IV methodology as a library user would apply it to their
// own workload.
//
//   ./real_traffic_mix [--cores 4] [--vcs 2] [--cycles 150000]
//                      [--mix fft,lu,radix,barnes]

#include <iostream>

#include "nbtinoc/nbtinoc.hpp"
#include "nbtinoc/util/cli.hpp"
#include "nbtinoc/util/strings.hpp"
#include "nbtinoc/util/table.hpp"

using namespace nbtinoc;

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const int cores = args.get_int_as<int>("cores", 4);
  const int vcs = args.get_int_as<int>("vcs", 2);
  const auto cycles = args.get_int_as<sim::Cycle>("cycles", 150'000);

  int width = 1;
  while (width * width < cores) ++width;

  traffic::BenchmarkMix mix;
  if (const auto spec = args.get("mix")) {
    mix.names = util::split(*spec, ',');
    for (auto& name : mix.names) traffic::benchmark_by_name(name);  // validate
  } else {
    mix = traffic::random_mix(cores, 2026);
  }
  if (static_cast<int>(mix.names.size()) != cores) {
    std::cerr << "mix must name exactly " << cores << " benchmarks\n";
    return 1;
  }

  sim::Scenario s = sim::Scenario::synthetic(width, vcs, 0.0);
  s.name = std::to_string(cores) + "core-mix";
  s.warmup_cycles = cycles / 5;
  s.measure_cycles = cycles;

  std::cout << s.describe() << "  workload        : " << mix.describe() << "\n\n";

  const core::Workload workload = core::Workload::benchmark_mix(mix);
  const auto rr = core::run_experiment(s, core::PolicyKind::kRrNoSensor, workload);
  const auto sw = core::run_experiment(s, core::PolicyKind::kSensorWise, workload);

  util::Table table({"router/port", "MD VC", "rr MD duty", "sw MD duty", "Gap", "rr avg duty",
                     "sw avg duty"});
  for (const auto& [key, port] : sw.ports) {
    const auto md = static_cast<std::size_t>(port.most_degraded);
    const auto& rr_port = rr.ports.at(key);
    table.add_row({std::string("r")
                       .append(std::to_string(key.router))
                       .append(1, '-')
                       .append(1, noc::dir_letter(key.port)),
                   std::to_string(port.most_degraded),
                   util::format_percent(rr_port.duty_percent[md]),
                   util::format_percent(port.duty_percent[md]),
                   util::format_percent(rr_port.duty_percent[md] - port.duty_percent[md]),
                   util::format_percent(util::mean_of(rr_port.duty_percent)),
                   util::format_percent(util::mean_of(port.duty_percent))});
  }
  std::cout << table.to_markdown() << '\n'
            << "Positive Gap on a port means sensor-wise protected its most degraded buffer "
               "better than the best sensor-less strategy.\n";
  return 0;
}
