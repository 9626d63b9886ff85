// Example: sweep injection rates and traffic patterns under a chosen policy
// and print a CSV of NBTI duty cycles and network performance — the kind of
// design-space exploration the library is meant for.
//
//   ./synthetic_sweep [--policy sensor-wise] [--cores 16] [--vcs 4]
//                     [--cycles 150000] [--patterns uniform,transpose,hotspot]

#include <iostream>

#include "nbtinoc/nbtinoc.hpp"
#include "nbtinoc/util/cli.hpp"
#include "nbtinoc/util/strings.hpp"

using namespace nbtinoc;

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto policy = core::parse_policy(args.get_or("policy", "sensor-wise"));
  const int cores = args.get_int_as<int>("cores", 16);
  const int vcs = args.get_int_as<int>("vcs", 4);
  const auto cycles = args.get_int_as<sim::Cycle>("cycles", 150'000);
  const auto pattern_list = util::split(args.get_or("patterns", "uniform,transpose,hotspot"), ',');

  int width = 1;
  while (width * width < cores) ++width;

  std::cout << "pattern,injection_rate,md_vc,md_duty_pct,avg_duty_pct,avg_latency,"
               "throughput_phit_per_cycle_node\n";
  for (const auto& pattern_name : pattern_list) {
    const auto pattern = traffic::parse_pattern(pattern_name);
    for (double rate : {0.05, 0.1, 0.15, 0.2, 0.25, 0.3}) {
      sim::Scenario s = sim::Scenario::synthetic(width, vcs, rate);
      s.warmup_cycles = cycles / 5;
      s.measure_cycles = cycles;
      const auto r = core::run_experiment(s, policy, core::Workload::synthetic(pattern));
      const auto& port = r.port(0, noc::Dir::East);
      const auto md = static_cast<std::size_t>(port.most_degraded);
      std::cout << pattern_name << ',' << rate << ',' << md << ','
                << port.duty_percent[md] << ',' << util::mean_of(port.duty_percent) << ','
                << r.avg_packet_latency << ',' << r.throughput_flits_per_cycle_per_node << '\n';
    }
  }
  return 0;
}
