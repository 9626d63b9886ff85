// Quickstart: simulate a 4x4 mesh under uniform traffic with each policy and
// print the NBTI duty cycles of the sampled input port (the paper's
// "east input port of the upper-left-most router").
//
//   ./quickstart [--cores 16] [--vcs 4] [--rate 0.2] [--cycles 300000]
//                [--topology mesh|torus|ring|cmesh] [--concentration 2]

#include <iostream>

#include "nbtinoc/nbtinoc.hpp"
#include "nbtinoc/util/cli.hpp"
#include "nbtinoc/util/table.hpp"

using namespace nbtinoc;

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const int cores = args.get_int_as<int>("cores", 16);
  const int vcs = args.get_int_as<int>("vcs", 4);
  const double rate = args.get_double_or("rate", 0.2);
  const auto cycles = args.get_int_as<sim::Cycle>("cycles", 300'000);

  int width = 1;
  while (width * width < cores) ++width;
  sim::Scenario scenario = sim::Scenario::synthetic(width, vcs, rate);
  scenario.topology = args.get_or("topology", scenario.topology);
  scenario.concentration =
      args.get_int_as<int>("concentration", scenario.topology == "cmesh" ? 2 : 1);
  scenario.warmup_cycles = cycles / 5;
  scenario.measure_cycles = cycles - scenario.warmup_cycles;
  try {
    scenario.validate();
  } catch (const std::exception& e) {
    std::cerr << "bad scenario: " << e.what() << '\n';
    return 1;
  }

  std::cout << scenario.describe() << '\n';

  // The paper samples the east input port of the upper-left-most router.
  const noc::NodeId node = 0;
  const noc::Dir port = noc::Dir::East;

  std::vector<std::string> header{"policy"};
  for (int v = 0; v < vcs; ++v) header.push_back("VC" + std::to_string(v) + " duty");
  header.push_back("MD VC");
  header.push_back("avg latency");
  util::Table table(header);

  for (const auto policy : {core::PolicyKind::kBaseline, core::PolicyKind::kRrNoSensor,
                            core::PolicyKind::kSensorWiseNoTraffic, core::PolicyKind::kSensorWise}) {
    const core::RunResult result =
        core::run_experiment(scenario, policy, core::Workload::synthetic());
    const core::PortResult& p = result.port(node, port);
    std::vector<std::string> row{to_string(policy)};
    for (double duty : p.duty_percent) row.push_back(util::format_percent(duty));
    row.push_back(std::to_string(p.most_degraded));
    row.push_back(util::format_double(result.avg_packet_latency, 1));
    table.add_row(std::move(row));
  }

  std::cout << "\nNBTI-duty-cycle at router " << node << ", " << to_string(port)
            << " input port:\n\n"
            << table.to_markdown() << '\n'
            << "Lower duty = more recovery. sensor-wise should best protect the MD VC.\n";
  return 0;
}
