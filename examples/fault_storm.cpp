// Fault storm: replay one scenario under sensor-wise while the gating
// control path degrades around it — sensors get stuck/drift/die, Up_Down
// commands drop or corrupt, Down_Up reports go missing, wakes fail — and
// watch the graceful-degradation machinery work: the invariant checker
// proves no flit is ever lost, and the health watchdogs quarantine ports
// with failing sensors (falling back to rr-no-sensor there) and recover
// them when the transient faults repair.
//
//   ./fault_storm [--rate 0.02] [--inj 0.2] [--cycles 200000] [--seed-salt 0]

#include <iostream>

#include "nbtinoc/nbtinoc.hpp"
#include "nbtinoc/util/cli.hpp"
#include "nbtinoc/util/table.hpp"

using namespace nbtinoc;

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const double fault_rate = args.get_double_or("rate", 0.02);
  const double inj = args.get_double_or("inj", 0.2);
  const auto cycles = args.get_int_as<sim::Cycle>("cycles", 200'000);
  const auto salt = args.get_int_as<std::uint64_t>("seed-salt", 0);

  sim::Scenario scenario = sim::Scenario::synthetic(4, 4, inj);
  scenario.warmup_cycles = cycles / 5;
  scenario.measure_cycles = cycles - scenario.warmup_cycles;

  core::RunnerOptions ropt;
  ropt.faults = sim::FaultPlan::uniform(fault_rate, salt);
  ropt.check_invariants = true;

  std::cout << scenario.describe() << '\n'
            << "Fault plan: " << ropt.faults.describe() << "\n\n";

  util::Table table({"policy", "MD duty", "avg latency", "cmd drops", "cmd flips", "wake fails",
                     "down_up drops", "faulty epochs", "quarantines", "recoveries", "violations"});

  for (const auto policy : {core::PolicyKind::kRrNoSensor, core::PolicyKind::kSensorWise,
                            core::PolicyKind::kSensorRank}) {
    const core::RunResult r =
        core::run_experiment(scenario, policy, core::Workload::synthetic(), ropt);
    const core::PortResult& p = r.port(0, noc::Dir::East);
    const auto count = [&](const char* key) {
      const auto it = r.fault_counters.find(key);
      return std::to_string(it == r.fault_counters.end() ? 0 : it->second);
    };
    table.add_row({to_string(policy),
                   util::format_percent(p.duty_percent[static_cast<std::size_t>(p.most_degraded)]),
                   util::format_double(r.avg_packet_latency, 1), count("fault.gate_cmd_drops"),
                   count("fault.gate_cmd_flips"), count("fault.wake_failures"),
                   count("fault.down_up_drops"),
                   count("fault.sensor_stuck") + "/" + count("fault.sensor_drifting") + "/" +
                       count("fault.sensor_dead"),
                   count("fault.quarantines"), count("fault.recoveries"),
                   std::to_string(r.invariant_violations.size())});
    for (const auto& v : r.invariant_violations)
      std::cerr << "violation (" << to_string(policy) << "): " << v << '\n';
  }

  std::cout << table.to_markdown() << '\n'
            << "faulty epochs column: stuck/drifting/dead transition counts.\n"
            << "Zero violations = the storm never cost a flit; quarantines show the sensor\n"
            << "policies detecting bad ports and degrading to rr-no-sensor there.\n";
  return 0;
}
