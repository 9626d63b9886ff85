// Example: watch the policies work, cycle by cycle. Prints an ASCII
// timeline of one input port's VC states (I = idle/powered, A = active,
// R = recovery/gated) under each policy — rr-no-sensor's rotating awake VC
// and sensor-wise's parked most-degraded VC are immediately visible.
//
//   ./policy_timeline [--cycles 2000] [--window 120] [--rate 0.2]
//                     [--csv /tmp/timeline.csv]

#include <iostream>
#include <memory>

#include "nbtinoc/nbtinoc.hpp"
#include "nbtinoc/noc/state_probe.hpp"
#include "nbtinoc/util/cli.hpp"
#include "nbtinoc/util/table.hpp"

using namespace nbtinoc;

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const auto cycles = args.get_int_as<sim::Cycle>("cycles", 2'000);
  const auto window = args.get_int_as<std::size_t>("window", 120);
  const double rate = args.get_double_or("rate", 0.2);

  sim::Scenario s = sim::Scenario::synthetic(2, 4, rate);
  const noc::PortKey key{0, noc::Dir::East};

  for (auto policy : {core::PolicyKind::kRrNoSensor, core::PolicyKind::kSensorWise}) {
    const noc::NocConfig cfg = core::noc_config_of(s);
    noc::Network net(cfg);

    const auto model = core::calibrated_model_of(s);
    core::PolicyConfig pc;
    pc.kind = policy;
    core::PolicyGateController ctrl(net, pc, model, core::operating_point_of(s),
                                    core::pv_config_of(s), s.pv_seed());
    ctrl.attach();
    traffic::install_uniform_traffic(net, s.injection_rate * s.phits_per_flit(), s.traffic_seed());

    noc::PortStateProbe probe(net, key);
    for (sim::Cycle t = 0; t < cycles; ++t) {
      net.step();
      probe.sample();
    }

    std::cout << "=== " << to_string(policy) << "  (router 0, East input; MD = VC"
              << ctrl.most_degraded(key) << ")\n"
              << probe.ascii_timeline(window);
    for (int v = 0; v < cfg.total_vcs(); ++v) {
      const auto sh = probe.shares(v);
      std::cout << "VC" << v << " shares: idle " << util::format_percent(sh.idle * 100.0)
                << ", active " << util::format_percent(sh.active * 100.0) << ", recovery "
                << util::format_percent(sh.recovery * 100.0) << '\n';
    }
    std::cout << '\n';

    if (const auto csv = args.get("csv")) {
      const std::string path = *csv + "." + to_string(policy);
      probe.save_csv(path);
      std::cout << "(full timeline written to " << path << ")\n\n";
    }
  }
  std::cout << "Legend: I = powered idle (NBTI stress), A = holding a packet (stress),\n"
               "        R = power-gated (recovery).\n";
  return 0;
}
