// Example: writing your own NBTI recovery policy.
//
// The simulator exposes the mechanism/policy boundary the paper implies:
// every cycle the upstream pre-VA stage asks an IGateController what to do
// with each downstream input port (per virtual network), and the returned
// (enable, VC-ID) command is applied through the Up_Down link. This example
// implements a "duty-budget" policy from scratch — keep a VC awake only
// while its measured NBTI duty cycle is below a budget, else force it into
// recovery and rotate — and races it against the paper's policies.
//
//   ./custom_policy [--budget 20] [--cycles 120000]

#include <iostream>

#include "nbtinoc/nbtinoc.hpp"
#include "nbtinoc/util/cli.hpp"
#include "nbtinoc/util/table.hpp"

using namespace nbtinoc;

namespace {

/// Keeps every VC under a duty-cycle budget: among the idle VCs, prefer the
/// one with the lowest measured duty so far; additionally, refuse to keep a
/// VC awake once it exceeds the budget (unless it is the only candidate).
class DutyBudgetController final : public noc::IGateController {
 public:
  DutyBudgetController(noc::Network& network, double budget_percent)
      : network_(&network), budget_(budget_percent) {}

  noc::GateCommand decide(const noc::PortKey& key, const noc::OutVcStateView& view,
                          bool new_traffic, sim::Cycle now) override {
    noc::GateCommand cmd;
    cmd.gating_active = true;
    if (!new_traffic) return cmd;  // recover everything idle

    // Stress accounting is event-driven: flush this port's pending lazy
    // intervals before reading duty cycles mid-run.
    auto& iu = network_->router(key.router).input(key.port);
    iu.sync_stress(now);
    const auto& trackers = iu.trackers();
    int keep = noc::kInvalidVc;
    double best_duty = 1e18;
    int fallback = noc::kInvalidVc;
    for (int local = 0; local < view.num_vcs(); ++local) {
      if (view.is_active(local)) continue;
      const double duty =
          trackers.at(static_cast<std::size_t>(view.global_vc(local))).duty_cycle_percent();
      fallback = local;
      if (duty <= budget_ && duty < best_duty) {
        best_duty = duty;
        keep = local;
      }
    }
    if (keep == noc::kInvalidVc) keep = fallback;  // all over budget: least bad
    cmd.enable = keep != noc::kInvalidVc;
    cmd.keep_vc = keep;
    return cmd;
  }

  const char* name() const override { return "duty-budget"; }

 private:
  noc::Network* network_;
  double budget_;
};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const double budget = args.get_double_or("budget", 20.0);
  const auto cycles = args.get_int_as<sim::Cycle>("cycles", 120'000);

  sim::Scenario s = sim::Scenario::synthetic(4, 4, 0.2);
  s.warmup_cycles = cycles / 5;
  s.measure_cycles = cycles;
  std::cout << s.describe() << "  custom policy   : duty-budget (" << budget << "% cap)\n\n";

  util::Table table({"policy", "VC0", "VC1", "VC2", "VC3", "max duty", "MD duty", "avg latency"});

  // Paper policies through the standard runner...
  for (auto policy : {core::PolicyKind::kRrNoSensor, core::PolicyKind::kSensorWise}) {
    const auto r = core::run_experiment(s, policy, core::Workload::synthetic());
    const auto& port = r.port(0, noc::Dir::East);
    std::vector<std::string> row{to_string(policy)};
    double max_duty = 0.0;
    for (double d : port.duty_percent) {
      row.push_back(util::format_percent(d));
      max_duty = std::max(max_duty, d);
    }
    row.push_back(util::format_percent(max_duty));
    row.push_back(util::format_percent(port.duty_percent[static_cast<std::size_t>(port.most_degraded)]));
    row.push_back(util::format_double(r.avg_packet_latency, 1));
    table.add_row(std::move(row));
  }

  // ... and the custom one wired manually (the lower-level API).
  {
    noc::Network net(core::noc_config_of(s));
    DutyBudgetController controller(net, budget);
    net.set_gate_controller(&controller);
    traffic::install_uniform_traffic(net, s.injection_rate * s.phits_per_flit(), s.traffic_seed());
    net.run_with_warmup(s.warmup_cycles, s.measure_cycles);

    const auto duties = net.duty_cycles_percent(0, noc::Dir::East);
    std::vector<std::string> row{"duty-budget"};
    double max_duty = 0.0;
    for (double d : duties) {
      row.push_back(util::format_percent(d));
      max_duty = std::max(max_duty, d);
    }
    row.push_back(util::format_percent(max_duty));
    row.push_back("n/a (no sensors)");
    const auto* lat = net.stats().distribution("noc.packet_latency");
    row.push_back(util::format_double(lat ? lat->mean() : 0.0, 1));
    table.add_row(std::move(row));
  }

  std::cout << table.to_markdown() << '\n'
            << "The duty-budget policy balances duty like rr-no-sensor but adapts to actual\n"
               "wear; unlike sensor-wise it cannot protect the PV-worst buffer specifically.\n";
  return 0;
}
