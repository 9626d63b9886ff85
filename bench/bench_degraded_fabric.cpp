// Robustness study: duty cycle and latency on progressively failing
// fabrics. Each degradation level kills a fixed, connectivity-preserving
// set of links (plus, at the top level, one whole router) at deterministic
// mid-run cycles; the network drains the dead resources, regenerates its
// route tables with up*/down* routing, and carries on. Policies compared on
// the same fault schedule: rr-no-sensor, sensor-wise, and sensor-wise over
// the stress-spreading adaptive router (west-first escape-VC routing) —
// plus a torus leg, whose wrap links give the regeneration more survivor
// paths to work with.
//
// Runs on core::SweepRunner (--workers N); the kill schedule is derived
// from a fixed seed and each point carries its FaultPlan as a per-point
// RunnerOptions override, so the table is byte-identical at any worker
// count. The invariant checker is on everywhere: structural faults may
// cost latency, duty cycle and the purged in-flight flits the drain
// accounts for — never an unaccounted flit.

#include <algorithm>
#include <iostream>
#include <iterator>

#include "bench_common.hpp"
#include "nbtinoc/noc/fault_routing.hpp"
#include "nbtinoc/noc/topology.hpp"
#include "nbtinoc/util/rng.hpp"

using namespace nbtinoc;

namespace {

std::uint64_t fault_count(const core::RunResult& r, const char* key) {
  const auto it = r.fault_counters.find(key);
  return it == r.fault_counters.end() ? 0 : it->second;
}

/// Wired cardinal links of `config`'s fabric as (router, dir) pairs, each
/// physical channel listed once (by its lower-id endpoint).
std::vector<std::pair<noc::NodeId, noc::Dir>> wired_links(const noc::NocConfig& config) {
  const auto topo = noc::Topology::create(config);
  std::vector<std::pair<noc::NodeId, noc::Dir>> links;
  for (noc::NodeId r = 0; r < topo->num_routers(); ++r)
    for (int d = 0; d < 4; ++d) {
      const noc::NodeId v = topo->neighbor(r, static_cast<noc::Dir>(d));
      if (v != noc::kInvalidNode && r < v) links.emplace_back(r, static_cast<noc::Dir>(d));
    }
  return links;
}

/// Deterministic kill schedule: `num_kills` links chosen by seeded draw,
/// each verified (by replaying the whole prefix on a scratch topology) to
/// keep the fabric connected — the study measures degraded routing, not
/// partition behavior. Kills land spaced through the measurement window.
std::vector<sim::StructuralFault> make_schedule(const noc::NocConfig& config, int num_kills,
                                                const sim::Scenario& s) {
  const auto links = wired_links(config);
  util::Xoshiro256 rng(0xfab41cULL);
  std::vector<std::pair<noc::NodeId, noc::Dir>> chosen;
  while (static_cast<int>(chosen.size()) < num_kills) {
    const auto& cand = links[rng.next_below(links.size())];
    if (std::find(chosen.begin(), chosen.end(), cand) != chosen.end()) continue;
    const auto scratch = noc::Topology::create(config);
    bool ok = true;
    for (const auto& [r, d] : chosen) scratch->kill_link(r, d);
    ok = scratch->kill_link(cand.first, cand.second) && scratch->fabric_connected();
    if (ok) chosen.push_back(cand);
  }
  std::vector<sim::StructuralFault> schedule;
  const sim::Cycle window = s.measure_cycles / static_cast<sim::Cycle>(num_kills + 1);
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    sim::StructuralFault f;
    f.cycle = s.warmup_cycles + static_cast<sim::Cycle>(i + 1) * window;
    f.router = chosen[i].first;
    f.port = static_cast<int>(chosen[i].second);
    schedule.push_back(f);
  }
  return schedule;
}

struct Leg {
  const char* label;
  const char* topology;
  noc::RoutingAlgo routing;
  core::PolicyKind policy;
};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const bench::BenchOptions options = bench::BenchOptions::from_cli(args);
  const double rate = args.get_double_or("rate", 0.15);

  sim::Scenario banner = sim::Scenario::synthetic(4, 4, rate);
  bench::apply_scale(banner, options);
  bench::print_banner(
      "Robustness — duty cycle and latency on degraded fabrics (16 cores, injection " +
          util::format_double(rate, 2) + ")",
      "structural link/router kills trigger online up*/down* route regeneration; "
      "gating policies keep their duty-cycle ordering on the surviving fabric",
      banner, options);

  const Leg legs[] = {
      {"mesh/dor", "mesh", noc::RoutingAlgo::kXY, core::PolicyKind::kRrNoSensor},
      {"mesh/dor", "mesh", noc::RoutingAlgo::kXY, core::PolicyKind::kSensorWise},
      {"mesh/west-first", "mesh", noc::RoutingAlgo::kWestFirst, core::PolicyKind::kSensorWise},
      {"torus/dor", "torus", noc::RoutingAlgo::kXY, core::PolicyKind::kSensorWise},
  };
  // Degradation levels as killed-link counts; a 4x4 mesh has 24 links, so
  // the grid spans 0% to ~12%. The top level also loses a whole router.
  const int kill_levels[] = {0, 1, 3};
  const int kTopLevelKills = 3;

  core::SweepRunner sweep(bench::sweep_options(options));
  for (const int kills : kill_levels) {
    for (const Leg& leg : legs) {
      sim::Scenario s = sim::Scenario::synthetic(4, 4, rate);
      s.topology = leg.topology;
      s.routing = leg.routing == noc::RoutingAlgo::kWestFirst ? "west-first" : "dor";
      bench::apply_scale(s, options);
      core::SweepPoint point;
      point.policy = leg.policy;
      point.workload = core::Workload::synthetic();
      point.label = std::string(leg.label) + "-kills" + std::to_string(kills);
      core::RunnerOptions ropt;
      if (kills > 0) {
        ropt.faults.structural = make_schedule(core::noc_config_of(s), kills, s);
        if (kills == kTopLevelKills) {
          // One whole-router kill late in the run: router 0, a corner —
          // the mildest whole-router loss. Should the survivor graph still
          // split, the unroutable counters tell that story too.
          sim::StructuralFault f;
          f.cycle = s.warmup_cycles + s.measure_cycles - s.measure_cycles / 8;
          f.router = 0;
          ropt.faults.structural.push_back(f);
        }
      }
      ropt.check_invariants = true;
      point.runner = ropt;
      point.scenario = s;
      sweep.add(std::move(point));
    }
  }
  const core::SweepResult results = sweep.run();

  util::Table table({"kills", "fabric", "policy", "MD duty", "avg latency", "regens",
                     "dropped flits", "purged pkts", "unroutable", "violations"});
  std::size_t violations_total = 0;
  constexpr std::size_t kNumLegs = std::size(legs);
  for (std::size_t i = 0; i < std::size(kill_levels); ++i) {
    for (std::size_t j = 0; j < kNumLegs; ++j) {
      const auto& r = results[i * kNumLegs + j].result;
      // Injection port of terminal 5: router 5 is interior and never dies,
      // and local ports outlive any link kill.
      const auto& port = r.port(5, noc::Dir::Local);
      violations_total += r.invariant_violations.size();
      table.add_row(
          {std::to_string(kill_levels[i]) +
               (kill_levels[i] == kTopLevelKills ? "+router" : ""),
           legs[j].label, to_string(r.policy),
           bench::duty_cell(port.duty_percent[static_cast<std::size_t>(port.most_degraded)]),
           util::format_double(r.avg_packet_latency, 1),
           std::to_string(fault_count(r, "fault.route_regens")),
           std::to_string(fault_count(r, "fault.dropped_flits")),
           std::to_string(fault_count(r, "fault.purged_packets")),
           std::to_string(fault_count(r, "fault.unroutable_packets")),
           std::to_string(r.invariant_violations.size())});
    }
  }

  bench::emit(table, options);
  if (violations_total != 0) {
    std::cerr << "FAIL: " << violations_total << " invariant violation(s) on degraded fabrics\n";
    for (const auto& p : results)
      for (const auto& v : p.result.invariant_violations)
        std::cerr << "  " << p.point.describe() << ": " << v << '\n';
    return 1;
  }
  std::cout << "All invariants held through every kill schedule: the drains accounted for\n"
               "every purged flit, the regenerated tables stayed total on the surviving\n"
               "fabric, and the gating policies kept working on what was left.\n";
  return 0;
}
