// Scenario-file driven simulator front end:
//
//   ./scenario_runner my_scenario.cfg [--policy sensor-wise] [--json out.json]
//                                 [--workload uniform|transpose|...|mix|datacenter]
//                                 [--buffer-org partitioned|shared]
//                                 [--shared-reserve N]
//                                 [--capture trace.nbtitrace]
//                                 [--replay trace.nbtitrace]
//                                 [--snapshot state.snap --at 40000]
//                                 [--resume state.snap]
//                                 [--dump-routes [--kill 3E,5]]
//
// --buffer-org / --shared-reserve override the scenario file's buffer
// organization: "shared" swaps every input port's per-VC banks for one
// DAMQ slot pool (slot-granularity gating; pair with --policy
// sensor-wise-slot-md or rr-slot), reserving N flits per VC.
//
// --capture records the run's offered load (warmup included, observation
// only — the printed results are unaffected) into an NBTITRACE binary
// trace. --replay ignores --workload and replays such a file as the
// workload, zero-copy from one read-only mapping; the combined
// capture-then-replay pair prints bit-identical results.
//
// --snapshot/--at pauses the run at the given absolute cycle, serializes
// the complete simulation state to the file, then continues to completion
// (the printed results are unaffected). --resume restarts a later
// invocation from such a file — the scenario/policy/workload flags must
// match the snapshotting run, and the combined output is bit-identical to
// an uninterrupted one (sim/snapshot.hpp, ARCHITECTURE.md §12).
//
// --dump-routes skips the simulation and prints the scenario's route table,
// per-link VC-class/orientation inventory and CDG audit verdicts
// (noc::describe_routes). --kill applies structural failures first — a
// comma list of "<router><NSEW>" link kills and bare "<router>" router
// kills — and prints the table before and after the degradation, showing
// how the up*/down* regeneration rewired the fabric.
//
// The scenario file uses "key = value" lines; see
// sim::scenario_from_properties for the accepted keys. Numbers are parsed
// strictly: "measure_cycles = 1e6", "mesh_width = 4x4" or a negative cycle
// count is an error naming the key (exit 1), not a truncated prefix.
// Example:
//
//   # 16-core study
//   mesh_width     = 4
//   num_vcs        = 4
//   injection_rate = 0.2
//   measure_cycles = 150000
//   warmup_cycles  = 30000

#include <fstream>
#include <iostream>
#include <iterator>

#include "nbtinoc/nbtinoc.hpp"
#include "nbtinoc/noc/fault_routing.hpp"
#include "nbtinoc/noc/topology.hpp"
#include "nbtinoc/sim/snapshot.hpp"
#include "nbtinoc/util/cli.hpp"
#include "nbtinoc/util/properties.hpp"
#include "nbtinoc/util/strings.hpp"
#include "nbtinoc/util/table.hpp"

using namespace nbtinoc;

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  if (args.positional().empty()) {
    std::cerr << "usage: " << args.program()
              << " <scenario.cfg> [--policy NAME] [--workload uniform|...|mix] [--json FILE]\n";
    return 2;
  }

  sim::Scenario scenario;
  try {
    scenario = sim::scenario_from_properties(util::load_properties(args.positional()[0]));
  } catch (const std::exception& e) {
    std::cerr << "error reading scenario: " << e.what() << '\n';
    return 1;
  }

  // Command-line buffer-organization overrides, re-validated so a bad
  // combination fails here with the scenario's message instead of deep in
  // the run.
  if (args.has("buffer-org") || args.has("shared-reserve")) {
    if (const auto org = args.get("buffer-org")) scenario.buffer_org = *org;
    scenario.shared_reserve = args.get_int_as<int>("shared-reserve", scenario.shared_reserve);
    try {
      scenario.validate();
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 2;
    }
  }

  if (args.has("dump-routes")) {
    const auto topo = noc::Topology::create(core::noc_config_of(scenario));
    std::cout << "--- routes (healthy) ---\n" << noc::describe_routes(*topo);
    if (const auto kills = args.get("kill")) {
      for (const std::string& token : util::split(*kills, ',')) {
        if (token.empty()) continue;
        // "<router><NSEW>" kills a link, a bare "<router>" the router.
        const auto dir = std::string("NSEW").find(token.back());
        const bool link = dir != std::string::npos;
        int router = 0;
        try {
          router = static_cast<int>(
              util::parse_int(link ? token.substr(0, token.size() - 1) : token, "--kill"));
        } catch (const std::invalid_argument&) {
          std::cerr << "bad --kill token '" << token << "' (want e.g. 3E or 5)\n";
          return 2;
        }
        const bool changed = link ? topo->kill_link(router, static_cast<noc::Dir>(dir))
                                  : topo->kill_router(router);
        if (!changed) std::cerr << "note: '" << token << "' was already dead or unwired\n";
      }
      std::cout << "--- routes (degraded: " << *kills << ") ---\n"
                << noc::describe_routes(*topo);
    }
    return 0;
  }

  const auto policy = core::parse_policy(args.get_or("policy", "sensor-wise"));
  const auto replay_path = args.get("replay");
  const auto capture_path = args.get("capture");
  if (replay_path && capture_path) {
    std::cerr << "error: --capture and --replay are mutually exclusive (re-capturing a replay "
                 "reproduces the input trace)\n";
    return 2;
  }
  std::string workload_name = args.get_or("workload", "uniform");

  core::Workload workload;
  try {
    if (replay_path) {
      workload = core::Workload::trace_replay(traffic::TraceFile::open(*replay_path));
      workload_name = "replay:" + *replay_path;
    } else if (workload_name == "mix") {
      workload = core::Workload::benchmark_mix(
          traffic::random_mix(scenario.cores(), scenario.traffic_seed()));
    } else if (workload_name == "datacenter") {
      workload = core::Workload::datacenter_aggregate(traffic::DatacenterProfile{});
    } else {
      workload = core::Workload::synthetic(traffic::parse_pattern(workload_name));
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  std::cout << scenario.describe() << "  policy          : " << to_string(policy)
            << "\n  workload        : " << workload_name << "\n\n";

  core::RunnerOptions ropt;
  std::string snapshot_bytes;
  const auto snapshot_path = args.get("snapshot");
  const auto resume_path = args.get("resume");
  if (snapshot_path && resume_path) {
    std::cerr << "error: --snapshot and --resume are mutually exclusive (one run either "
                 "produces a checkpoint or starts from one)\n";
    return 2;
  }
  if (args.has("at") && !snapshot_path) {
    std::cerr << "error: --at only makes sense with --snapshot <file>\n";
    return 2;
  }
  if (snapshot_path) {
    if (!args.has("at")) {
      std::cerr << "error: --snapshot needs --at <cycle> (absolute cycle, 0 <= at <= "
                << scenario.warmup_cycles + scenario.measure_cycles << " for this scenario)\n";
      return 2;
    }
    ropt.snapshot_at = args.get_int_as<sim::Cycle>("at", 0);
    ropt.snapshot_out = &snapshot_bytes;
  }
  if (resume_path) {
    std::ifstream in(*resume_path, std::ios::binary);
    if (!in) {
      std::cerr << "error: cannot read snapshot file " << *resume_path << '\n';
      return 1;
    }
    ropt.resume_from.emplace(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  traffic::Trace captured;
  if (capture_path) ropt.capture_trace = &captured;

  core::RunResult result;
  try {
    result = core::run_experiment(scenario, policy, workload, ropt);
  } catch (const sim::SnapshotError& e) {
    std::cerr << "snapshot error: " << e.what()
              << "\n(resume with the same scenario file, --policy and --workload that "
                 "produced the snapshot)\n";
    return 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }

  if (capture_path) {
    try {
      traffic::write_trace_file(*capture_path, captured, scenario.cores(),
                                scenario.name + "/" + workload_name + "/policy=" +
                                    to_string(policy));
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
    std::cout << "trace (" << captured.size() << " packets) written to " << *capture_path
              << "\n\n";
  }

  if (snapshot_path) {
    std::ofstream out(*snapshot_path, std::ios::binary);
    if (!out || !out.write(snapshot_bytes.data(),
                           static_cast<std::streamsize>(snapshot_bytes.size()))) {
      std::cerr << "error: cannot write snapshot to " << *snapshot_path << '\n';
      return 1;
    }
    std::cout << "snapshot (" << snapshot_bytes.size() << " bytes, cycle "
              << *ropt.snapshot_at << ") written to " << *snapshot_path << "\n\n";
  }

  util::Table table({"router/port", "MD VC", "MD duty", "avg duty", "gate transitions"});
  for (const auto& [key, port] : result.ports) {
    const auto md = static_cast<std::size_t>(port.most_degraded);
    std::uint64_t transitions = 0;
    for (auto t : port.gate_transitions) transitions += t;
    table.add_row({std::string("r")
                       .append(std::to_string(key.router))
                       .append(1, '-')
                       .append(1, noc::dir_letter(key.port)),
                   std::to_string(port.most_degraded),
                   util::format_percent(port.duty_percent[md]),
                   util::format_percent(util::mean_of(port.duty_percent)),
                   std::to_string(transitions)});
  }
  std::cout << table.to_markdown() << '\n'
            << "packets: " << result.packets_ejected
            << ", avg latency: " << util::format_double(result.avg_packet_latency, 1)
            << " cycles, throughput: "
            << util::format_double(result.throughput_flits_per_cycle_per_node, 3)
            << " phits/cycle/node\n";

  if (const auto json_path = args.get("json")) {
    std::ofstream out(*json_path);
    if (!out) {
      std::cerr << "cannot write " << *json_path << '\n';
      return 1;
    }
    out << core::to_json(result) << '\n';
    std::cout << "JSON written to " << *json_path << '\n';
  }
  return 0;
}
