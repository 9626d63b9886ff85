// Example: capture the offered load of an application mix into an NBTITRACE
// binary trace, then replay the byte-identical workload under two policies —
// the way to compare policies on externally produced traces (e.g. from a
// full-system simulator).
//
// The capture rides along a normal run_experiment call
// (RunnerOptions::capture_trace observes every offered packet without
// perturbing the run); the replays mmap the written file once and share the
// read-only mapping across both runs, zero-copy. Because the capturing run
// and the capture-policy replay see the identical offered load, their
// results match bit for bit — printed as a self-check below.
//
//   ./trace_replay [--cores 4] [--cycles 80000] [--trace /tmp/noc_trace.nbtitrace]

#include <iostream>

#include "nbtinoc/nbtinoc.hpp"
#include "nbtinoc/util/cli.hpp"
#include "nbtinoc/util/table.hpp"

using namespace nbtinoc;

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const int cores = args.get_int_as<int>("cores", 4);
  const auto cycles = args.get_int_as<sim::Cycle>("cycles", 80'000);
  const std::string trace_path = args.get_or("trace", "/tmp/nbtinoc_trace.nbtitrace");

  int width = 1;
  while (width * width < cores) ++width;
  sim::Scenario s = sim::Scenario::synthetic(width, 2, 0.0);
  s.name = std::to_string(cores) + "core-trace";
  s.warmup_cycles = cycles / 5;
  s.measure_cycles = cycles;

  // 1. Capture: run the mix once under rr-no-sensor, recording what every
  // source offered (warmup included), and write the binary trace.
  const traffic::BenchmarkMix mix = traffic::random_mix(cores, 4242);
  const core::Workload mix_workload = core::Workload::benchmark_mix(mix);
  std::cout << "Capturing " << s.total_cycles() << " cycles of '" << mix.describe() << "'...\n";
  traffic::Trace captured;
  core::RunnerOptions capture_options;
  capture_options.capture_trace = &captured;
  const auto rr_live = core::run_experiment(s, core::PolicyKind::kRrNoSensor, mix_workload,
                                            capture_options);
  traffic::write_trace_file(trace_path, captured, cores, s.name + "/" + mix.describe());
  std::cout << "Saved " << captured.size() << " packets to " << trace_path << "\n\n";

  // 2. Replay the identical workload under both policies, zero-copy from
  // one shared mapping.
  const core::Workload replay = core::Workload::trace_replay(traffic::TraceFile::open(trace_path));
  const auto rr = core::run_experiment(s, core::PolicyKind::kRrNoSensor, replay);
  const auto sw = core::run_experiment(s, core::PolicyKind::kSensorWise, replay);
  std::cout << "packets delivered: rr=" << rr.packets_ejected << " sw=" << sw.packets_ejected
            << " (identical offered load)\n"
            << "capture/replay self-check: "
            << (core::to_json(rr_live) == core::to_json(rr) ? "bit-identical" : "DIVERGED!")
            << "\n\n";

  for (const auto& [key, port] : sw.ports) {
    const auto md = static_cast<std::size_t>(port.most_degraded);
    std::cout << "r" << key.router << "-" << noc::dir_letter(key.port) << ": MD=VC" << md
              << "  rr=" << util::format_percent(rr.ports.at(key).duty_percent[md])
              << "  sw=" << util::format_percent(port.duty_percent[md]) << "  gap="
              << util::format_percent(rr.ports.at(key).duty_percent[md] - port.duty_percent[md])
              << '\n';
  }
  return 0;
}
