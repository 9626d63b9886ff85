#include "bench_common.hpp"

#include <fstream>
#include <iostream>

namespace nbtinoc::bench {

BenchOptions BenchOptions::from_cli(const util::CliArgs& args) {
  BenchOptions opt;
  opt.full = args.get_bool_or("full", false);
  opt.measure = args.get_int_as<sim::Cycle>("cycles", opt.measure);
  opt.warmup = opt.measure / 5;
  opt.iterations = args.get_int_as<int>("iterations", opt.iterations);
  opt.workers = args.get_int_as<unsigned>("workers", 0);
  if (const auto csv = args.get("csv")) opt.csv_path = *csv;
  return opt;
}

core::SweepOptions sweep_options(const BenchOptions& options) {
  core::SweepOptions sweep;
  sweep.workers = options.workers;
  sweep.on_progress = [](const core::SweepProgress& p) {
    std::cerr << "  [" << p.completed << "/" << p.total << "] " << p.point->describe() << "  "
              << util::format_double(p.point_seconds, 1) << "s, ETA "
              << util::format_double(p.eta_seconds, 0) << "s\n";
  };
  return sweep;
}

void apply_scale(sim::Scenario& scenario, const BenchOptions& options) {
  if (options.full) {
    scenario.use_paper_scale();
  } else {
    scenario.warmup_cycles = options.warmup;
    scenario.measure_cycles = options.measure;
  }
}

void print_banner(const std::string& artifact, const std::string& paper_summary,
                  const sim::Scenario& scenario, const BenchOptions& options) {
  std::cout << "==========================================================================\n"
            << artifact << "\n"
            << paper_summary << "\n"
            << "--------------------------------------------------------------------------\n"
            << scenario.describe()
            << (options.full ? "  scale           : FULL (paper, 30e6 cycles)\n"
                             : "  scale           : reduced (pass --full for 30e6-cycle runs)\n")
            << "==========================================================================\n\n";
}

core::RunResult run_synthetic(const sim::Scenario& scenario, core::PolicyKind policy,
                              traffic::PatternKind pattern) {
  return core::run_experiment(scenario, policy, core::Workload::synthetic(pattern));
}

std::string duty_cell(double duty_percent) { return util::format_percent(duty_percent); }

double gap_on_md(const core::RunResult& rr, const core::RunResult& sw, noc::NodeId node,
                 noc::Dir port) {
  const int md = sw.port(node, port).most_degraded;
  return rr.port(node, port).duty_percent.at(static_cast<std::size_t>(md)) -
         sw.port(node, port).duty_percent.at(static_cast<std::size_t>(md));
}

void emit(const util::Table& table, const BenchOptions& options) {
  std::cout << table.to_markdown() << '\n';
  if (options.csv_path) {
    std::ofstream out(*options.csv_path);
    out << table.to_csv();
    std::cout << "(rows also written to " << *options.csv_path << ")\n";
  }
}

}  // namespace nbtinoc::bench
