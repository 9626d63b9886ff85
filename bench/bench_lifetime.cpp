// Extension X11 — the lifetime figure. Evolves the NoC over multiple years
// in epochs: simulate traffic, measure per-buffer duty, advance every
// buffer's Vth (equivalent-age Eq.1 integration), re-seed the sensors with
// the aged silicon and repeat (core::LifetimeEngine at tolerance 0: a
// cycle-accurate window every epoch). Prints the worst-VC Vth trajectory per policy
// — the series a "Vth vs years" figure would plot — plus wear-migration
// statistics.

// The four policy trajectories are independent multi-epoch studies, so they
// fan out on the sweep pool (core::parallel_for, --workers N): each policy
// writes its own results slot and the printed tables are byte-identical at
// any worker count.

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "nbtinoc/core/lifetime_engine.hpp"
#include "nbtinoc/core/sweep.hpp"

using namespace nbtinoc;

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const bench::BenchOptions options = bench::BenchOptions::from_cli(args);
  const int epochs = args.get_int_as<int>("epochs", 12);
  const double years_per_epoch = args.get_double_or("years-per-epoch", 0.25);

  sim::Scenario s = sim::Scenario::synthetic(4, 4, 0.2);
  bench::apply_scale(s, options);
  bench::print_banner("Extension X11 — multi-year Vth trajectory (lifetime study)",
                      "16 cores, 4 VCs, uniform 0.2; " + std::to_string(epochs) + " epochs x " +
                          util::format_double(years_per_epoch, 2) + " years",
                      s, options);

  core::LifetimeEngineOptions lopt;
  lopt.epochs = epochs;
  lopt.years_per_epoch = years_per_epoch;
  lopt.measure_cycles_per_epoch = options.full ? 2'000'000 : options.measure / 2;
  lopt.remeasure_tolerance_v = 0.0;

  const noc::PortKey sampled{0, noc::Dir::East};

  std::vector<std::string> header{"years"};
  std::vector<core::PolicyKind> policies = {core::PolicyKind::kBaseline,
                                            core::PolicyKind::kRrNoSensor,
                                            core::PolicyKind::kSensorWise,
                                            core::PolicyKind::kSensorRank};
  std::vector<core::LifetimeResult> results(policies.size());
  core::parallel_for(policies.size(), options.workers, [&](std::size_t i) {
    core::LifetimeEngine engine(s, policies[i], core::Workload::synthetic(), sampled, lopt);
    results[i] = engine.run().study;
  });
  for (auto policy : policies) {
    header.push_back("worst Vth mV [" + to_string(policy) + "]");
    std::cerr << "  [done] " << to_string(policy) << '\n';
  }

  util::Table table(header);
  for (int e = 0; e < epochs; ++e) {
    std::vector<std::string> row{
        util::format_double(results[0].epochs[static_cast<std::size_t>(e)].years_elapsed, 2)};
    for (const auto& r : results) {
      const auto& vths = r.epochs[static_cast<std::size_t>(e)].vth_v;
      const double worst = *std::max_element(vths.begin(), vths.end());
      row.push_back(util::format_double(worst * 1e3, 2));
    }
    table.add_row(std::move(row));
  }
  bench::emit(table, options);

  util::Table summary({"policy", "final worst Vth (mV)", "final spread (mV)", "MD migrations"});
  for (std::size_t i = 0; i < policies.size(); ++i) {
    summary.add_row({to_string(policies[i]),
                     util::format_double(results[i].final_worst_vth_v * 1e3, 2),
                     util::format_double(results[i].final_spread_v * 1e3, 2),
                     std::to_string(results[i].md_changes)});
  }
  std::cout << summary.to_markdown() << '\n'
            << "Expected: baseline worst-Vth grows fastest; the NBTI-aware policies bend the\n"
               "curve down, and sensor-wise/sensor-rank adapt as the ranking migrates.\n";
  return 0;
}
