// Example: project measured duty cycles into multi-year Vth trajectories and
// lifetime estimates using the calibrated Eq. 1 model — how a designer turns
// the simulator's NBTI statistics into reliability numbers.
//
//   ./aging_forecast [--cores 16] [--vcs 4] [--rate 0.1] [--budget-mv 30]

#include <iostream>

#include "nbtinoc/nbtinoc.hpp"
#include "nbtinoc/util/cli.hpp"
#include "nbtinoc/util/table.hpp"

using namespace nbtinoc;

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const int cores = args.get_int_as<int>("cores", 16);
  const int vcs = args.get_int_as<int>("vcs", 4);
  const double rate = args.get_double_or("rate", 0.1);
  const double budget_mv = args.get_double_or("budget-mv", 30.0);

  int width = 1;
  while (width * width < cores) ++width;
  sim::Scenario s = sim::Scenario::synthetic(width, vcs, rate);
  s.warmup_cycles = 30'000;
  s.measure_cycles = 150'000;

  std::cout << s.describe() << '\n';

  const nbti::NbtiModel model = core::calibrated_model_of(s);
  const nbti::AgingForecaster forecaster(model, core::operating_point_of(s));
  std::cout << model.describe() << "\n\n";

  for (auto policy : {core::PolicyKind::kBaseline, core::PolicyKind::kRrNoSensor,
                      core::PolicyKind::kSensorWise}) {
    const auto r = core::run_experiment(s, policy, core::Workload::synthetic());
    const auto& port = r.port(0, noc::Dir::East);

    util::Table table({"VC", "initial Vth (V)", "duty", "dVth @1y (mV)", "dVth @3y (mV)",
                       "dVth @10y (mV)", "saving vs always-on @3y",
                       "years to +" + util::format_double(budget_mv, 0) + "mV"});
    for (int v = 0; v < vcs; ++v) {
      const nbti::BufferAgingInput input{port.initial_vth_v[static_cast<std::size_t>(v)],
                                         port.duty_percent[static_cast<std::size_t>(v)] / 100.0};
      const auto y1 = forecaster.forecast(input, 1.0);
      const auto y3 = forecaster.forecast(input, 3.0);
      const auto y10 = forecaster.forecast(input, 10.0);
      const double life = forecaster.lifetime_years(input, budget_mv * 1e-3, 30.0);
      table.add_row({std::to_string(v) + (v == port.most_degraded ? " (MD)" : ""),
                     util::format_double(input.initial_vth_v, 4),
                     util::format_percent(input.alpha * 100.0),
                     util::format_double(y1.delta_vth_v * 1e3, 2),
                     util::format_double(y3.delta_vth_v * 1e3, 2),
                     util::format_double(y10.delta_vth_v * 1e3, 2),
                     util::format_percent(y3.saving_vs_always_on * 100.0),
                     life >= 30.0 ? ">30" : util::format_double(life, 1)});
    }
    std::cout << "Policy: " << to_string(policy) << " (router 0, East input port)\n"
              << table.to_markdown() << '\n';
  }
  std::cout << "The sensor-wise rows show the paper's headline: the most degraded VC ages far\n"
               "slower than under the always-powered baseline (up to ~54% less dVth).\n";
  return 0;
}
