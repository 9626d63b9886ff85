// Regenerates the paper's §III-D area analysis: the sensor-wise machinery
// adds ~3.25% of the baseline router (16 NBTI sensors, one per VC buffer),
// ~3.8% of a 64-bit data link (Up_Down + Down_Up control wires), negligible
// comparator/pre-VA logic, for a total below 4% of the baseline NoC.

#include <iostream>

#include "bench_common.hpp"

using namespace nbtinoc;

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const bench::BenchOptions options = bench::BenchOptions::from_cli(args);
  const int node = args.get_int_as<int>("node", 45);

  std::cout << "==========================================================================\n"
            << "Section III-D — coarse-grain sensor-wise area overhead (ORION-style model)\n"
            << "paper @45nm: sensors ~3.25% of router, control links ~3.8% of a 64b link,\n"
            << "             total overhead below 4% of the baseline router+link\n"
            << "==========================================================================\n\n";

  const power::AreaModel model{power::AreaParams::at_node(node)};

  util::Table table({"num VCs", "router um^2", "link um^2", "sensors", "sensors um^2",
                     "sensor ovh", "ctrl wires (UD+DU)", "link ovh", "total ovh"});
  for (int vcs : {2, 4, 8}) {
    power::RouterGeometry g;
    g.num_vcs = vcs;
    const auto rep = model.overhead_report(g);
    table.add_row({std::to_string(vcs),
                   util::format_double(rep.baseline_router.total_um2, 0),
                   util::format_double(rep.data_link_um2, 0), std::to_string(rep.num_sensors),
                   util::format_double(rep.sensors_um2, 0),
                   util::format_percent(rep.sensor_overhead_vs_router() * 100.0, 2),
                   std::to_string(rep.up_down_wires) + "+" + std::to_string(rep.down_up_wires),
                   util::format_percent(rep.link_overhead_vs_data_link() * 100.0, 2),
                   util::format_percent(rep.total_overhead_vs_noc() * 100.0, 2)});
  }
  bench::emit(table, options);

  power::RouterGeometry paper_geometry;  // 4 ports x 4 VCs x 4 flits x 64b
  std::cout << "Paper configuration breakdown (" << node << "nm):\n"
            << model.overhead_report(paper_geometry).describe() << '\n';
  return 0;
}
