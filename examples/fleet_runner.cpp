// Sharded Monte-Carlo fleet reliability front end (EXPERIMENTS.md X17):
//
//   # everything on one machine
//   ./fleet_runner --chips 256 --out fleet
//
//   # or shard across machines / invocations, then merge the partials
//   ./fleet_runner --chips 256 --shard 0/4 --out fleet    # -> fleet.shard0
//   ./fleet_runner --chips 256 --shard 1/4 --out fleet    # -> fleet.shard1
//   ...
//   ./fleet_runner --chips 256 --merge fleet.shard0,fleet.shard1,... --out fleet
//
// Every chip is an independent process-variation silicon sample; each runs
// every policy under every workload, and the chip's failure time is the
// year its --fraction order statistic of VC lifetimes crosses --budget-mv.
// A policy that reads no sensor (baseline, rr-no-sensor, rr-slot) has the
// same duty on every chip, so its chips share one simulation per shard and
// differ only in the silicon their lifetimes are computed on: adding chips
// to such a policy costs a reduce each, not a run.
// The merged fleet.json / fleet.csv are byte-identical for any --workers
// value and any shard split (the merge validates that the partials belong
// to this exact configuration and cover every point exactly once).

#include <fstream>
#include <iostream>
#include <sstream>

#include "nbtinoc/core/fleet.hpp"
#include "nbtinoc/util/cli.hpp"
#include "nbtinoc/util/strings.hpp"

using namespace nbtinoc;

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !out.write(content.data(), static_cast<std::streamsize>(content.size()))) {
    std::cerr << "error: cannot write " << path << '\n';
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);

  core::FleetSpec spec;
  spec.scenario = sim::Scenario::synthetic(
      args.get_int_as<int>("mesh", 4), args.get_int_as<int>("vcs", 4),
      args.get_double_or("rate", 0.2));
  spec.scenario.warmup_cycles = args.get_int_as<sim::Cycle>("warmup", 2'000);
  spec.scenario.measure_cycles = args.get_int_as<sim::Cycle>("measure", 20'000);
  spec.chips = args.get_int_as<int>("chips", 64);
  spec.dvth_budget_v = args.get_double_or("budget-mv", 30.0) * 1e-3;
  spec.failure_fraction = args.get_double_or("fraction", 0.01);
  spec.max_years = args.get_double_or("max-years", 30.0);

  spec.policies.clear();
  for (const std::string& name :
       util::split(args.get_or("policies", "baseline,sensor-wise"), ','))
    spec.policies.push_back(core::parse_policy(name));

  const std::string out_stem = args.get_or("out", "fleet");
  const auto workers = args.get_int_as<unsigned>("workers", 0);

  try {
    if (const auto merge_list = args.get("merge")) {
      // Merge mode: read every partial, validate, reduce, export.
      std::vector<core::FleetShardResult> shards;
      for (const std::string& path : util::split(*merge_list, ',')) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
          std::cerr << "error: cannot read shard partial " << path << '\n';
          return 1;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        shards.push_back(core::parse_fleet_shard(buffer.str()));
      }
      const core::FleetReport report = core::merge_fleet_shards(spec, std::move(shards));
      if (!write_file(out_stem + ".json", report.to_json())) return 1;
      if (!write_file(out_stem + ".csv", report.to_csv())) return 1;
      std::cout << report.to_csv() << "merged " << spec.total_points() << " points -> "
                << out_stem << ".json, " << out_stem << ".csv\n";
      return 0;
    }

    int shard_index = 0;
    int shard_count = 1;
    if (const auto shard = args.get("shard")) {
      const auto parts = util::split(*shard, '/');
      if (parts.size() != 2) {
        std::cerr << "error: --shard wants i/N (e.g. --shard 2/8), got '" << *shard << "'\n";
        return 2;
      }
      shard_index = static_cast<int>(util::parse_int(parts[0], "--shard"));
      shard_count = static_cast<int>(util::parse_int(parts[1], "--shard"));
    }

    if (shard_count == 1) {
      // Single-invocation path: run + merge in-process.
      const core::FleetReport report = core::run_fleet(spec, workers);
      if (!write_file(out_stem + ".json", report.to_json())) return 1;
      if (!write_file(out_stem + ".csv", report.to_csv())) return 1;
      std::cout << report.to_csv() << spec.total_points() << " points -> " << out_stem
                << ".json, " << out_stem << ".csv\n";
    } else {
      const core::FleetShardResult shard = core::run_fleet_shard(
          spec, shard_index, shard_count, workers);
      const std::string path = out_stem + ".shard" + std::to_string(shard_index);
      if (!write_file(path, core::serialize_fleet_shard(shard))) return 1;
      std::cout << "shard " << shard_index << "/" << shard_count << ": " << shard.outcomes.size()
                << " of " << shard.total_points << " points -> " << path
                << "\nmerge with: --merge <all " << shard_count << " partials> --out " << out_stem
                << " (same flags otherwise)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
