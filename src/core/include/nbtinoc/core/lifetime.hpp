#pragma once
// Multi-year lifetime study results: the trajectory core::LifetimeEngine
// (lifetime_engine.hpp) produces when it closes the loop the single-shot
// experiment leaves open.
//
// run_experiment measures duty cycles on *fresh* silicon; over months of
// operation, however, the accumulated Vth shift changes the sensor ranking,
// the policies react to the new most-degraded VC, and wear redistributes.
// A lifetime study alternates (simulate an epoch's traffic -> measure
// per-buffer duty -> advance every buffer's Vth by the epoch length via the
// equivalent-age method -> re-seed the sensors with the aged silicon) and
// records the trajectory. This is the experiment the paper's methodology is
// ultimately for: which policy keeps the worst buffer inside its Vth budget
// the longest.

#include <map>
#include <vector>

#include "nbtinoc/core/experiment.hpp"

namespace nbtinoc::core {

/// State of the sampled port after one epoch.
struct LifetimeEpoch {
  double years_elapsed = 0.0;
  int most_degraded = 0;                 ///< per the aged silicon
  /// Absolute Vth and measured duty per gateable buffer: one per VC, or
  /// one per pool slot under buffer_org=shared (buffers_per_port()).
  std::vector<double> vth_v;
  std::vector<double> duty_percent;
};

struct LifetimeResult {
  noc::PortKey sampled_port;
  std::vector<LifetimeEpoch> epochs;
  /// Worst / best final Vth across the sampled port's VCs.
  double final_worst_vth_v = 0.0;
  double final_spread_v = 0.0;
  /// How many epochs changed the most-degraded VC (wear migration).
  int md_changes = 0;

  /// Full final silicon (for chaining studies).
  std::map<noc::PortKey, std::vector<double>> final_vths;
};

}  // namespace nbtinoc::core
