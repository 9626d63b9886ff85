#pragma once
// Shared declarations of the end-to-end benchmark (README.md describes the
// workloads, the metrics and how to compare two commits).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "nbtinoc/core/experiment.hpp"
#include "nbtinoc/core/fleet.hpp"
#include "nbtinoc/core/lifetime_engine.hpp"

namespace e2e {

using namespace nbtinoc;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Kind { kRun, kLifetime, kFleet };

struct WorkloadInfo {
  const char* name;
  Kind kind;
};

/// The five workloads, in the order a full run executes them.
const std::vector<WorkloadInfo>& all_workloads();
/// nullptr when no workload has this name.
const WorkloadInfo* find_workload(std::string_view name);

/// Inputs every workload derives from: the seed salts the traffic streams,
/// and `scale` divides every cycle count (1 for the real run, 50 for --smoke).
struct Params {
  std::uint64_t seed = 0;
  int scale = 1;
};

/// Everything core::run_experiment takes.
struct RunSpec {
  sim::Scenario scenario;
  core::PolicyKind policy = core::PolicyKind::kSensorWise;
  core::Workload workload;
  core::RunnerOptions options;
};

/// The single cycle-accurate window a lifetime or fleet workload repeats
/// (the first measurement epoch; chip 0 of the sensor-wise group), or the
/// whole run of a run workload. The traced run instruments this.
RunSpec window_spec(const WorkloadInfo& info, const Params& params);

/// The outcome of one timed repetition.
struct Outcome {
  std::variant<core::RunResult, core::LifetimeEngineResult, core::FleetReport> result;
  std::string json;  ///< canonical result; its digest is result_digest
  double sim_cycles = 0.0;  ///< cycles simulated cycle-accurately, warm-up included
  /// Lifetime and fleet: study epochs or fleet points, reported per host
  /// second as `rate_metric` (nullptr for run workloads).
  double units = 0.0;
  const char* rate_metric = nullptr;
  const char* rate_unit = "";
};

/// Per-layer numbers of one traced run, keyed "<module>.<metric>".
struct LayerMetric {
  double value = 0.0;
  const char* unit = "";
};
using LayerMetrics = std::map<std::string, LayerMetric>;

/// One repetition of the workload's deliverable through the public API.
/// Non-null `layers` receives the lifetime engine's boundary timings
/// (core.lifetime.*); the body is otherwise identical.
Outcome run_body(const WorkloadInfo& info, const Params& params, LayerMetrics* layers = nullptr);

/// One minimum-size body: a run workload's object graph plus one measured
/// cycle with no warm-up, the LifetimeEngine constructor, or a one-chip
/// one-cycle fleet. Returns host seconds.
double setup_body(const WorkloadInfo& info, const Params& params);

/// Counts checks; every check is one op.
class Checks {
 public:
  void expect(bool ok, const std::string& name, const std::string& detail = "");
  int ops() const { return ops_; }
  int failed() const { return static_cast<int>(failures_.size()); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int ops_ = 0;
  std::vector<std::string> failures_;
};

/// Range and conservation checks on one repetition's result, plus the
/// stepped-scheduler check of run workloads and the shard-merge check of
/// the fleet. Non-null `layers` receives the fleet's shard, serialize, parse
/// and merge timings (core.fleet.*).
void check_outputs(const WorkloadInfo& info, const Params& params, const Outcome& outcome,
                   Checks& checks, LayerMetrics* layers = nullptr);

struct TracedResult {
  std::string json;    ///< to_json of the reduced result
  double body_s = 0.0; ///< host seconds of what run_experiment would do
};

/// Builds the object graph run_experiment builds for `spec`, with counting
/// decorators around the gate controller and every traffic source, runs it
/// and reduces it exactly as run_experiment does. Fills the noc / sim /
/// core.controller / traffic / nbti / core.reduce metrics.
TracedResult traced_run(const RunSpec& spec, LayerMetrics& metrics);

/// FNV-1a 64 of `text`, as 16 hex digits.
std::string fnv1a_hex(std::string_view text);

}  // namespace e2e
