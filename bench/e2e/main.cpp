// nbtinoc_e2e — end-to-end benchmark of the simulator's deliverables.
//
//   nbtinoc_e2e [--workload NAME] [--seed N] [--reps R] [--seconds S]
//               [--trace] [--smoke]
//
// Without --workload every workload runs, each in a fresh child process so
// that peak memory is per workload, and the children's documents are joined
// into one JSON document on stdout. With --workload only that one runs,
// in-process. Every metric is printed by name with its unit, its value (the
// best sample for wall_s, setup_s and the rates, else the median), and its
// median, min, max and n. Every output is checked, and the exit code is 0
// only when every check passed (1 when a check failed, 2 on a usage error).
//
//   --seed N     salts every traffic stream (Workload::seed_salt); default 0
//   --reps R     at least R timed repetitions (default 3); alone, exactly R
//   --seconds S  repeat until S seconds are timed (default 20)
//   --trace      the traced run instead: per-layer metrics from R (default 5)
//                untraced/traced pairs of the workload's window
//   --smoke      every workload at 1/50 scale and 3 repetitions, all checks

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "nbtinoc/util/cli.hpp"
#include "nbtinoc/util/json.hpp"

namespace e2e {
namespace {

constexpr int kSetupSamples = 15;
constexpr int kDefaultReps = 3;
constexpr int kDefaultTracePairs = 5;
constexpr double kDefaultSeconds = 20.0;

struct Options {
  Params params;
  int reps = 0;  ///< 0: kDefaultReps, or kDefaultTracePairs with --trace
  double seconds = kDefaultSeconds;
  bool trace = false;
  bool smoke = false;
};

/// Which statistic of its samples a metric reports as its value.
enum class Stat { kMedian, kBest };

struct Samples {
  std::string unit;
  Stat stat = Stat::kMedian;
  bool higher_is_better = false;
  std::vector<double> values;
};
using SampleMap = std::map<std::string, Samples>;

void add(SampleMap& map, const std::string& name, const std::string& unit, double value,
         Stat stat = Stat::kMedian, bool higher_is_better = false) {
  Samples& s = map[name];
  s.unit = unit;
  s.stat = stat;
  s.higher_is_better = higher_is_better;
  s.values.push_back(value);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double value_of(const Samples& s) {
  if (s.stat == Stat::kMedian) return median(s.values);
  return s.higher_is_better ? *std::max_element(s.values.begin(), s.values.end())
                            : *std::min_element(s.values.begin(), s.values.end());
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, restarts at exec, so the footprint of a launcher such as
/// run.py (about 14 MiB) does not mask this benchmark's.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("peak_rss_mib: no VmHWM in /proc/self/status");
}

/// Timed repetitions of the deliverable, with one set-up sample before
/// each, so that both sample the same stretch of host time. Returns the
/// first repetition's outcome.
Outcome timed_reps(const WorkloadInfo& info, const Options& opt, SampleMap& metrics,
                   Checks& checks) {
  const int reps = opt.reps > 0 ? opt.reps : kDefaultReps;
  std::vector<double> walls;
  Outcome first;
  int distinct = 0;
  double timed = 0.0;
  while (static_cast<int>(walls.size()) < reps || timed < opt.seconds) {
    add(metrics, "setup_s", "s", setup_body(info, opt.params), Stat::kBest);
    const auto t0 = Clock::now();
    Outcome outcome = run_body(info, opt.params);
    walls.push_back(seconds_since(t0));
    timed += walls.back();
    checks.expect(true, "repetition");
    if (walls.size() == 1) {
      first = std::move(outcome);
      distinct = 1;
    } else if (outcome.json != first.json) {
      ++distinct;
    }
  }
  while (metrics["setup_s"].values.size() < kSetupSamples)
    add(metrics, "setup_s", "s", setup_body(info, opt.params), Stat::kBest);
  checks.expect(distinct == 1, "repetitions_identical",
                std::to_string(distinct) + " distinct results");

  // Timings report their best sample: slow stretches of the host last
  // seconds to minutes and shift a median with their share of the run
  // (README.md, "Why short repetitions and best-of-N").
  for (double w : walls) {
    add(metrics, "wall_s", "s", w, Stat::kBest);
    add(metrics, "sim_cycles_per_s", "cycles/s", first.sim_cycles / w, Stat::kBest, true);
    if (first.rate_metric != nullptr)
      add(metrics, first.rate_metric, first.rate_unit, first.units / w, Stat::kBest, true);
  }
  return first;
}

/// Untraced/traced pairs of the workload's window: the traced run must
/// reproduce the untraced result bit for bit, and the per-layer metrics are
/// the medians over the traced runs. Returns an outcome of the deliverable
/// for the output checks.
Outcome traced_pairs(const WorkloadInfo& info, const Options& opt, SampleMap& metrics,
                     LayerMetrics& boundaries, Checks& checks) {
  const int pairs = opt.reps > 0 ? opt.reps : kDefaultTracePairs;
  const RunSpec window = window_spec(info, opt.params);
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  Outcome first;
  bool identical = true;
  for (int i = 0; i < pairs; ++i) {
    const auto t0 = Clock::now();
    core::RunResult result =
        core::run_experiment(window.scenario, window.policy, window.workload, window.options);
    untraced_s.push_back(seconds_since(t0));
    const std::string untraced = core::to_json(result);

    LayerMetrics layers;
    const TracedResult traced = traced_run(window, layers);
    traced_s.push_back(traced.body_s);
    for (const auto& [name, m] : layers) add(metrics, name, m.unit, m.value);
    identical = identical && traced.json == untraced && (i == 0 || untraced == first.json);
    if (i == 0) {
      first.json = untraced;
      first.result = std::move(result);
    }
  }
  checks.expect(identical, "traced_identical", "traced and untraced windows differ");
  add(metrics, "trace.overhead", "ratio", median(traced_s) / median(untraced_s) - 1.0);

  if (info.kind == Kind::kRun) return first;
  Outcome outcome = run_body(info, opt.params, &boundaries);
  checks.expect(true, "repetition");
  if (info.kind == Kind::kLifetime) {
    const double window_s = median(untraced_s);
    boundaries["core.lifetime.window_s"] = {window_s, "s"};
    boundaries["core.lifetime.closed_form_s"] = {
        boundaries["core.lifetime.run_s"].value -
            boundaries["core.lifetime.measured_epochs"].value * window_s,
        "s"};
  }
  return outcome;
}

/// Runs one workload in this process and prints its document. Returns
/// whether every op succeeded.
bool run_workload(const WorkloadInfo& info, const Options& opt) {
  SampleMap metrics;
  Checks checks;
  std::string digest;
  std::vector<std::string> errors;  // ops that threw
  try {
    LayerMetrics boundaries;
    const Outcome outcome = opt.trace ? traced_pairs(info, opt, metrics, boundaries, checks)
                                      : timed_reps(info, opt, metrics, checks);
    digest = fnv1a_hex(outcome.json);
    check_outputs(info, opt.params, outcome, checks, opt.trace ? &boundaries : nullptr);
    for (const auto& [name, m] : boundaries) add(metrics, name, m.unit, m.value);
    if (!opt.trace) add(metrics, "peak_rss_mib", "MiB", peak_rss_mib());
  } catch (const std::exception& e) {
    errors.push_back(e.what());
  }

  const int ops = checks.ops() + static_cast<int>(errors.size());
  const int failed = checks.failed() + static_cast<int>(errors.size());
  util::JsonWriter w;
  w.begin_object();
  w.field("workload", info.name)
      .field("seed", static_cast<std::uint64_t>(opt.params.seed))
      .field("trace", opt.trace)
      .field("smoke", opt.smoke);
  w.key("metrics").begin_object();
  for (const auto& [name, s] : metrics) {
    w.key(name).begin_object();
    w.field("value", value_of(s))
        .field("unit", s.unit)
        .field("stat", s.stat == Stat::kMedian ? "median" : "best")
        .field("median", median(s.values))
        .field("min", *std::min_element(s.values.begin(), s.values.end()))
        .field("max", *std::max_element(s.values.begin(), s.values.end()))
        .field("n", static_cast<int>(s.values.size()));
    w.key("samples").begin_array();
    for (double v : s.values) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.field("result_digest", digest).field("ops", ops).field("ops_failed", failed);
  w.key("failures").begin_array();
  for (const std::string& f : checks.failures()) w.value(f);
  for (const std::string& e : errors) w.value("exception: " + e);
  w.end_array();
  w.field("correct", failed == 0);
  w.end_object();
  std::cout << w.str() << std::endl;
  return failed == 0;
}

/// Runs every workload in its own child process and joins their documents.
bool run_all(const char* argv0, const Options& opt) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  const std::string exe = len > 0 ? std::string(self, static_cast<std::size_t>(len)) : argv0;
  bool all_ok = true;
  std::string doc = "{\"benchmark\":\"nbtinoc_e2e\",\"workloads\":{";
  for (const WorkloadInfo& info : all_workloads()) {
    std::string cmd = "'" + exe + "' --workload " + info.name + " --seed " +
                      std::to_string(opt.params.seed) + " --seconds " +
                      std::to_string(opt.seconds);
    if (opt.reps > 0) cmd += " --reps " + std::to_string(opt.reps);
    if (opt.trace) cmd += " --trace";
    if (opt.smoke) cmd += " --smoke";
    std::cerr << "nbtinoc_e2e: " << info.name << "\n";
    FILE* child = popen(cmd.c_str(), "r");
    if (child == nullptr) {
      std::cerr << "nbtinoc_e2e: cannot start " << info.name << "\n";
      return false;
    }
    std::string out;
    char buf[4096];
    while (fgets(buf, sizeof buf, child) != nullptr) out += buf;
    const int status = pclose(child);
    all_ok = all_ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
    if (out.empty()) out = "null";
    if (doc.back() != '{') doc += ",";
    doc += std::string("\"") + info.name + "\":" + out;
  }
  doc += std::string("},\"correct\":") + (all_ok ? "true" : "false") + "}";
  std::cout << doc << std::endl;
  return all_ok;
}

int usage(const std::string& message) {
  std::cerr << "nbtinoc_e2e: " << message
            << "\nusage: nbtinoc_e2e [--workload NAME] [--seed N] [--reps R] [--seconds S] "
               "[--trace] [--smoke]\nworkloads:";
  for (const WorkloadInfo& w : all_workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const util::CliArgs args(argc, argv);
  if (args.has("help")) return usage("end-to-end benchmark");
  if (!args.positional().empty()) return usage("unexpected argument '" + args.positional()[0] + "'");

  Options opt;
  const long long seed = args.get_int_or("seed", 0);
  const long long reps = args.get_int_or("reps", 0);
  opt.trace = args.get_bool_or("trace", false);
  opt.smoke = args.get_bool_or("smoke", false);
  // --reps alone or --smoke: a fixed count; otherwise a time budget.
  const bool fixed_count = (args.has("reps") || opt.smoke) && !args.has("seconds");
  opt.seconds = fixed_count ? 0.0 : args.get_double_or("seconds", kDefaultSeconds);
  if (seed < 0) return usage("--seed must be >= 0");
  if (reps < 0 || reps > 1000) return usage("--reps must be in [1, 1000]");
  if (!(opt.seconds >= 0.0 && opt.seconds <= 3600.0)) return usage("--seconds must be in [0, 3600]");
  opt.params.seed = static_cast<std::uint64_t>(seed);
  opt.reps = static_cast<int>(reps);
  if (opt.smoke) opt.params.scale = 50;

  try {
    if (const auto name = args.get("workload")) {
      const WorkloadInfo* info = find_workload(*name);
      if (info == nullptr) return usage("unknown workload '" + *name + "'");
      return run_workload(*info, opt) ? 0 : 1;
    }
    return run_all(argv[0], opt) ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "nbtinoc_e2e: " << e.what() << "\n";
    return 1;
  }
}
