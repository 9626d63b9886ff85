#include "nbtinoc/sim/stat_registry.hpp"

#include <sstream>

namespace nbtinoc::sim {

CounterHandle StatRegistry::intern(const std::string& name) {
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return CounterHandle(it->second);
  const auto idx = static_cast<std::uint32_t>(counters_.size());
  counters_.emplace_back();
  counter_index_.emplace(name, idx);
  return CounterHandle(idx);
}

DistributionHandle StatRegistry::intern_distribution(const std::string& name) {
  const auto it = distribution_index_.find(name);
  if (it != distribution_index_.end()) return DistributionHandle(it->second);
  const auto idx = static_cast<std::uint32_t>(distributions_.size());
  distributions_.emplace_back();
  distribution_index_.emplace(name, idx);
  return DistributionHandle(idx);
}

std::uint64_t StatRegistry::counter(const std::string& name) const {
  const auto it = counter_index_.find(name);
  return it == counter_index_.end() ? 0 : counters_[it->second].value;
}

bool StatRegistry::has_counter(const std::string& name) const {
  const auto it = counter_index_.find(name);
  return it != counter_index_.end() && counters_[it->second].touched;
}

const util::RunningStats* StatRegistry::distribution(const std::string& name) const {
  const auto it = distribution_index_.find(name);
  if (it == distribution_index_.end()) return nullptr;
  const DistributionSlot& slot = distributions_[it->second];
  return slot.touched ? &slot.stats : nullptr;
}

std::vector<std::string> StatRegistry::counter_names() const {
  std::vector<std::string> names;
  names.reserve(counter_index_.size());
  for (const auto& [name, idx] : counter_index_)
    if (counters_[idx].touched) names.push_back(name);
  return names;
}

void StatRegistry::reset() {
  for (auto& slot : counters_) slot = CounterSlot{};
  for (auto& slot : distributions_) slot = DistributionSlot{};
}

void StatRegistry::save(SnapshotWriter& w) const {
  // By-name, in map (sorted) order: deterministic bytes, index-agnostic load.
  w.u64(counter_index_.size());
  for (const auto& [name, idx] : counter_index_) {
    w.str(name);
    w.u64(counters_[idx].value);
    w.b(counters_[idx].touched);
  }
  w.u64(distribution_index_.size());
  for (const auto& [name, idx] : distribution_index_) {
    w.str(name);
    save_stats(w, distributions_[idx].stats);
    w.b(distributions_[idx].touched);
  }
}

void StatRegistry::load(SnapshotReader& r) {
  reset();
  const std::uint64_t n_counters = r.u64();
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    const std::string name = r.str();
    const std::uint64_t value = r.u64();
    const bool touched = r.b();
    CounterSlot& slot = counters_[intern(name).idx_];
    slot.value = value;
    slot.touched = touched;
  }
  const std::uint64_t n_dists = r.u64();
  for (std::uint64_t i = 0; i < n_dists; ++i) {
    const std::string name = r.str();
    DistributionSlot& slot = distributions_[intern_distribution(name).idx_];
    load_stats(r, slot.stats);
    slot.touched = r.b();
  }
}

std::string StatRegistry::to_string() const {
  std::ostringstream os;
  for (const auto& [name, idx] : counter_index_) {
    if (!counters_[idx].touched) continue;
    os << name << " = " << counters_[idx].value << '\n';
  }
  for (const auto& [name, idx] : distribution_index_) {
    if (!distributions_[idx].touched) continue;
    const util::RunningStats& stats = distributions_[idx].stats;
    os << name << " = avg " << stats.mean() << " (n=" << stats.count() << ", min=" << stats.min()
       << ", max=" << stats.max() << ")\n";
  }
  return os.str();
}

}  // namespace nbtinoc::sim
