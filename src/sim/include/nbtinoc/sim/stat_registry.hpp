#pragma once
// Named counters and samples accumulated during simulation. The registry
// gives every component a flat, queryable view of what happened during a run
// (flits injected/ejected, VA grants, power-gating transitions, ...), which
// the tests use to assert invariants such as flit conservation.
//
// Hot-path components intern their counter names once at wiring time and
// afterwards bump a dense slot through a CounterHandle — no string hashing
// or map lookup per event. The string-keyed API remains for reporting,
// tests, and cold paths; both views address the same dense storage.
// reset() zeroes the dense values but never invalidates handles.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nbtinoc/sim/snapshot.hpp"
#include "nbtinoc/util/stats.hpp"

namespace nbtinoc::sim {

class StatRegistry;

/// Opaque dense index of an interned counter. Default-constructed handles
/// are invalid; handles stay valid across StatRegistry::reset() for the
/// lifetime of the registry that issued them.
class CounterHandle {
 public:
  CounterHandle() = default;
  bool valid() const { return idx_ != kInvalid; }

 private:
  friend class StatRegistry;
  explicit CounterHandle(std::uint32_t idx) : idx_(idx) {}
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t idx_ = kInvalid;
};

/// Opaque dense index of an interned distribution (same lifetime contract
/// as CounterHandle).
class DistributionHandle {
 public:
  DistributionHandle() = default;
  bool valid() const { return idx_ != kInvalid; }

 private:
  friend class StatRegistry;
  explicit DistributionHandle(std::uint32_t idx) : idx_(idx) {}
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t idx_ = kInvalid;
};

class StatRegistry {
 public:
  // --- interned hot path ----------------------------------------------------
  /// Returns the dense handle for `name`, creating the slot on first use.
  /// Idempotent: interning the same name twice yields the same handle.
  CounterHandle intern(const std::string& name);
  DistributionHandle intern_distribution(const std::string& name);

  void add(CounterHandle handle, std::uint64_t delta = 1) {
    CounterSlot& slot = counters_[handle.idx_];
    slot.value += delta;
    slot.touched = true;
  }
  void sample(DistributionHandle handle, double value) {
    DistributionSlot& slot = distributions_[handle.idx_];
    slot.stats.add(value);
    slot.touched = true;
  }
  std::uint64_t counter(CounterHandle handle) const { return counters_[handle.idx_].value; }

  // --- string-keyed API (reporting, tests, cold paths) ----------------------
  /// Adds `delta` to the named counter (creating it at zero).
  void add(const std::string& name, std::uint64_t delta = 1) { add(intern(name), delta); }
  /// Records a sample into the named distribution.
  void sample(const std::string& name, double value) { sample(intern_distribution(name), value); }

  std::uint64_t counter(const std::string& name) const;
  bool has_counter(const std::string& name) const;
  const util::RunningStats* distribution(const std::string& name) const;

  /// Names of counters touched since construction or the last reset():
  /// zeroed-but-untouched interned slots are not reported, so reset()
  /// preserves the pre-interning observable behavior exactly.
  std::vector<std::string> counter_names() const;

  /// Zeroes every counter and distribution. Dense storage and the name
  /// index are preserved: handles held by wired components remain valid and
  /// keep addressing the same (now zero) slots.
  void reset();

  /// Multi-line "name = value" dump, sorted by name; used by examples.
  std::string to_string() const;

  // --- checkpoint/restore ----------------------------------------------------
  /// Serializes every slot by *name* (values + touched flags), so restore
  /// works into a freshly wired registry whose dense indices may differ.
  /// Names the resumed registry has not interned yet (lazily created
  /// string-keyed stats) are interned on load.
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  struct CounterSlot {
    std::uint64_t value = 0;
    bool touched = false;  ///< written since construction / last reset()
  };
  struct DistributionSlot {
    util::RunningStats stats;
    bool touched = false;
  };

  std::vector<CounterSlot> counters_;
  std::vector<DistributionSlot> distributions_;
  // Name -> dense index; std::map keeps reporting order sorted by name.
  std::map<std::string, std::uint32_t> counter_index_;
  std::map<std::string, std::uint32_t> distribution_index_;
};

}  // namespace nbtinoc::sim
