#include "nbtinoc/core/policy.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "nbtinoc/util/strings.hpp"

namespace nbtinoc::core {

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kBaseline:
      return "baseline";
    case PolicyKind::kRrNoSensor:
      return "rr-no-sensor";
    case PolicyKind::kSensorWiseNoTraffic:
      return "sensor-wise-no-traffic";
    case PolicyKind::kSensorWise:
      return "sensor-wise";
    case PolicyKind::kSensorRank:
      return "sensor-rank";
    case PolicyKind::kSensorWiseSlotMd:
      return "sensor-wise-slot-md";
    case PolicyKind::kRrSlot:
      return "rr-slot";
  }
  return "?";
}

PolicyKind parse_policy(const std::string& name) {
  const std::string n = util::to_lower(name);
  if (n == "baseline" || n == "always-on" || n == "none") return PolicyKind::kBaseline;
  if (n == "rr-no-sensor" || n == "rr_no_sensor" || n == "rr") return PolicyKind::kRrNoSensor;
  if (n == "sensor-wise-no-traffic" || n == "sensor_wise_no_traffic" || n == "swnt")
    return PolicyKind::kSensorWiseNoTraffic;
  if (n == "sensor-wise" || n == "sensor_wise" || n == "sw") return PolicyKind::kSensorWise;
  if (n == "sensor-rank" || n == "sensor_rank" || n == "rank") return PolicyKind::kSensorRank;
  if (n == "sensor-wise-slot-md" || n == "sensor_wise_slot_md" || n == "sw-slot")
    return PolicyKind::kSensorWiseSlotMd;
  if (n == "rr-slot" || n == "rr_slot") return PolicyKind::kRrSlot;
  throw std::invalid_argument("unknown policy: " + name);
}

noc::GateCommand rr_no_sensor_decide(const noc::OutVcStateView& view, int candidate,
                                     bool new_traffic) {
  const int num_vcs = view.num_vcs();
  noc::GateCommand cmd;
  cmd.gating_active = true;
  // Algorithm 1 lines 4-7: no new packet -> de-assert enable; the
  // downstream router recovers all of its idle VCs.
  if (!new_traffic) {
    cmd.enable = false;
    cmd.keep_vc = candidate;  // a valid VC-ID is always driven on the lines
    return cmd;
  }
  // Lines 8-17: starting at the rotating candidate, the first idle or
  // recovering VC is set idle (kept awake) for the incoming packet.
  int offset_vc = candidate % num_vcs;
  for (int iter = 0; iter < num_vcs; ++iter) {
    if (view.is_idle(offset_vc) || view.is_recovery(offset_vc)) {
      cmd.enable = true;
      cmd.keep_vc = offset_vc;
      return cmd;
    }
    offset_vc = (offset_vc + 1) % num_vcs;
  }
  // All VCs are busy with packets: nothing to keep awake.
  cmd.enable = false;
  cmd.keep_vc = candidate;
  return cmd;
}

noc::GateCommand sensor_wise_decide(const noc::OutVcStateView& view, int most_degraded,
                                    bool bool_traffic) {
  const int num_vcs = view.num_vcs();
  const int reserve = bool_traffic ? 1 : 0;

  // Lines 5-8: conceptually restore every recovered VC to idle; the idle
  // pool is every non-active VC.
  int count_idle = 0;
  for (int vc = 0; vc < num_vcs; ++vc)
    if (!view.is_active(vc)) ++count_idle;

  // Per-VC recovery marks as a bitmask: this runs per port per vnet per
  // cycle, and a vector<bool> here was a measurable hot-path allocation.
  if (num_vcs > 64)
    throw std::invalid_argument("sensor_wise_decide: more than 64 VCs per vnet unsupported");
  std::uint64_t to_recovery = 0;

  // Lines 9-11: the most degraded VC is put into recovery *first*, provided
  // an idle VC remains available for a potential new packet.
  if (most_degraded >= 0 && most_degraded < num_vcs && !view.is_active(most_degraded) &&
      count_idle > reserve) {
    to_recovery |= std::uint64_t{1} << most_degraded;
    --count_idle;
  }

  // Lines 12-16: gate the remaining idle VCs in index order while more than
  // `reserve` remain; the surviving idle VC is the one left awake.
  int idle_vc = noc::kInvalidVc;
  for (int vc = 0; vc < num_vcs; ++vc) {
    if (view.is_active(vc) || ((to_recovery >> vc) & 1u) != 0) continue;
    if (count_idle > reserve) {
      to_recovery |= std::uint64_t{1} << vc;
      --count_idle;
    } else {
      idle_vc = vc;
    }
  }

  // Lines 17-18: the VC is actually left idle iff new traffic needs it.
  noc::GateCommand cmd;
  cmd.gating_active = true;
  cmd.enable = bool_traffic && idle_vc != noc::kInvalidVc;
  cmd.keep_vc = idle_vc;
  return cmd;
}

noc::GateCommand sensor_rank_decide(const noc::OutVcStateView& view,
                                    const std::vector<double>& degradation, bool bool_traffic) {
  const int num_vcs = view.num_vcs();
  if (static_cast<int>(degradation.size()) != num_vcs)
    throw std::invalid_argument("sensor_rank_decide: degradation size mismatch");
  // Keep the *least* degraded non-active VC awake; everything else in the
  // pool recovers. Without traffic, recover the whole pool.
  int healthiest = noc::kInvalidVc;
  for (int vc = 0; vc < num_vcs; ++vc) {
    if (view.is_active(vc)) continue;
    if (healthiest == noc::kInvalidVc ||
        degradation[static_cast<std::size_t>(vc)] <
            degradation[static_cast<std::size_t>(healthiest)]) {
      healthiest = vc;
    }
  }
  noc::GateCommand cmd;
  cmd.gating_active = true;
  cmd.enable = bool_traffic && healthiest != noc::kInvalidVc;
  cmd.keep_vc = healthiest;
  return cmd;
}

namespace {

/// The wake/gate rules both slot policies share; only the slot choice
/// differs. `pick(want)` names the slot in state `want` to wake (kGated) or
/// to gate (kFree), or kInvalidVc for none.
template <typename Pick>
noc::GateCommand slot_decide(const noc::SharedBufferPool& pool, bool new_traffic,
                             const Pick& pick) {
  noc::GateCommand cmd;
  cmd.gating_active = true;
  cmd.range_vcs = 0;
  const int free = pool.free_slots();
  const int vcs = pool.num_vcs();
  // Gated slots shrink shared_limit(), so deep gating can throttle live
  // traffic down to per-VC stop-and-wait on the reserved path — and in that
  // regime new_traffic (a head flit awaiting VA upstream) goes quiet, so it
  // cannot be the wake trigger. credit_starved() reads the pressure off the
  // outstanding charges instead and reopens the shared region.
  if (pool.credit_starved() || (new_traffic && free < vcs)) {
    // Headroom is short for the traffic that is coming: wake one Gated slot.
    cmd.keep_vc = pick(noc::SharedBufferPool::SlotState::kGated);
    cmd.enable = cmd.keep_vc != noc::kInvalidVc;
    return cmd;
  }
  // While some VC depends on the shared region (charge at reserve), gating
  // must leave a slot of send headroom after the transition — otherwise the
  // gate and the starvation wake thrash on the same slot. With no such
  // demand, M* alone binds and the pool walks to the all-gated fixed point.
  const bool headroom_ok = pool.vcs_at_reserve() == 0 || pool.credit_headroom() >= 2;
  if ((!new_traffic || free > vcs) && headroom_ok && pool.can_gate()) {
    // Surplus headroom (or no traffic at all): recover one Free slot per
    // cycle. The can_gate() guard keeps the command a structural no-op at
    // the gating fixed point.
    const int victim = pick(noc::SharedBufferPool::SlotState::kFree);
    if (victim != noc::kInvalidVc) {
      cmd.first_vc = victim;
      cmd.range_vcs = 1;
    }
  }
  return cmd;
}

}  // namespace

noc::GateCommand sensor_wise_slot_decide(const noc::SharedBufferPool& pool,
                                         const std::vector<double>& degradation,
                                         bool new_traffic) {
  if (static_cast<int>(degradation.size()) < pool.num_slots())
    throw std::invalid_argument("sensor_wise_slot_decide: degradation size mismatch");
  // Wake the Gated slot that has recovered the longest (lowest reading),
  // gate the most degraded Free slot; the lowest index wins ties, like the
  // sensor bank's comparator tree.
  return slot_decide(pool, new_traffic, [&](noc::SharedBufferPool::SlotState want) {
    const bool wake = want == noc::SharedBufferPool::SlotState::kGated;
    int best = noc::kInvalidVc;
    for (int s = 0; s < pool.num_slots(); ++s) {
      if (pool.slot_state(s) != want) continue;
      const double d = degradation[static_cast<std::size_t>(s)];
      if (best == noc::kInvalidVc ||
          (wake ? d < degradation[static_cast<std::size_t>(best)]
                : d > degradation[static_cast<std::size_t>(best)]))
        best = s;
    }
    return best;
  });
}

noc::GateCommand rr_slot_decide(const noc::SharedBufferPool& pool, int candidate,
                                bool new_traffic) {
  const int slots = pool.num_slots();
  candidate = ((candidate % slots) + slots) % slots;
  // The first slot in the wanted state, scanning circularly from the
  // time-rotated candidate.
  return slot_decide(pool, new_traffic, [&](noc::SharedBufferPool::SlotState want) {
    for (int i = 0; i < slots; ++i) {
      const int s = candidate + i < slots ? candidate + i : candidate + i - slots;
      if (pool.slot_state(s) == want) return s;
    }
    return noc::kInvalidVc;
  });
}

}  // namespace nbtinoc::core
