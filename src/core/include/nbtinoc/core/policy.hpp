#pragma once
// The NBTI recovery policies (the paper's contribution).
//
// All three NBTI-aware policies run in the *upstream* pre-VA stage of each
// router pair and emit the Up_Down (enable, VC-ID) command; they differ in
// what information they consume:
//
//   rr_no_sensor (Algorithm 1)       traffic info, no sensors: rotates the
//                                    kept-awake candidate on a time basis —
//                                    the best sensor-less strategy.
//   sensor_wise_no_traffic           sensors only: always keeps one idle VC
//                                    awake (it cannot know that no packet is
//                                    coming), most-degraded gated first.
//   sensor_wise (Algorithm 2)        sensors + traffic info: gates *all*
//                                    idle VCs when no new packet waits
//                                    upstream, else keeps exactly one awake
//                                    — never the most degraded if avoidable.
//
// `baseline` is the non-NBTI-aware reference: no gating at all.

#include <string>
#include <vector>

#include "nbtinoc/noc/gate.hpp"
#include "nbtinoc/noc/input_unit.hpp"
#include "nbtinoc/noc/shared_pool.hpp"
#include "nbtinoc/sim/clock.hpp"

namespace nbtinoc::core {

enum class PolicyKind {
  kBaseline,
  kRrNoSensor,
  kSensorWiseNoTraffic,
  kSensorWise,
  /// Extension beyond the paper: full-ranking wear leveling. Where
  /// Algorithm 2 only prioritizes the *most* degraded VC and keeps an
  /// index-ordered survivor awake, sensor-rank keeps the *least* degraded
  /// idle VC awake, steering new packets onto the healthiest buffer and
  /// equalizing wear across the whole bank.
  kSensorRank,
  /// Slot-granularity sensor-wise policy for the shared (DAMQ) buffer
  /// organization: the per-slot sensor bank ranks *pool slots*, the most
  /// degraded Free slot recovers first, and under new traffic the least
  /// degraded Gated slot wakes back up when headroom runs short. Emits
  /// slot-form commands; requires buffer_org = shared.
  kSensorWiseSlotMd,
  /// Slot-granularity sensor-less baseline: rotates the gate/wake scan
  /// start across the pool on a time basis (the rr-no-sensor analogue for
  /// shared pools). Requires buffer_org = shared.
  kRrSlot,
};

std::string to_string(PolicyKind kind);
PolicyKind parse_policy(const std::string& name);

/// True when the policy's decisions read the Down_Up sensor report. A
/// sensor-less policy decides from traffic and time alone, so its duty does
/// not depend on the silicon it runs on (pinned by fleet_test): the gating
/// controller skips the port's report for it, and a fleet simulates one
/// chip per sensor-less cell. Every other kind counts as reading sensors,
/// the safe side: an unlisted sensor-less policy only loses the sharing.
constexpr bool reads_sensors(PolicyKind kind) {
  return kind != PolicyKind::kBaseline && kind != PolicyKind::kRrNoSensor &&
         kind != PolicyKind::kRrSlot;
}

/// Algorithm 1 — the round-robin sensor-less pre-VA stage. `candidate` is
/// the time-rotated active-candidate VC identifier.
noc::GateCommand rr_no_sensor_decide(const noc::OutVcStateView& view, int candidate,
                                     bool new_traffic);

/// Algorithm 2 — the sensor-wise pre-VA stage. `most_degraded` comes from
/// the downstream sensor bank over the Down_Up link. Pass
/// `bool_traffic = true` unconditionally to obtain the
/// sensor-wise-no-traffic variant.
noc::GateCommand sensor_wise_decide(const noc::OutVcStateView& view, int most_degraded,
                                    bool bool_traffic);

/// Wear-leveling variant (extension): `degradation[i]` is the sensor
/// reading of the view-local VC i; the least degraded idle VC is kept awake
/// when new traffic needs one, everything else recovers.
noc::GateCommand sensor_rank_decide(const noc::OutVcStateView& view,
                                    const std::vector<double>& degradation, bool bool_traffic);

/// Slot-granularity sensor-wise pre-VA stage (shared organization, one
/// decision per port per cycle). `degradation[s]` is the sensor reading of
/// pool slot s. At most one slot is gated and one woken per command:
///   - credit starvation (pool.credit_starved(): a VC exhausted its
///     reserve with no shared headroom left), or new traffic with free
///     slots running short (< one per VC): wake the *least* degraded Gated
///     slot (it has recovered the longest);
///   - surplus free slots (> one per VC) or no traffic at all, provided no
///     reserve-exhausted VC would be left without a slot of send headroom:
///     gate the *most* degraded Free slot, M* permitting
///     (pool.can_gate()), driving the pool toward the all-shared-slots-
///     gated fixed point.
/// Under sustained traffic the two rules keep the shared region a slot or
/// two above the outstanding charges, so capacity tracks demand instead of
/// pinning upstream on the per-VC reserved stop-and-wait path. At the
/// no-traffic fixed point (charges drained, free slots == reservations)
/// the returned command is a no-op, which is what lets the event-driven
/// schedulers skip the decide call.
noc::GateCommand sensor_wise_slot_decide(const noc::SharedBufferPool& pool,
                                         const std::vector<double>& degradation,
                                         bool new_traffic);

/// Slot-granularity sensor-less baseline: same wake/gate conditions as
/// sensor_wise_slot_decide but the victim/wake slot is the first match
/// scanning circularly from the time-rotated `candidate` slot.
noc::GateCommand rr_slot_decide(const noc::SharedBufferPool& pool, int candidate,
                                bool new_traffic);

}  // namespace nbtinoc::core
