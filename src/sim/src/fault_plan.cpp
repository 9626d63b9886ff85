#include "nbtinoc/sim/fault_plan.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace nbtinoc::sim {

bool FaultPlan::targets_port(int node, int port) const {
  if (targets.empty()) return true;
  for (const auto& [t_node, t_port] : targets)
    if (t_node == node && t_port == port) return true;
  return false;
}

bool FaultPlan::control_enabled() const {
  return sensor_stuck_rate > 0.0 || sensor_drift_rate > 0.0 || sensor_death_rate > 0.0 ||
         gate_cmd_drop_rate > 0.0 || gate_cmd_flip_rate > 0.0 || down_up_drop_rate > 0.0 ||
         wake_fail_rate > 0.0;
}

void FaultPlan::validate() const {
  const auto check_rate = [](const char* name, double rate) {
    if (!(rate >= 0.0 && rate <= 1.0))
      throw std::invalid_argument(std::string("FaultPlan: ") + name +
                                  " must be a probability in [0,1], got " + std::to_string(rate));
  };
  check_rate("sensor_stuck_rate", sensor_stuck_rate);
  check_rate("sensor_drift_rate", sensor_drift_rate);
  check_rate("sensor_death_rate", sensor_death_rate);
  check_rate("sensor_repair_rate", sensor_repair_rate);
  check_rate("gate_cmd_drop_rate", gate_cmd_drop_rate);
  check_rate("gate_cmd_flip_rate", gate_cmd_flip_rate);
  check_rate("down_up_drop_rate", down_up_drop_rate);
  check_rate("wake_fail_rate", wake_fail_rate);
  if (sensor_stuck_rate + sensor_drift_rate + sensor_death_rate > 1.0)
    throw std::invalid_argument(
        "FaultPlan: sensor_stuck_rate + sensor_drift_rate + sensor_death_rate must not exceed 1 "
        "(they compete for the same healthy->faulty transition)");
  if (!std::isfinite(drift_step_v) || !std::isfinite(dead_reading_v))
    throw std::invalid_argument("FaultPlan: drift_step_v and dead_reading_v must be finite");
  for (const auto& [node, port] : targets)
    if (node < 0 || port < 0)
      throw std::invalid_argument("FaultPlan: targets must be non-negative (router, port) pairs");
  for (const StructuralFault& f : structural) {
    if (f.router < 0)
      throw std::invalid_argument("FaultPlan: structural fault router must be non-negative");
    if (f.cycle < 1)
      throw std::invalid_argument(
          "FaultPlan: structural fault cycle must be >= 1 (cycle 0 is construction time; "
          "schedule the kill at the first simulated cycle instead)");
  }
}

std::string FaultPlan::describe() const {
  if (!enabled()) return "fault plan: none (all rates zero)";
  std::ostringstream os;
  os << "fault plan:";
  const auto rate = [&os](const char* name, double r) {
    if (r > 0.0) os << ' ' << name << '=' << r;
  };
  rate("sensor_stuck", sensor_stuck_rate);
  rate("sensor_drift", sensor_drift_rate);
  rate("sensor_death", sensor_death_rate);
  rate("sensor_repair", sensor_repair_rate);
  rate("gate_cmd_drop", gate_cmd_drop_rate);
  rate("gate_cmd_flip", gate_cmd_flip_rate);
  rate("down_up_drop", down_up_drop_rate);
  rate("wake_fail", wake_fail_rate);
  if (!targets.empty()) os << " targets=" << targets.size() << " ports";
  if (!structural.empty()) os << " structural=" << structural.size() << " kills";
  return os.str();
}

FaultPlan FaultPlan::uniform(double rate, std::uint64_t seed_salt) {
  FaultPlan plan;
  plan.seed_salt = seed_salt;
  // The three healthy->faulty sensor transitions compete; split the budget
  // so validate()'s sum constraint holds for any rate in [0,1].
  plan.sensor_stuck_rate = rate / 3.0;
  plan.sensor_drift_rate = rate / 3.0;
  plan.sensor_death_rate = rate / 3.0;
  // Transient sensor faults (mean dwell ~10 epochs): the storm exercises
  // the recovery half of the quarantine ladder, not just the fall.
  plan.sensor_repair_rate = rate >= 0.01 ? 0.1 : rate * 10.0;
  plan.gate_cmd_drop_rate = rate;
  plan.gate_cmd_flip_rate = rate;
  plan.down_up_drop_rate = rate;
  plan.wake_fail_rate = rate;
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed) : plan_(plan), rng_(seed) {
  plan_.validate();
}

void FaultInjector::bind_stats(StatRegistry* stats) {
  stats_ = stats;
  if (stats_ == nullptr) return;
  handles_[kGateCmdDrops] = stats_->intern("fault.gate_cmd_drops");
  handles_[kGateCmdFlips] = stats_->intern("fault.gate_cmd_flips");
  handles_[kWakeFailures] = stats_->intern("fault.wake_failures");
  handles_[kDownUpDrops] = stats_->intern("fault.down_up_drops");
  handles_[kSensorStuck] = stats_->intern("fault.sensor_stuck");
  handles_[kSensorDrifting] = stats_->intern("fault.sensor_drifting");
  handles_[kSensorDead] = stats_->intern("fault.sensor_dead");
  handles_[kSensorRepairs] = stats_->intern("fault.sensor_repairs");
  handles_[kLinkKills] = stats_->intern("fault.link_kills");
  handles_[kRouterKills] = stats_->intern("fault.router_kills");
  handles_[kDroppedFlits] = stats_->intern("fault.dropped_flits");
  handles_[kPurgedPackets] = stats_->intern("fault.purged_packets");
  handles_[kRouteRegens] = stats_->intern("fault.route_regens");
}

void FaultInjector::count(FaultStat stat, std::uint64_t delta) {
  if (stats_ != nullptr) stats_->add(handles_[stat], delta);
}

void FaultInjector::count_link_kill() { count(kLinkKills); }

void FaultInjector::count_router_kill() { count(kRouterKills); }

void FaultInjector::count_dropped_flits(std::uint64_t n) {
  if (n > 0) count(kDroppedFlits, n);
}

void FaultInjector::count_purged_packets(std::uint64_t n) {
  if (n > 0) count(kPurgedPackets, n);
}

void FaultInjector::count_route_regen() { count(kRouteRegens); }

bool FaultInjector::drop_gate_command() {
  if (plan_.gate_cmd_drop_rate <= 0.0) return false;
  const bool hit = rng_.next_bernoulli(plan_.gate_cmd_drop_rate);
  if (hit) count(kGateCmdDrops);
  return hit;
}

bool FaultInjector::flip_gate_command(int range_vcs, int* keep_vc_shift) {
  if (plan_.gate_cmd_flip_rate <= 0.0 || range_vcs <= 0) return false;
  if (!rng_.next_bernoulli(plan_.gate_cmd_flip_rate)) return false;
  // Draw even for range 1 so the stream does not depend on the range; a
  // shift of 0 on a 1-VC range is the only well-formed "corruption" there.
  *keep_vc_shift = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(range_vcs)));
  count(kGateCmdFlips);
  return true;
}

bool FaultInjector::wake_fails() {
  if (plan_.wake_fail_rate <= 0.0) return false;
  const bool hit = rng_.next_bernoulli(plan_.wake_fail_rate);
  if (hit) count(kWakeFailures);
  return hit;
}

bool FaultInjector::drop_down_up_report() {
  if (plan_.down_up_drop_rate <= 0.0) return false;
  const bool hit = rng_.next_bernoulli(plan_.down_up_drop_rate);
  if (hit) count(kDownUpDrops);
  return hit;
}

void FaultInjector::advance_sensor_epoch(int node, int port, int num_vcs) {
  const double fault_rate =
      plan_.sensor_stuck_rate + plan_.sensor_drift_rate + plan_.sensor_death_rate;
  if (fault_rate <= 0.0 && plan_.sensor_repair_rate <= 0.0) return;
  for (int vc = 0; vc < num_vcs; ++vc) {
    SiteState& site = sites_[SiteKey{node, port, vc}];
    if (site.mode == SensorFaultMode::kHealthy) {
      if (fault_rate <= 0.0 || !rng_.next_bernoulli(fault_rate)) continue;
      // Which of the competing fault classes struck, proportionally.
      const double pick = rng_.next_double() * fault_rate;
      if (pick < plan_.sensor_stuck_rate) {
        site.mode = SensorFaultMode::kStuck;
        site.stuck_latched = false;
        count(kSensorStuck);
      } else if (pick < plan_.sensor_stuck_rate + plan_.sensor_drift_rate) {
        site.mode = SensorFaultMode::kDrifting;
        site.drift_v = 0.0;
        count(kSensorDrifting);
      } else {
        site.mode = SensorFaultMode::kDead;
        count(kSensorDead);
      }
    } else {
      if (plan_.sensor_repair_rate > 0.0 && rng_.next_bernoulli(plan_.sensor_repair_rate)) {
        site = SiteState{};  // back to healthy, fault memory cleared
        count(kSensorRepairs);
        continue;
      }
      if (site.mode == SensorFaultMode::kDrifting) site.drift_v += plan_.drift_step_v;
    }
  }
}

double FaultInjector::corrupt_reading(int node, int port, int vc, double true_reading) {
  const auto it = sites_.find(SiteKey{node, port, vc});
  if (it == sites_.end()) return true_reading;
  SiteState& site = it->second;
  switch (site.mode) {
    case SensorFaultMode::kHealthy:
      return true_reading;
    case SensorFaultMode::kStuck:
      if (!site.stuck_latched) {
        site.stuck_value_v = true_reading;
        site.stuck_latched = true;
      }
      return site.stuck_value_v;
    case SensorFaultMode::kDrifting:
      return true_reading + site.drift_v;
    case SensorFaultMode::kDead:
      return plan_.dead_reading_v;
  }
  return true_reading;
}

SensorFaultMode FaultInjector::sensor_mode(int node, int port, int vc) const {
  const auto it = sites_.find(SiteKey{node, port, vc});
  return it == sites_.end() ? SensorFaultMode::kHealthy : it->second.mode;
}

std::size_t FaultInjector::faulty_sites() const {
  std::size_t n = 0;
  for (const auto& [key, site] : sites_)
    if (site.mode != SensorFaultMode::kHealthy) ++n;
  return n;
}

void FaultInjector::save(SnapshotWriter& w) const {
  save_rng(w, rng_);
  w.u64(sites_.size());
  for (const auto& [key, site] : sites_) {
    w.i64(std::get<0>(key));
    w.i64(std::get<1>(key));
    w.i64(std::get<2>(key));
    w.u8(static_cast<std::uint8_t>(site.mode));
    w.f64(site.stuck_value_v);
    w.b(site.stuck_latched);
    w.f64(site.drift_v);
  }
}

void FaultInjector::load(SnapshotReader& r) {
  load_rng(r, rng_);
  sites_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const int node = static_cast<int>(r.i64());
    const int port = static_cast<int>(r.i64());
    const int vc = static_cast<int>(r.i64());
    SiteState site;
    site.mode = static_cast<SensorFaultMode>(r.u8());
    site.stuck_value_v = r.f64();
    site.stuck_latched = r.b();
    site.drift_v = r.f64();
    sites_.emplace(SiteKey{node, port, vc}, site);
  }
}

}  // namespace nbtinoc::sim
