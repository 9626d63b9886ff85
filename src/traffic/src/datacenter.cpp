#include "nbtinoc/traffic/datacenter.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>

namespace nbtinoc::traffic {

std::string DatacenterProfile::describe() const {
  std::ostringstream out;
  out << "users=" << users_per_node << " rate=" << user_rate << " on=" << mean_on_cycles
      << " off=" << mean_off_cycles << " alpha=" << pareto_alpha
      << " pattern=" << to_string(pattern) << " hotspot_fraction=" << hotspot_fraction
      << " len=" << packet_length << " horizon=" << profile_horizon;
  return out.str();
}

void DatacenterProfile::validate() const {
  const auto fail = [](const std::string& msg) {
    throw std::invalid_argument("DatacenterProfile: " + msg);
  };
  if (users_per_node < 1) fail("users_per_node must be >= 1");
  if (!(user_rate > 0.0)) fail("user_rate must be > 0");
  if (!(mean_on_cycles >= 1.0)) fail("mean_on_cycles must be >= 1");
  if (!(mean_off_cycles >= 1.0)) fail("mean_off_cycles must be >= 1");
  if (!(pareto_alpha > 1.0)) fail("pareto_alpha must be > 1 (infinite-mean phases never settle)");
  if (!(hotspot_fraction >= 0.0 && hotspot_fraction <= 1.0))
    fail("hotspot_fraction must be in [0, 1]");
  if (packet_length < 1) fail("packet_length must be >= 1");
  if (profile_horizon < 1) fail("profile_horizon must be >= 1");
  const double peak = static_cast<double>(users_per_node) * user_rate / packet_length;
  if (peak > static_cast<double>(noc::kMaxGenerateBurst))
    fail("peak packet rate " + std::to_string(peak) +
         "/cycle (all users on) exceeds the NI burst drain capacity of " +
         std::to_string(noc::kMaxGenerateBurst) + "; lower user_rate or users_per_node");
}

DatacenterAggregateSource::DatacenterAggregateSource(noc::NodeId src,
                                                     const DatacenterProfile& profile, int width,
                                                     int height, noc::NodeId hotspot,
                                                     std::uint64_t seed)
    : src_(src),
      profile_(profile),
      pattern_(profile.pattern, width, height, hotspot, profile.hotspot_fraction),
      rng_(seed) {
  profile_.validate();
  // Consumes a deterministic prefix of rng_; the emission stream continues
  // from wherever the build leaves it, so the whole source is a pure
  // function of (profile, seed).
  build_activity_profile();
}

sim::Cycle DatacenterAggregateSource::pareto_cycles(double mean) {
  // Pareto with the requested mean: x_m = mean * (alpha - 1) / alpha, then
  // invert the CDF on one uniform. Durations are clamped to [1, horizon]:
  // anything past the horizon truncates identically when the profile is
  // marked, so the clamp is observationally free (and keeps the double ->
  // Cycle cast in range on extreme tail draws).
  const double a = profile_.pareto_alpha;
  const double xm = mean * (a - 1.0) / a;
  const double u = rng_.next_double();
  const double d = std::ceil(xm / std::pow(1.0 - u, 1.0 / a));
  const double clamped =
      std::min(static_cast<double>(profile_.profile_horizon), std::max(1.0, d));
  return static_cast<sim::Cycle>(clamped);
}

void DatacenterAggregateSource::build_activity_profile() {
  const sim::Cycle horizon = profile_.profile_horizon;
  std::vector<int> delta(static_cast<std::size_t>(horizon) + 1, 0);
  const double p_on =
      profile_.mean_on_cycles / (profile_.mean_on_cycles + profile_.mean_off_cycles);
  for (int user = 0; user < profile_.users_per_node; ++user) {
    // Stationary start: pick the phase by its long-run weight and enter it
    // mid-flight (a residual fraction of a fresh duration) so the
    // population does not phase-synchronize at cycle 0.
    bool on = rng_.next_bernoulli(p_on);
    sim::Cycle dur = std::max<sim::Cycle>(
        1, static_cast<sim::Cycle>(
               std::ceil(static_cast<double>(pareto_cycles(
                             on ? profile_.mean_on_cycles : profile_.mean_off_cycles)) *
                         rng_.next_double())));
    sim::Cycle t = 0;
    while (t < horizon) {
      if (on) {
        ++delta[static_cast<std::size_t>(t)];
        --delta[static_cast<std::size_t>(std::min(horizon, t + dur))];
      }
      t += dur;
      on = !on;
      dur = pareto_cycles(on ? profile_.mean_on_cycles : profile_.mean_off_cycles);
    }
  }
  seg_start_.clear();
  seg_lambda_.clear();
  seg_active_.clear();
  int active = 0;
  int prev = -1;
  for (sim::Cycle c = 0; c < horizon; ++c) {
    active += delta[static_cast<std::size_t>(c)];
    if (active != prev) {
      seg_start_.push_back(c);
      seg_active_.push_back(active);
      seg_lambda_.push_back(static_cast<double>(active) * profile_.user_rate /
                            profile_.packet_length);
      prev = active;
    }
  }
  max_lambda_ = *std::max_element(seg_lambda_.begin(), seg_lambda_.end());
}

double DatacenterAggregateSource::lambda_at(sim::Cycle cycle, sim::Cycle& span) {
  const sim::Cycle horizon = profile_.profile_horizon;
  const sim::Cycle pos = cycle % horizon;
  if (profile_pos_ == sim::kCycleNever || pos < profile_pos_) seg_idx_ = 0;
  while (seg_idx_ + 1 < seg_start_.size() && seg_start_[seg_idx_ + 1] <= pos) ++seg_idx_;
  profile_pos_ = pos;
  const sim::Cycle end_pos =
      seg_idx_ + 1 < seg_start_.size() ? seg_start_[seg_idx_ + 1] : horizon;
  span = end_pos - pos;
  return seg_lambda_[seg_idx_];
}

void DatacenterAggregateSource::roll_until(sim::Cycle limit) {
  // One Bernoulli per cycle with lambda's fractional part (the integer part
  // is draw-free), rolled a constant-lambda segment at a time. Bernoulli
  // (p <= 0) consumes no RNG state, so idle segments are skipped whole.
  if (max_lambda_ <= 0.0) return frontier_.skip_to(limit + 1);
  while (!frontier_.fired() && frontier_.rolled_until() <= limit) {
    sim::Cycle span = 0;
    const double lambda = lambda_at(frontier_.rolled_until(), span);
    const sim::Cycle last = std::min(limit, frontier_.rolled_until() + span - 1);
    if (lambda <= 0.0) {
      frontier_.skip_to(last + 1);
      continue;
    }
    const double base = std::floor(lambda);
    const double frac = lambda - base;
    frontier_.roll(last, [&] {
      std::size_t k = static_cast<std::size_t>(base);
      if (frac > 0.0 && rng_.next_bernoulli(frac)) ++k;
      if (k > 0) next_count_ = k;
      return k > 0;
    });
  }
}

void DatacenterAggregateSource::refill(sim::Cycle now) {
  roll_until(now);
  while (frontier_.take(now)) {
    pending_ += next_count_;
    next_count_ = 0;
    roll_until(now);
  }
}

std::optional<noc::PacketRequest> DatacenterAggregateSource::maybe_generate(sim::Cycle now) {
  refill(now);
  if (pending_ == 0) return std::nullopt;
  --pending_;
  return noc::PacketRequest{pattern_.pick(src_, rng_), profile_.packet_length};
}

std::size_t DatacenterAggregateSource::generate_burst(sim::Cycle now, noc::PacketRequest* out,
                                                      std::size_t max) {
  refill(now);
  const std::size_t n = std::min(max, pending_);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = noc::PacketRequest{pattern_.pick(src_, rng_), profile_.packet_length};
  pending_ -= n;
  return n;
}

sim::Cycle DatacenterAggregateSource::next_event_cycle(sim::Cycle now) {
  // Undelivered batch packets keep the source hot at `now` so every
  // scheduler mode drains the backlog on the same cycles.
  if (pending_ > 0) return now;
  if (max_lambda_ <= 0.0) return sim::kCycleNever;
  return frontier_.horizon(now, [this](sim::Cycle limit) { roll_until(limit); });
}

int DatacenterAggregateSource::active_sessions(sim::Cycle c) const {
  const sim::Cycle pos = c % profile_.profile_horizon;
  const auto it = std::upper_bound(seg_start_.begin(), seg_start_.end(), pos);
  return seg_active_[static_cast<std::size_t>(it - seg_start_.begin()) - 1];
}

double DatacenterAggregateSource::mean_flit_rate() const {
  const double p_on =
      profile_.mean_on_cycles / (profile_.mean_on_cycles + profile_.mean_off_cycles);
  return p_on * profile_.users_per_node * profile_.user_rate;
}

void install_datacenter_traffic(noc::Network& network, const DatacenterProfile& profile,
                                std::uint64_t base_seed, double rate_scale) {
  const auto& cfg = network.config();
  DatacenterProfile scaled = profile;
  scaled.user_rate *= rate_scale;
  scaled.packet_length = cfg.packet_length;
  const noc::NodeId hotspot = static_cast<noc::NodeId>(network.nodes() - 1);
  util::SplitMix64 seeder(base_seed);
  for (noc::NodeId id = 0; id < network.nodes(); ++id)
    network.set_traffic_source(id, std::make_unique<DatacenterAggregateSource>(
                                       id, scaled, cfg.width, cfg.height, hotspot, seeder.next()));
}

}  // namespace nbtinoc::traffic
