#include "nbtinoc/traffic/app_model.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "nbtinoc/noc/routing.hpp"

namespace nbtinoc::traffic {

AppTrafficSource::AppTrafficSource(noc::NodeId src, const AppProfile& profile, int width,
                                   int height, noc::NodeId hotspot, std::uint64_t seed)
    : src_(src), profile_(profile), width_(width), height_(height), hotspot_(hotspot), rng_(seed) {
  if (profile.mean_rate < 0.0) throw std::invalid_argument("AppTrafficSource: negative rate");
  if (profile.burstiness < 1.0) throw std::invalid_argument("AppTrafficSource: burstiness < 1");
  if (profile.mean_burst_cycles < 1.0)
    throw std::invalid_argument("AppTrafficSource: burst length < 1 cycle");
  if (profile.packet_length < 1) throw std::invalid_argument("AppTrafficSource: bad packet length");

  // Off-state carries a small residual load (prefetch/writeback trickle);
  // the on-state rate and the on-state dwell fraction are solved so the
  // long-run mean equals profile.mean_rate.
  const double r_on = profile.burstiness * profile.mean_rate;
  const double r_off = 0.1 * profile.mean_rate;
  p_on_packet_ = std::min(1.0, r_on / profile.packet_length);
  p_off_packet_ = std::min(1.0, r_off / profile.packet_length);
  const double pi_on =
      profile.burstiness > 1.0 ? (profile.mean_rate - r_off) / (r_on - r_off) : 1.0;
  p_exit_on_ = 1.0 / profile.mean_burst_cycles;
  if (pi_on >= 1.0) {
    p_exit_off_ = 1.0;  // degenerate: always on
  } else {
    p_exit_off_ = std::min(1.0, pi_on * p_exit_on_ / (1.0 - pi_on));
  }
}

double AppTrafficSource::mean_packet_probability() const {
  return profile_.mean_rate / static_cast<double>(profile_.packet_length);
}

noc::NodeId AppTrafficSource::pick_destination() {
  const double roll = rng_.next_double();
  if (roll < profile_.locality) {
    // Random existing mesh neighbor (coherence with the data's owner tile).
    std::array<noc::NodeId, 4> neighbors{};
    std::size_t count = 0;
    for (int d = 0; d < 4; ++d) {
      const noc::NodeId nb = noc::neighbor_of(src_, static_cast<noc::Dir>(d), width_, height_);
      if (nb >= 0) neighbors[count++] = nb;
    }
    if (count > 0) return neighbors[static_cast<std::size_t>(rng_.next_below(count))];
  } else if (roll < profile_.locality + profile_.hotspot_fraction && hotspot_ != src_) {
    return hotspot_;  // directory / memory-controller tile
  }
  // Address-interleaved L2 bank access: uniform over other nodes.
  const int n = width_ * height_;
  const auto draw = static_cast<noc::NodeId>(rng_.next_below(static_cast<std::uint64_t>(n - 1)));
  return draw >= src_ ? draw + 1 : draw;
}

void AppTrafficSource::roll_until(sim::Cycle limit) {
  frontier_.roll(limit, [this] {
    if (rng_.next_bernoulli(on_ ? p_exit_on_ : p_exit_off_)) on_ = !on_;
    return rng_.next_bernoulli(on_ ? p_on_packet_ : p_off_packet_);
  });
}

std::optional<noc::PacketRequest> AppTrafficSource::maybe_generate(sim::Cycle now) {
  roll_until(now);
  if (!frontier_.take(now)) return std::nullopt;
  return noc::PacketRequest{pick_destination(), profile_.packet_length};
}

sim::Cycle AppTrafficSource::next_event_cycle(sim::Cycle now) {
  // With both emission probabilities at zero no packet can ever appear.
  // The skipped transition draws are unobservable then: the chain's state
  // only ever surfaces through emitted packets.
  if (p_on_packet_ <= 0.0 && p_off_packet_ <= 0.0) return sim::kCycleNever;
  return frontier_.horizon(now, [this](sim::Cycle limit) { roll_until(limit); });
}

}  // namespace nbtinoc::traffic
