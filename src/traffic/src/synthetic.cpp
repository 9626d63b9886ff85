#include "nbtinoc/traffic/synthetic.hpp"

#include <memory>
#include <stdexcept>

namespace nbtinoc::traffic {

SyntheticSource::SyntheticSource(noc::NodeId src, double injection_rate, int packet_length,
                                 DestinationPattern pattern, std::uint64_t seed)
    : src_(src),
      injection_rate_(injection_rate),
      packet_length_(packet_length),
      packet_probability_(injection_rate / static_cast<double>(packet_length)),
      pattern_(pattern),
      rng_(seed) {
  if (injection_rate < 0.0) throw std::invalid_argument("SyntheticSource: negative rate");
  if (packet_length < 1) throw std::invalid_argument("SyntheticSource: packet_length < 1");
  if (packet_probability_ > 1.0)
    throw std::invalid_argument("SyntheticSource: rate exceeds one packet per cycle");
}

void SyntheticSource::roll_until(sim::Cycle limit) {
  if (packet_probability_ <= 0.0) return frontier_.skip_to(limit + 1);
  frontier_.roll(limit, [this] { return rng_.next_bernoulli(packet_probability_); });
}

std::optional<noc::PacketRequest> SyntheticSource::maybe_generate(sim::Cycle now) {
  roll_until(now);
  if (!frontier_.take(now)) return std::nullopt;
  return noc::PacketRequest{pattern_.pick(src_, rng_), packet_length_};
}

sim::Cycle SyntheticSource::next_event_cycle(sim::Cycle now) {
  if (packet_probability_ <= 0.0) return sim::kCycleNever;
  return frontier_.horizon(now, [this](sim::Cycle limit) { roll_until(limit); });
}

void install_synthetic_traffic(noc::Network& network, PatternKind pattern, double injection_rate,
                               std::uint64_t base_seed) {
  const auto& cfg = network.config();
  util::SplitMix64 seeder(base_seed);
  for (noc::NodeId id = 0; id < network.nodes(); ++id) {
    DestinationPattern dest(pattern, cfg.width, cfg.height);
    network.set_traffic_source(
        id, std::make_unique<SyntheticSource>(id, injection_rate, cfg.packet_length, dest,
                                              seeder.next()));
  }
}

}  // namespace nbtinoc::traffic
