#pragma once
// Synthetic open-loop traffic source: Bernoulli packet generation at a
// configured flit injection rate combined with a destination pattern.
// This is the paper's Tables II/III workload (uniform, 0.1/0.2/0.3
// flits/cycle/port).

#include <cstdint>

#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/noc/traffic_source.hpp"
#include "nbtinoc/traffic/patterns.hpp"
#include "nbtinoc/traffic/preroll.hpp"
#include "nbtinoc/util/rng.hpp"

namespace nbtinoc::traffic {

class SyntheticSource final : public noc::ITrafficSource {
 public:
  /// `injection_rate` is in flits/cycle/port; packet generation probability
  /// per cycle is rate / packet_length.
  SyntheticSource(noc::NodeId src, double injection_rate, int packet_length,
                  DestinationPattern pattern, std::uint64_t seed);

  std::optional<noc::PacketRequest> maybe_generate(sim::Cycle now) override;

  /// Exact next-fire query for the active-set scheduler (PrerollFrontier).
  sim::Cycle next_event_cycle(sim::Cycle now) override;

  double injection_rate() const { return injection_rate_; }

  void save(sim::SnapshotWriter& w) const override {
    sim::save_rng(w, rng_);
    frontier_.save(w);
  }
  void load(sim::SnapshotReader& r) override {
    sim::load_rng(r, rng_);
    frontier_.load(r);
  }

 private:
  /// One Bernoulli per cycle through `limit`; a zero rate draws nothing.
  void roll_until(sim::Cycle limit);

  noc::NodeId src_;
  double injection_rate_;
  int packet_length_;
  double packet_probability_;
  DestinationPattern pattern_;
  util::Xoshiro256 rng_;
  PrerollFrontier frontier_;
};

/// Installs one SyntheticSource per node with the given pattern; each node
/// gets an independent stream derived from `base_seed`.
void install_synthetic_traffic(noc::Network& network, PatternKind pattern, double injection_rate,
                               std::uint64_t base_seed);

/// Paper workload: uniform random at the given rate.
inline void install_uniform_traffic(noc::Network& network, double injection_rate,
                                    std::uint64_t base_seed) {
  install_synthetic_traffic(network, PatternKind::kUniform, injection_rate, base_seed);
}

}  // namespace nbtinoc::traffic
