#include "nbtinoc/noc/output_unit.hpp"

namespace nbtinoc::noc {

OutputUnit::OutputUnit(Dir dir, const NocConfig& config, bool ejection)
    : dir_(dir),
      ejection_(ejection),
      credit_view_(ejection ? 0 : config.total_vcs(), config.buffer_depth),
      va_arbiter_(static_cast<std::size_t>(config.ports_per_router() * config.total_vcs())),
      vc_select_(static_cast<std::size_t>(config.total_vcs())),
      sa_arbiter_(static_cast<std::size_t>(config.ports_per_router())) {}

}  // namespace nbtinoc::noc
