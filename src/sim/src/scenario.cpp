#include "nbtinoc/sim/scenario.hpp"

#include <cstdio>
#include <set>
#include <sstream>

#include "nbtinoc/util/properties.hpp"
#include "nbtinoc/util/rng.hpp"

namespace nbtinoc::sim {

Technology Technology::node_45nm() {
  Technology t;
  t.vth_nominal_v = 0.180;
  t.node_nm = 45;
  return t;
}

Technology Technology::node_32nm() {
  Technology t;
  t.vth_nominal_v = 0.160;
  t.node_nm = 32;
  return t;
}

namespace {
/// Non-mesh topologies tag every seed string so each topology gets its own
/// silicon/traffic/fault streams; the mesh tag is empty, keeping every
/// pre-topology seed — and with it golden results — byte-identical.
std::string topology_seed_tag(const Scenario& s) {
  std::string tag;
  if (s.topology != "mesh") {
    tag = "-" + s.topology;
    if (s.topology == "cmesh") tag += std::to_string(s.concentration);
  }
  // The shared (DAMQ) organization changes the gateable-buffer count per
  // port, so it gets its own silicon/traffic/fault streams; partitioned
  // keeps the empty tag and with it every golden seed.
  if (s.buffer_org == "shared") tag += "-shared" + std::to_string(s.shared_reserve);
  return tag;
}
}  // namespace

std::uint64_t Scenario::pv_seed() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "pv:%dx%d-vc%d-inj%.3f-%dnm", mesh_width, mesh_height, num_vcs,
                injection_rate, tech.node_nm);
  return util::seed_from_string(buf + topology_seed_tag(*this));
}

std::uint64_t Scenario::traffic_seed() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "traffic:%dx%d-vc%d-inj%.3f", mesh_width, mesh_height, num_vcs,
                injection_rate);
  return util::seed_from_string(buf + topology_seed_tag(*this));
}

std::uint64_t Scenario::fault_seed() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "fault:%dx%d-vc%d-inj%.3f", mesh_width, mesh_height, num_vcs,
                injection_rate);
  return util::seed_from_string(buf + topology_seed_tag(*this));
}

void Scenario::validate() const {
  const auto fail = [this](const std::string& what) {
    throw std::invalid_argument("Scenario '" + name + "': " + what);
  };
  if (mesh_width < 1 || mesh_height < 1)
    fail("mesh must be at least 1x1 (got " + std::to_string(mesh_width) + "x" +
         std::to_string(mesh_height) + ")");
  if (mesh_width * mesh_height < 2)
    fail("a single-tile mesh has no links to simulate; use at least 2 tiles");
  if (topology != "mesh" && topology != "torus" && topology != "ring" && topology != "cmesh")
    fail("unknown topology '" + topology + "' (expected mesh, torus, ring, or cmesh)");
  if (num_vcs < 1) fail("num_vcs must be >= 1 (got " + std::to_string(num_vcs) + ")");
  if ((topology == "torus" || topology == "ring") && num_vcs < 2)
    fail(topology + " needs >= 2 VCs per vnet for its dateline classes (got " +
         std::to_string(num_vcs) + "); wrap-link deadlock freedom splits each vnet's VCs into "
         "pre-/post-dateline halves");
  if (topology == "torus" && (mesh_width < 2 || mesh_height < 2))
    fail("a torus needs >= 2x2 tiles so every wrap link connects distinct routers (got " +
         std::to_string(mesh_width) + "x" + std::to_string(mesh_height) +
         "); use topology=ring for one-dimensional layouts");
  if (topology == "cmesh") {
    if (concentration < 1)
      fail("cmesh concentration must be >= 1 (got " + std::to_string(concentration) + ")");
    if (mesh_width % concentration != 0)
      fail("cmesh concentration " + std::to_string(concentration) + " does not divide the " +
           std::to_string(mesh_width) + "-tile row — it would leave a partial router; use a "
           "divisor of mesh_width");
  } else if (concentration != 1) {
    fail("concentration is a cmesh knob; topology '" + topology +
         "' requires concentration 1 (got " + std::to_string(concentration) + ")");
  }
  if (routing != "dor" && routing != "xy" && routing != "yx" && routing != "west-first" &&
      routing != "odd-even")
    fail("unknown routing '" + routing + "' (expected dor, xy, yx, west-first, or odd-even)");
  if ((routing == "west-first" || routing == "odd-even") && topology != "mesh")
    fail("adaptive routing '" + routing + "' is mesh-only (topology '" + topology +
         "'); wrap-link topologies keep dimension-order routing with dateline classes");
  if ((routing == "west-first" || routing == "odd-even") && num_vcs < 2)
    fail("adaptive routing '" + routing + "' needs >= 2 VCs per vnet (got " +
         std::to_string(num_vcs) + "): one escape class (minimal XY) plus one adaptive class");
  if (num_vnets < 1) fail("num_vnets must be >= 1 (got " + std::to_string(num_vnets) + ")");
  if (buffer_depth < 1) fail("buffer_depth must be >= 1 (got " + std::to_string(buffer_depth) + ")");
  if (buffer_org != "partitioned" && buffer_org != "shared")
    fail("unknown buffer_org '" + buffer_org + "' (expected partitioned or shared)");
  if (buffer_org == "shared" && num_vcs * num_vnets < 2)
    fail("buffer_org=shared needs >= 2 VCs per port to share between (got " +
         std::to_string(num_vcs * num_vnets) + "); use the partitioned organization for a "
         "single-VC router");
  if (shared_reserve < 1)
    fail("shared_reserve must be >= 1 flit per VC (got " + std::to_string(shared_reserve) +
         "); a zero reserve lets gating starve a VC and deadlock the network");
  if (buffer_org == "shared" && shared_reserve > buffer_depth)
    fail("shared_reserve (" + std::to_string(shared_reserve) + ") exceeds buffer_depth (" +
         std::to_string(buffer_depth) + "); the pool holds num_vcs*buffer_depth flits, so the "
         "per-VC reserve cannot exceed the per-VC depth");
  if (buffer_org == "partitioned" && shared_reserve != 1)
    fail("shared_reserve is a shared-organization knob; partitioned buffers ignore it, so it "
         "must stay 1 (got " + std::to_string(shared_reserve) + ")");
  if (flit_width_bits < 1 || link_width_bits < 1)
    fail("flit_width_bits and link_width_bits must be >= 1");
  if (link_width_bits > flit_width_bits)
    fail("link_width_bits (" + std::to_string(link_width_bits) + ") wider than the flit (" +
         std::to_string(flit_width_bits) + "b) — a phit cannot exceed the flit");
  if (packet_length < 1) fail("packet_length must be >= 1 flit");
  if (!(injection_rate >= 0.0) || injection_rate > 1.0)
    fail("injection_rate must be in [0, 1] flits/cycle/port (got " +
         std::to_string(injection_rate) + ")");
  if (router_stages < 3) fail("router_stages must be >= 3 (3-stage pipeline is the minimum)");
  if (measure_cycles == 0) fail("measure_cycles must be > 0 — nothing would be measured");
  if (!(clock_period_s > 0.0)) fail("clock_period_s must be > 0");
  if (!(tech.vdd_v > 0.0)) fail("tech.vdd_v must be > 0");
  if (!(tech.temperature_k > 0.0)) fail("tech.temperature_k must be > 0");
  if (!(tech.vth_nominal_v > 0.0) || tech.vth_nominal_v >= tech.vdd_v)
    fail("tech.vth_nominal_v must be in (0, vdd)");
  if (tech.vth_sigma_v < 0.0) fail("tech.vth_sigma_v must be >= 0");
}

void Scenario::use_paper_scale() {
  // Paper IV-B: 30e6 total cycles; steady state after 6e6 (4-core) or
  // 9e6 (16-core) cycles.
  warmup_cycles = cores() <= 4 ? 6'000'000 : 9'000'000;
  measure_cycles = 30'000'000 - warmup_cycles;
}

std::string Scenario::describe() const {
  std::ostringstream os;
  os << "Scenario: " << name << '\n';
  // The mesh line is byte-identical to the pre-topology output.
  if (topology == "mesh") {
    os << "  topology        : " << mesh_width << "x" << mesh_height << " 2D-mesh (" << cores()
       << " tiles, Tilera-iMesh-style)\n";
  } else if (topology == "torus") {
    os << "  topology        : " << mesh_width << "x" << mesh_height << " 2D-torus (" << cores()
       << " tiles, wrap links, dateline VC classes)\n";
  } else if (topology == "ring") {
    os << "  topology        : " << cores() << "-tile bidirectional ring (row-major over "
       << mesh_width << "x" << mesh_height << ", dateline VC classes)\n";
  } else {
    os << "  topology        : " << mesh_width << "x" << mesh_height << " concentrated mesh ("
       << cores() << " tiles, " << concentration << " NIs/router, "
       << (mesh_width / concentration) << "x" << mesh_height << " routers)\n";
  }
  // The routing line only appears off the default, keeping DOR output
  // byte-identical to the pre-adaptive format.
  if (routing != "dor")
    os << "  routing         : " << routing
       << (routing == "yx" || routing == "xy"
               ? " dimension-order"
               : " turn-model adaptive (escape VC class + least-stressed)")
       << '\n';
  // The buffer line only appears off the default, keeping partitioned
  // output byte-identical to the pre-DAMQ format.
  if (buffer_org != "partitioned")
    os << "  buffers         : shared DAMQ pool, " << num_vcs * num_vnets * buffer_depth
       << " flits/port, " << shared_reserve << " flit(s)/VC reserved\n";
  os
     << "  router          : 3-stage wormhole, " << num_vcs << " VCs/input port, " << buffer_depth
     << " flits/VC, no packet mixing\n"
     << "  flit / link     : " << flit_width_bits << "b flit over " << link_width_bits
     << "b link (" << phits_per_flit() << " phits/flit) @ " << (1.0 / clock_period_s) / 1e9
     << " GHz\n"
     << "  packet length   : " << packet_length << " flits ("
     << packet_length * phits_per_flit() << " phits)\n"
     << "  injection       : " << injection_rate << " flits/cycle/port (synthetic)\n"
     << "  cycles          : " << warmup_cycles << " warmup + " << measure_cycles << " measured\n"
     << "  technology      : " << tech.node_nm << "nm, Vth=" << tech.vth_nominal_v
     << "V (sigma " << tech.vth_sigma_v << "), Vdd=" << tech.vdd_v << "V, T=" << tech.temperature_k
     << "K\n";
  return os.str();
}

Scenario scenario_from_properties(const std::map<std::string, std::string>& props) {
  static const std::set<std::string> known = {
      "name",          "mesh_width",    "mesh_height",     "topology",
      "routing",
      "concentration", "num_vcs",       "num_vnets",       "buffer_depth",
      "buffer_org",    "shared_reserve",
      "flit_width_bits", "link_width_bits", "packet_length", "injection_rate",
      "wakeup_latency", "warmup_cycles", "measure_cycles",  "clock_ghz",
      "technology_nm", "vth_sigma_v",    "temperature_k",   "vdd_v",
      "router_stages"};
  for (const auto& [key, value] : props) {
    if (!known.count(key))
      throw std::invalid_argument("scenario_from_properties: unknown key '" + key + "'");
  }
  // Numbers parse strictly (util::parse_int/parse_double); an int knob
  // must also fit an int, and a cycle count must be >= 0, because Cycle is
  // unsigned and a negative value would silently wrap to ~2^64.
  const std::string where = "scenario_from_properties: ";
  const auto get_int = [&](const char* key, int fallback) {
    const long long v = util::get_int_or(props, key, fallback);
    if (v != static_cast<int>(v)) throw std::invalid_argument(where + key + " does not fit an int");
    return static_cast<int>(v);
  };
  const auto get_cycles = [&](const char* key, Cycle fallback) {
    const long long v = util::get_int_or(props, key, static_cast<long long>(fallback));
    if (v < 0) throw std::invalid_argument(where + key + " must be >= 0");
    return static_cast<Cycle>(v);
  };

  Scenario s;
  const int node = get_int("technology_nm", 45);
  if (node == 32) s.tech = Technology::node_32nm();
  else if (node == 45) s.tech = Technology::node_45nm();
  else throw std::invalid_argument("scenario_from_properties: technology_nm must be 45 or 32");

  s.mesh_width = get_int("mesh_width", s.mesh_width);
  s.mesh_height = get_int("mesh_height", s.mesh_width);
  if (const auto it = props.find("topology"); it != props.end()) s.topology = it->second;
  if (const auto it = props.find("routing"); it != props.end()) s.routing = it->second;
  s.concentration = get_int("concentration", s.concentration);
  s.num_vcs = get_int("num_vcs", s.num_vcs);
  s.num_vnets = get_int("num_vnets", s.num_vnets);
  s.buffer_depth = get_int("buffer_depth", s.buffer_depth);
  if (const auto it = props.find("buffer_org"); it != props.end()) s.buffer_org = it->second;
  s.shared_reserve = get_int("shared_reserve", s.shared_reserve);
  s.flit_width_bits = get_int("flit_width_bits", s.flit_width_bits);
  s.link_width_bits = get_int("link_width_bits", s.link_width_bits);
  s.packet_length = get_int("packet_length", s.packet_length);
  s.injection_rate = util::get_double_or(props, "injection_rate", s.injection_rate);
  s.wakeup_latency = get_cycles("wakeup_latency", 0);
  s.router_stages = get_int("router_stages", s.router_stages);
  s.warmup_cycles = get_cycles("warmup_cycles", s.warmup_cycles);
  s.measure_cycles = get_cycles("measure_cycles", s.measure_cycles);
  const double ghz = util::get_double_or(props, "clock_ghz", 1.0);
  if (ghz <= 0.0) throw std::invalid_argument("scenario_from_properties: clock_ghz must be > 0");
  s.clock_period_s = 1e-9 / ghz;
  s.tech.vth_sigma_v = util::get_double_or(props, "vth_sigma_v", s.tech.vth_sigma_v);
  s.tech.temperature_k = util::get_double_or(props, "temperature_k", s.tech.temperature_k);
  s.tech.vdd_v = util::get_double_or(props, "vdd_v", s.tech.vdd_v);

  const auto name_it = props.find("name");
  if (name_it != props.end()) {
    s.name = name_it->second;
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%dcore-inj%.2f", s.cores(), s.injection_rate);
    s.name = buf;
  }
  s.validate();
  return s;
}

Scenario Scenario::synthetic(int mesh_width, int num_vcs, double injection_rate) {
  Scenario s;
  s.mesh_width = mesh_width;
  s.mesh_height = mesh_width;
  s.num_vcs = num_vcs;
  s.injection_rate = injection_rate;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%dcore-inj%.2f", s.cores(), injection_rate);
  s.name = buf;
  return s;
}

}  // namespace nbtinoc::sim
