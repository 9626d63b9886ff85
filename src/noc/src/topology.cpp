#include "nbtinoc/noc/topology.hpp"

#include <stdexcept>

#include "nbtinoc/noc/fault_routing.hpp"
#include "nbtinoc/noc/routing.hpp"

namespace nbtinoc::noc {

Topology::~Topology() = default;

Topology::Topology(const NocConfig& config) : config_(config) {
  num_terminals_ = config.nodes();
  num_routers_ = config.routers();
  ports_per_router_ = config.ports_per_router();
  concentration_ =
      config.topology == TopologyKind::kConcentratedMesh ? config.concentration : 1;

  // Terminal <-> router mapping. Tiles concentrate along x: terminal
  // (tx, ty) hangs off router (tx / c, ty) at local slot tx % c. With c = 1
  // this is the identity (router id == terminal id, slot 0) on every
  // non-concentrated topology, the ring included (its router index is the
  // row-major terminal index).
  const int c = concentration_;
  router_width_ = config.width / c;
  router_of_terminal_.resize(static_cast<std::size_t>(num_terminals_));
  local_slot_of_terminal_.resize(static_cast<std::size_t>(num_terminals_));
  terminal_of_slot_.assign(static_cast<std::size_t>(num_routers_ * c), kInvalidNode);
  for (NodeId t = 0; t < num_terminals_; ++t) {
    const int tx = t % config.width;
    const int ty = t / config.width;
    const NodeId r = ty * router_width_ + tx / c;
    const int slot = tx % c;
    router_of_terminal_[static_cast<std::size_t>(t)] = r;
    local_slot_of_terminal_[static_cast<std::size_t>(t)] = slot;
    terminal_of_slot_[static_cast<std::size_t>(r * c + slot)] = t;
  }
}

double Topology::norm_x(NodeId router) const {
  return router_width_ > 1
             ? static_cast<double>(coord_of(router, router_width_).x) / (router_width_ - 1)
             : 0.0;
}

double Topology::norm_y(NodeId router) const {
  return config_.height > 1
             ? static_cast<double>(coord_of(router, router_width_).y) / (config_.height - 1)
             : 0.0;
}

void Topology::build_tables() {
  link_dead_.assign(static_cast<std::size_t>(num_routers_ * 4), 0);
  router_dead_.assign(static_cast<std::size_t>(num_routers_), 0);
  neighbors_.resize(static_cast<std::size_t>(num_routers_ * 4));
  for (NodeId r = 0; r < num_routers_; ++r)
    for (int d = 0; d < 4; ++d)
      neighbors_[static_cast<std::size_t>(r * 4 + d)] =
          compute_neighbor(r, static_cast<Dir>(d));

  route_table_.resize(static_cast<std::size_t>(num_routers_) *
                      static_cast<std::size_t>(num_terminals_));
  inject_class_.resize(route_table_.size());
  for (NodeId r = 0; r < num_routers_; ++r) {
    for (NodeId t = 0; t < num_terminals_; ++t) {
      const std::size_t idx = static_cast<std::size_t>(r) *
                                  static_cast<std::size_t>(num_terminals_) +
                              static_cast<std::size_t>(t);
      const Dir port = compute_port(r, t);
      RouteEntry entry;
      entry.port = static_cast<std::int16_t>(port);
      // The entry's class restricts VC allocation at the *downstream* input
      // of `port` — in `port`'s dimension, per Dally-Seitz. The ejection
      // path has no downstream VC buffer.
      entry.vc_class =
          is_local(port)
              ? std::int16_t{0}
              : static_cast<std::int16_t>(compute_vc_class(neighbor(r, port), t, port));
      route_table_[idx] = entry;
      // The class of a VC *at* r itself, in the first hop's dimension —
      // what the NI-side injection uses.
      inject_class_[idx] = static_cast<std::int8_t>(compute_vc_class(r, t, port));
    }
  }
}

bool Topology::kill_link(NodeId router, Dir d) {
  if (router < 0 || router >= num_routers_ || is_local(d))
    throw std::invalid_argument("Topology::kill_link: not a cardinal port of a router");
  const NodeId v = neighbor(router, d);
  if (v == kInvalidNode) return false;               // unwired (mesh edge)
  if (!router_alive(router) || !router_alive(v)) return false;
  const std::size_t fwd = static_cast<std::size_t>(router * 4 + static_cast<int>(d));
  if (link_dead_[fwd] != 0) return false;
  // A failed physical channel takes both wires: the reverse direction is
  // v's opposite(d) port (how the network wires it — correct even on a
  // 2-wide torus where both of v's x-ports face `router`).
  link_dead_[fwd] = 1;
  link_dead_[static_cast<std::size_t>(v * 4 + static_cast<int>(opposite(d)))] = 1;
  regenerate_routes();
  return true;
}

bool Topology::kill_router(NodeId router) {
  if (router < 0 || router >= num_routers_)
    throw std::invalid_argument("Topology::kill_router: router out of range");
  if (!router_alive(router)) return false;
  router_dead_[static_cast<std::size_t>(router)] = 1;
  regenerate_routes();
  return true;
}

bool Topology::fabric_connected() const {
  return degraded_routing_ == nullptr || degraded_routing_->connected();
}

void Topology::regenerate_routes() {
  degraded_ = true;
  std::vector<NodeId> alive_nbr(static_cast<std::size_t>(num_routers_ * 4), kInvalidNode);
  std::vector<std::uint8_t> alive(router_dead_.size());
  for (NodeId r = 0; r < num_routers_; ++r)
    alive[static_cast<std::size_t>(r)] = router_dead_[static_cast<std::size_t>(r)] == 0 ? 1 : 0;
  for (NodeId r = 0; r < num_routers_; ++r)
    for (int p = 0; p < 4; ++p)
      alive_nbr[static_cast<std::size_t>(r * 4 + p)] = alive_neighbor(r, static_cast<Dir>(p));
  degraded_routing_ = std::make_unique<DegradedRouting>(num_routers_, std::move(alive_nbr),
                                                        std::move(alive));
  const DegradedRouting& dr = *degraded_routing_;

  // Up*/down* table: pure down inside the destination's down region,
  // otherwise one legal shortest step (up, or down straight into the
  // region), lowest port on ties. Phase classes on 2-class configs keep the
  // per-class VC halves meaningful: up-phase moves allocate class 0
  // downstream, down-phase moves class 1. Classes do not carry the deadlock
  // argument (the up*/down* rank function is class-independent), so
  // surviving packets with pre-fault dateline classes stay legal.
  const bool two_class = config_.vc_classes() >= 2;
  for (NodeId r = 0; r < num_routers_; ++r) {
    for (NodeId t = 0; t < num_terminals_; ++t) {
      const std::size_t idx = static_cast<std::size_t>(r) *
                                  static_cast<std::size_t>(num_terminals_) +
                              static_cast<std::size_t>(t);
      RouteEntry entry;
      entry.port = RouteEntry::kNoPort;
      entry.vc_class = 0;
      const NodeId d = router_of(t);
      if (router_alive(r) && router_alive(d)) {
        if (r == d) {
          entry.port = static_cast<std::int16_t>(local_port_of(t));
        } else if (dr.dist(r, d) < DegradedRouting::kUnreachable) {
          const bool down_phase = dr.in_down_region(r, d);
          const int goal = (down_phase ? dr.down_dist(r, d) : dr.dist(r, d)) - 1;
          for (int p = 0; p < 4; ++p) {
            const NodeId v = alive_neighbor(r, static_cast<Dir>(p));
            if (v == kInvalidNode) continue;
            const bool step_down = dr.move_is_down(r, v);
            if (down_phase && !step_down) continue;
            const int through = step_down ? dr.down_dist(v, d) : dr.dist(v, d);
            if (through != goal) continue;
            entry.port = static_cast<std::int16_t>(p);
            entry.vc_class = two_class && step_down ? 1 : 0;
            break;
          }
        }
      }
      route_table_[idx] = entry;
      inject_class_[idx] = static_cast<std::int8_t>(entry.reachable() ? entry.vc_class : 0);
    }
  }
}

std::unique_ptr<Topology> Topology::create(const NocConfig& config) {
  switch (config.topology) {
    case TopologyKind::kMesh2D:
    case TopologyKind::kConcentratedMesh:
      return std::make_unique<Mesh2D>(config);
    case TopologyKind::kTorus2D:
      return std::make_unique<Torus2D>(config, config.width, config.height);
    case TopologyKind::kRing:
      // The one-row torus; norm_x/norm_y keep the W x H die layout.
      return std::make_unique<Torus2D>(config, config.width * config.height, 1);
  }
  throw std::invalid_argument("Topology::create: bad TopologyKind");
}

// --- Mesh2D ------------------------------------------------------------------

Mesh2D::Mesh2D(const NocConfig& config) : Topology(config) { build_tables(); }

NodeId Mesh2D::compute_neighbor(NodeId router, Dir d) const {
  return neighbor_of(router, d, router_width_, config_.height);
}

Dir Mesh2D::compute_port(NodeId router, NodeId dst_terminal) const {
  // route_compute()'s DOR on the router grid. At c = 1 the table is a cache
  // of the legacy arithmetic, so the mesh stays bit-identical to the
  // pre-topology simulator; with one VC class, deadlock freedom is the mesh
  // argument at any c.
  const NodeId dst_router = router_of(dst_terminal);
  if (router == dst_router) return local_port_of(dst_terminal);
  return route_compute(router, dst_router, router_width_, config_.routing);
}

int Mesh2D::compute_vc_class(NodeId router, NodeId dst_terminal, Dir link_dir) const {
  (void)link_dir;
  if (!config_.adaptive_routing()) return 0;
  // Turn-model modes: class is fixed at injection — row/column-aligned
  // pairs ride the escape (DOR) class 0, everyone else the adaptive class
  // 1. Escape XY paths are straight lines, so every intermediate router
  // stays aligned with the destination and table entries along them are
  // class 0 throughout; class-1 packets never read the table (dynamic RC).
  const Coord c = coord_of(router, router_width_);
  const Coord d = coord_of(router_of(dst_terminal), router_width_);
  return c.x == d.x || c.y == d.y ? 0 : 1;
}

// --- Torus2D -----------------------------------------------------------------

namespace {
/// Forward (increasing-coordinate, wrapping) distance from a to b mod n.
int wrap_delta(int a, int b, int n) { return (b - a + n) % n; }
/// Shortest-way rule for one torus dimension: go forward (East/South) when
/// the wrapping forward distance is at most half the ring — ties go forward,
/// which keeps the choice deterministic on even sizes.
bool go_forward(int delta, int n) { return 2 * delta <= n; }
}  // namespace

Torus2D::Torus2D(const NocConfig& config, int width, int height)
    : Topology(config), width_(width), height_(height) {
  build_tables();
}

NodeId Torus2D::compute_neighbor(NodeId router, Dir d) const {
  Coord c = coord_of(router, width_);
  switch (d) {
    case Dir::North:
      c.y = (c.y - 1 + height_) % height_;
      break;
    case Dir::South:
      c.y = (c.y + 1) % height_;
      break;
    case Dir::East:
      c.x = (c.x + 1) % width_;
      break;
    case Dir::West:
      c.x = (c.x - 1 + width_) % width_;
      break;
    default:
      return kInvalidNode;
  }
  // A dimension of one router has no wrap link: the ring's N/S ports stay
  // unwired, like mesh edges.
  const NodeId v = id_of(c, width_);
  return v == router ? kInvalidNode : v;
}

Dir Torus2D::compute_port(NodeId router, NodeId dst_terminal) const {
  const Coord c = coord_of(router, width_);
  const Coord d = coord_of(dst_terminal, width_);
  if (c == d) return Dir::Local;
  const auto x_port = [&] {
    const int east = wrap_delta(c.x, d.x, width_);
    return go_forward(east, width_) ? Dir::East : Dir::West;
  };
  const auto y_port = [&] {
    const int south = wrap_delta(c.y, d.y, height_);
    return go_forward(south, height_) ? Dir::South : Dir::North;
  };
  if (config_.routing == RoutingAlgo::kXY) return c.x != d.x ? x_port() : y_port();
  return c.y != d.y ? y_port() : x_port();
}

int Torus2D::compute_vc_class(NodeId router, NodeId dst_terminal, Dir link_dir) const {
  // Per-dimension dateline rule: the class is 0 while the remaining path in
  // *link_dir's* dimension still crosses that dimension's wrap link, 1 once
  // it no longer does — including when that dimension is already done, so a
  // packet turning into Y never occupies a class-0 VC of the X ring it just
  // left (the conflation that would close a dependency cycle). Heading East
  // the path wraps iff x > dst.x, West iff x < dst.x; South iff y > dst.y,
  // North iff y < dst.y.
  const Coord c = coord_of(router, width_);
  const Coord d = coord_of(dst_terminal, width_);
  if (link_dir == Dir::East || link_dir == Dir::West) {
    if (c.x == d.x) return 1;  // x traversal done
    const int east = wrap_delta(c.x, d.x, width_);
    return go_forward(east, width_) ? (c.x > d.x ? 0 : 1) : (c.x < d.x ? 0 : 1);
  }
  if (link_dir == Dir::North || link_dir == Dir::South) {
    if (c.y == d.y) return 1;  // y traversal done
    const int south = wrap_delta(c.y, d.y, height_);
    return go_forward(south, height_) ? (c.y > d.y ? 0 : 1) : (c.y < d.y ? 0 : 1);
  }
  return 1;  // injecting a packet that ejects at its own router
}

}  // namespace nbtinoc::noc
