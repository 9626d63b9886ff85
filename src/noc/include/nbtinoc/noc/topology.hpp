#pragma once
// Pluggable topology layer: node/port enumeration, neighbor maps, and the
// precomputed route table the routers' RC stage reads.
//
// Two id spaces. *Terminals* are the width x height tile grid — the space
// traffic sources, destination patterns, and Flit::src/dst live in, on every
// topology. *Routers* are the switch fabric; equal to terminals except on
// the concentrated mesh, where `concentration` adjacent tiles of a row
// share one router and reach it through per-tile local ports
// (Dir::Local, Local+1, ...).
//
// The route table is a flat routers x terminals array of RouteEntry, built
// once at construction: the hot path (Router::accept_arrivals) replaces the
// old per-flit route_compute() arithmetic with one indexed load. Each entry
// carries the output port at this router *and* the dateline VC class the
// packet must be allocated at the downstream input — the torus
// deadlock-avoidance scheme, which the ring shares by being the one-row
// torus:
//
//   Each dimension has its own dateline, and a VC's class refers to the
//   dimension of the link it terminates (Dally-Seitz): a packet is class 0
//   while its remaining path in *that* dimension still crosses the wrap
//   link, class 1 once it no longer does (heading East: class 0 iff
//   x > dst.x), and always class 1 once that dimension is done — a turning
//   packet never occupies a class-0 VC of the dimension it just finished.
//   Within a dimension, class-1 chains never use the wrap link and are
//   ordered by coordinate, class-0 chains cross into class 1 at the wrap,
//   and dimension turns only go one way (X to Y under XY routing). The
//   channel-dependency graph is therefore acyclic — proven structurally by
//   TopologyTest.ChannelDependencyGraphIsAcyclic.
//
// Each vnet's VC subrange is split into per-class halves
// (NocConfig::class_first_vc/class_num_vcs); with one class (mesh, cmesh)
// the "split" spans the whole vnet and every code path reduces to the
// pre-topology behavior bit for bit.

#include <memory>
#include <string>
#include <vector>

#include "nbtinoc/noc/config.hpp"
#include "nbtinoc/noc/types.hpp"

namespace nbtinoc::noc {

/// One route-table cell: output port at this router for a destination
/// terminal, plus the dateline class for the VC the packet will occupy at
/// the *downstream* input of that port (0 when the port is local — the
/// ejection path has no downstream VC).
struct RouteEntry {
  std::int16_t port = 0;      ///< Dir, as int (may be a local port >= kFirstLocalPort)
  std::int16_t vc_class = 0;  ///< dateline class at the downstream input
  /// Sentinel port for "no surviving path" (dead destination or
  /// disconnected fabric). Healthy tables never contain it.
  static constexpr std::int16_t kNoPort = -1;
  bool reachable() const { return port >= 0; }
  Dir dir() const { return static_cast<Dir>(port); }
};

class DegradedRouting;

class Topology {
 public:
  /// Builds the topology (and its route table) for a validated config.
  static std::unique_ptr<Topology> create(const NocConfig& config);

  virtual ~Topology();  // out of line: DegradedRouting is incomplete here
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  TopologyKind kind() const { return config_.topology; }
  std::string name() const { return to_string(config_.topology); }
  const NocConfig& config() const { return config_; }

  int num_routers() const { return num_routers_; }
  int num_terminals() const { return num_terminals_; }
  int ports_per_router() const { return ports_per_router_; }
  /// Dateline VC classes per vnet (1 = no restriction, the mesh case).
  int num_vc_classes() const { return config_.vc_classes(); }

  // --- terminal <-> router mapping ------------------------------------------
  NodeId router_of(NodeId terminal) const {
    return router_of_terminal_[static_cast<std::size_t>(terminal)];
  }
  int local_slot_of(NodeId terminal) const {
    return local_slot_of_terminal_[static_cast<std::size_t>(terminal)];
  }
  Dir local_port_of(NodeId terminal) const { return local_port(local_slot_of(terminal)); }
  NodeId terminal_of(NodeId router, int slot) const {
    return terminal_of_slot_[static_cast<std::size_t>(router * concentration_ + slot)];
  }

  // --- neighbor map ----------------------------------------------------------
  /// Adjacent router out of cardinal port `d`, or kInvalidNode where the
  /// port is unwired (mesh edges, the ring's N/S ports, local ports).
  NodeId neighbor(NodeId router, Dir d) const {
    return is_local(d) ? kInvalidNode
                       : neighbors_[static_cast<std::size_t>(router * 4 + static_cast<int>(d))];
  }

  // --- route table (the RC hot path) ----------------------------------------
  /// Output port + downstream VC class at `router` for a packet headed to
  /// terminal `dst`. One flat-array load; allocation- and branch-free.
  RouteEntry route(NodeId router, NodeId dst_terminal) const {
    return route_table_[static_cast<std::size_t>(router) *
                            static_cast<std::size_t>(num_terminals_) +
                        static_cast<std::size_t>(dst_terminal)];
  }

  /// Dateline class for the VC a packet from terminal `src` to terminal
  /// `dst` occupies at its injection router's local input (the NI-side VA
  /// restriction). Always 0 on single-class topologies.
  int inject_class(NodeId src_terminal, NodeId dst_terminal) const {
    return inject_class_[static_cast<std::size_t>(router_of(src_terminal)) *
                             static_cast<std::size_t>(num_terminals_) +
                         static_cast<std::size_t>(dst_terminal)];
  }

  // --- structural degradation (see noc/fault_routing.hpp) --------------------
  /// True once any kill_link/kill_router has landed: the route tables were
  /// regenerated with up*/down* routing over the survivor graph and entries
  /// may be unreachable.
  bool degraded() const { return degraded_; }
  bool router_alive(NodeId r) const {
    return router_dead_.empty() || router_dead_[static_cast<std::size_t>(r)] == 0;
  }
  bool terminal_alive(NodeId t) const { return router_alive(router_of(t)); }
  /// neighbor(), but kInvalidNode when the link or either endpoint is dead.
  NodeId alive_neighbor(NodeId router, Dir d) const {
    const NodeId v = neighbor(router, d);
    if (v == kInvalidNode || !degraded_) return v;
    if (link_dead_[static_cast<std::size_t>(router * 4 + static_cast<int>(d))] != 0) {
      return kInvalidNode;
    }
    return router_alive(router) && router_alive(v) ? v : kInvalidNode;
  }
  bool link_alive(NodeId router, Dir d) const { return alive_neighbor(router, d) != kInvalidNode; }

  /// Permanently kills the bidirectional link out of `router` via `d` (the
  /// reverse direction dies with it) and regenerates the route tables.
  /// Returns false (and changes nothing) when the link is unwired or its
  /// traffic was already dead.
  bool kill_link(NodeId router, Dir d);
  /// Permanently kills a router — all its links plus its local terminals —
  /// and regenerates. Returns false when already dead.
  bool kill_router(NodeId router);

  /// True while every alive router remains in one connected component.
  bool fabric_connected() const;
  /// The up*/down* state backing the regenerated tables; null until the
  /// first kill.
  const DegradedRouting* degraded_routing() const { return degraded_routing_.get(); }

  /// Die position of a router, normalized to [0,1] per axis — the process-
  /// variation gradient coordinates. Every fabric lays its routers out
  /// row-major on the (width/concentration) x height router grid (the ring
  /// included: only its links run on another grid), so this is
  /// x/(columns-1), y/(height-1) there, and 0 on an axis with one router.
  double norm_x(NodeId router) const;
  double norm_y(NodeId router) const;

 protected:
  explicit Topology(const NocConfig& config);

  /// Concrete topologies answer the three geometry questions; the base
  /// class turns them into the flat neighbor / route / class tables.
  virtual NodeId compute_neighbor(NodeId router, Dir d) const = 0;
  /// Output port at `router` toward terminal `dst` (a local port when the
  /// destination terminal hangs off this router).
  virtual Dir compute_port(NodeId router, NodeId dst_terminal) const = 0;
  /// Dateline class of a VC *at* `router` holding a packet to `dst` that
  /// travels over a link in `link_dir`'s dimension — the incoming link for
  /// route-table entries, the first outgoing link for injection classes.
  /// Single-class topologies return 0.
  virtual int compute_vc_class(NodeId router, NodeId dst_terminal, Dir link_dir) const = 0;

  /// Fills every table from the compute_* answers. Called once by each
  /// concrete constructor (the virtuals are unusable during base
  /// construction).
  void build_tables();

  NocConfig config_;
  int num_routers_ = 0;
  int num_terminals_ = 0;
  int ports_per_router_ = 0;
  int concentration_ = 1;
  int router_width_ = 1;  ///< router-grid columns: width / concentration

 private:
  /// Rebuilds route_table_/inject_class_ with up*/down* routing over the
  /// survivor graph after a kill (phase classes on 2-class configs:
  /// up-phase moves class 0, down-phase moves class 1).
  void regenerate_routes();

  std::vector<NodeId> neighbors_;             ///< routers x 4
  std::vector<RouteEntry> route_table_;       ///< routers x terminals
  std::vector<std::int8_t> inject_class_;     ///< routers x terminals
  std::vector<std::uint8_t> link_dead_;       ///< routers x 4 (directed; killed in pairs)
  std::vector<std::uint8_t> router_dead_;     ///< routers
  bool degraded_ = false;
  std::unique_ptr<DegradedRouting> degraded_routing_;
  std::vector<NodeId> router_of_terminal_;    ///< terminals
  std::vector<int> local_slot_of_terminal_;   ///< terminals
  std::vector<NodeId> terminal_of_slot_;      ///< routers x concentration
};

/// The paper's width x height grid; XY/YX dimension-order routing. With
/// concentration c > 1 (cmesh) the routers form a (width/c) x height grid
/// and carry one local port per tile: terminal (tx, ty) hangs off router
/// (tx / c, ty) at slot tx % c. At c = 1 the route table reproduces
/// routing.hpp's route_compute() exactly (asserted by
/// TopologyTest.MeshTableMatchesArithmetic).
class Mesh2D final : public Topology {
 public:
  explicit Mesh2D(const NocConfig& config);

 protected:
  NodeId compute_neighbor(NodeId router, Dir d) const override;
  Dir compute_port(NodeId router, NodeId dst_terminal) const override;
  /// Escape/adaptive split under the turn-model modes (mesh only, per
  /// NocConfig::validate): packets whose source and destination share a
  /// row or column ride the escape class (their XY path is a straight
  /// line, so the alignment predicate is invariant along it); everyone else
  /// gets the adaptive class. 0 under plain DOR.
  int compute_vc_class(NodeId router, NodeId dst_terminal, Dir link_dir) const override;
};

/// Mesh plus wrap links in both dimensions of a `width` x `height` link
/// grid; DOR takes the shorter way around each dimension (ties go
/// East/South) with dateline classes. A dimension of one router gets no wrap
/// link. Topology::create builds "torus" on the tile grid and "ring" on the
/// (width*height) x 1 grid: all tiles on one bidirectional ring in
/// row-major order, N/S ports unwired, YX routing moot.
class Torus2D final : public Topology {
 public:
  Torus2D(const NocConfig& config, int width, int height);

 protected:
  NodeId compute_neighbor(NodeId router, Dir d) const override;
  Dir compute_port(NodeId router, NodeId dst_terminal) const override;
  int compute_vc_class(NodeId router, NodeId dst_terminal, Dir link_dir) const override;

 private:
  int width_;   ///< link-grid columns
  int height_;  ///< link-grid rows
};

}  // namespace nbtinoc::noc
