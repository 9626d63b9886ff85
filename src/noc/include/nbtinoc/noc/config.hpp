#pragma once
// Static configuration of the simulated on-chip network (Table I).

#include <string>

#include "nbtinoc/noc/types.hpp"
#include "nbtinoc/sim/clock.hpp"

namespace nbtinoc::noc {

/// Routing modes:
///  - kXY / kYX:      deterministic dimension-order routing (DOR), the
///                    paper's baseline; table-driven, single VC class on
///                    meshes.
///  - kWestFirst:     turn-model adaptive routing (mesh only). Packets whose
///                    source and destination share a row or column travel in
///                    the escape class (class 0, pure DOR); all others use
///                    the adaptive class (class 1), where RC picks the
///                    least-stressed admissible output among the turn
///                    model's minimal productive directions — west-first:
///                    a packet with its destination to the west goes West
///                    immediately and exclusively; otherwise East/North/South
///                    are all admissible.
///  - kOddEven:       same scheme with Chiu's odd-even turn rules: EN/ES
///                    turns are prohibited in even columns, NW/SW turns in
///                    odd columns.
/// Both adaptive classes are deadlock-free turn models on their own; keeping
/// escape traffic in a disjoint VC class (no mid-route class switch) makes
/// the union channel-dependency graph two disjoint acyclic graphs.
enum class RoutingAlgo { kXY, kYX, kWestFirst, kOddEven };

/// Parses "dor"/"xy", "yx", "west-first", "odd-even" (case-sensitive);
/// throws std::invalid_argument listing the valid spellings otherwise.
RoutingAlgo parse_routing_algo(const std::string& name);
std::string to_string(RoutingAlgo algo);

/// Network shape (see noc/topology.hpp for the concrete classes):
///  - kMesh2D:           width x height grid, the paper's baseline.
///  - kTorus2D:          mesh plus X/Y wrap links; DOR picks the shorter
///                       way around and a dateline VC-class split keeps the
///                       wrap cycles deadlock-free (needs >= 2 VCs/vnet).
///  - kRing:             all width*height tiles on one bidirectional ring
///                       (row-major order): the torus on a (width*height) x 1
///                       link grid; die positions stay on width x height.
///  - kConcentratedMesh: `concentration` NIs share one router; routers form
///                       a (width/concentration) x height mesh and carry
///                       one local port per attached tile.
enum class TopologyKind { kMesh2D, kTorus2D, kRing, kConcentratedMesh };

/// Parses "mesh" / "torus" / "ring" / "cmesh" (case-sensitive); throws
/// std::invalid_argument listing the valid spellings otherwise.
TopologyKind parse_topology_kind(const std::string& name);
std::string to_string(TopologyKind kind);

/// Per-port buffer organization:
///  - kPartitioned: one statically sized VcBuffer per VC (the paper's
///                  baseline) — gating and stress tracking per VC buffer.
///  - kShared:      one DAMQ-style slot pool per port; VCs are linked-list
///                  descriptors drawing from the pool with a per-VC reserved
///                  minimum (`shared_reserve`, deadlock safety) and a
///                  dynamically shared remainder. Gating and stress tracking
///                  move to physical-slot granularity.
enum class BufferOrg { kPartitioned, kShared };

/// Parses "partitioned" / "shared" (case-sensitive); throws
/// std::invalid_argument listing the valid spellings otherwise.
BufferOrg parse_buffer_org(const std::string& name);
std::string to_string(BufferOrg org);

struct NocConfig {
  int width = 2;          ///< mesh columns
  int height = 2;         ///< mesh rows
  int num_vcs = 4;        ///< VCs per input port *per virtual network*
  int num_vnets = 1;      ///< virtual networks (Table I: 2/6; protocol classes)
  int buffer_depth = 4;   ///< flits per VC buffer
  int packet_length = 4;  ///< flits per packet (head .. tail)
  RoutingAlgo routing = RoutingAlgo::kXY;
  TopologyKind topology = TopologyKind::kMesh2D;
  /// NIs per router; meaningful only for kConcentratedMesh (must then
  /// divide width — tiles concentrate along x), 1 otherwise.
  int concentration = 1;

  /// Buffer organization per input port (see BufferOrg). kShared keeps the
  /// same total buffer area — total_vcs() * buffer_depth slots — but pools
  /// it behind lightweight VC descriptors.
  BufferOrg buffer_org = BufferOrg::kPartitioned;
  /// kShared only: flit slots reserved per VC (>= 1 for deadlock safety;
  /// the escape-VC argument needs every VC to always be able to accept at
  /// least one flit). The remaining pool_slots() - total_vcs()*shared_reserve
  /// slots form the dynamically shared region.
  int shared_reserve = 1;

  /// Physical VC buffers per input port. VC buffer i belongs to virtual
  /// network i / num_vcs; a packet of vnet k may only be allocated VCs in
  /// [k*num_vcs, (k+1)*num_vcs) — the protocol-deadlock isolation vnets
  /// exist for.
  int total_vcs() const { return num_vcs * num_vnets; }
  int vnet_of_vc(int vc) const { return vc / num_vcs; }
  int first_vc_of_vnet(int vnet) const { return vnet * num_vcs; }

  /// Cycles a gated (Recovery) buffer needs after a wake command before it
  /// can accept flits. 0 matches the paper (instant `set_idle`).
  sim::Cycle wakeup_latency = 0;

  /// Extra pipeline stages beyond the paper's 3-stage router (BW/RC | VA+SA
  /// | ST/LT): each extra stage delays a buffered flit's VA/SA eligibility
  /// by one cycle, reproducing deeper (Garnet-classic 4/5-stage) routers.
  /// Buffer residency — and with it the NBTI duty cycle — grows accordingly.
  int extra_pipeline_stages = 0;

  /// Per-hop flit pipeline latency in cycles: BW/RC + VA/SA + ST/LT.
  /// Fixed by the 3-stage router model.
  static constexpr sim::Cycle kHopLatency = 3;

  /// Link/credit in-flight delay in cycles (part of kHopLatency).
  static constexpr sim::Cycle kLinkDelay = 2;
  static constexpr sim::Cycle kCreditDelay = 1;

  /// Terminals (tiles / NIs): always the full width x height grid, on every
  /// topology. Traffic sources and destination patterns live in this space.
  int nodes() const { return width * height; }

  /// Routers: equals nodes() except on the concentrated mesh, where
  /// `concentration` tiles share one router.
  int routers() const {
    return topology == TopologyKind::kConcentratedMesh && concentration > 0
               ? (width / concentration) * height
               : width * height;
  }

  /// Input/output ports per router: 4 cardinal + one local port per
  /// attached NI.
  int ports_per_router() const {
    return kFirstLocalPort +
           (topology == TopologyKind::kConcentratedMesh ? concentration : 1);
  }

  /// True for the turn-model adaptive routing modes (escape + adaptive
  /// VC classes, dynamic RC in the adaptive class).
  bool adaptive_routing() const {
    return routing == RoutingAlgo::kWestFirst || routing == RoutingAlgo::kOddEven;
  }

  /// VC classes per vnet: 2 on wrap-link topologies (torus, ring — the
  /// dateline split) and under adaptive routing (the escape/adaptive
  /// split), 1 otherwise. Class c of vnet k spans the VCs
  /// [first_vc_of_vnet(k) + class_first_vc(c), ... + class_num_vcs(c)).
  int vc_classes() const {
    return topology == TopologyKind::kTorus2D || topology == TopologyKind::kRing ||
                   adaptive_routing()
               ? 2
               : 1;
  }
  /// First VC (local to the vnet's subrange) of dateline class `c`.
  int class_first_vc(int c) const { return c == 0 ? 0 : (num_vcs + 1) / 2; }
  /// VCs of dateline class `c` (class 0 gets the larger half on odd splits;
  /// with a single class it spans the whole vnet).
  int class_num_vcs(int c) const {
    if (vc_classes() == 1) return num_vcs;
    return c == 0 ? (num_vcs + 1) / 2 : num_vcs / 2;
  }

  /// True when the shared (DAMQ) per-port slot pool is selected.
  bool shared_buffers() const { return buffer_org == BufferOrg::kShared; }
  /// Physical flit slots per input port under kShared: same area as the
  /// partitioned bank.
  int pool_slots() const { return total_vcs() * buffer_depth; }
  /// Slots of the pool beyond the per-VC reservations — the dynamically
  /// shared region (and the ceiling on simultaneously gated + waking slots).
  int shared_capacity() const { return pool_slots() - total_vcs() * shared_reserve; }
  /// Gateable/stress-tracked units per input port: physical slots under
  /// kShared, VC buffers under kPartitioned. Sizes tracker banks, sensor
  /// banks and PV sampling.
  int buffers_per_port() const { return shared_buffers() ? pool_slots() : total_vcs(); }

  /// Throws std::invalid_argument if any field is out of range.
  void validate() const;

  std::string describe() const;
};

}  // namespace nbtinoc::noc
