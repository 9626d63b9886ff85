#pragma once
// Deterministic dimension-order routing on the 2D mesh (deadlock-free with
// wormhole + credit flow control).

#include "nbtinoc/noc/config.hpp"
#include "nbtinoc/noc/types.hpp"

namespace nbtinoc::noc {

/// Mesh geometry helpers.
Coord coord_of(NodeId id, int width);
NodeId id_of(Coord c, int width);
bool in_mesh(Coord c, int width, int height);
/// Neighbor node in direction d, or kInvalidNode if off-mesh / Local.
NodeId neighbor_of(NodeId id, Dir d, int width, int height);
/// Minimal hop count between two nodes.
int hop_distance(NodeId a, NodeId b, int width);

/// Output port at `current` for a packet headed to `dst` on a `width`-wide
/// grid. kYX resolves Y first, every other mode X first (the adaptive
/// modes' escape class is minimal XY); Local on arrival.
Dir route_compute(NodeId current, NodeId dst, int width, RoutingAlgo routing);

/// route_compute on the config's terminal grid.
inline Dir route_compute(NodeId current, NodeId dst, const NocConfig& config) {
  return route_compute(current, dst, config.width, config.routing);
}

}  // namespace nbtinoc::noc
