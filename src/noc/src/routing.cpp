#include "nbtinoc/noc/routing.hpp"

#include <cstdlib>
#include <stdexcept>

namespace nbtinoc::noc {

Coord coord_of(NodeId id, int width) { return Coord{id % width, id / width}; }

NodeId id_of(Coord c, int width) { return c.y * width + c.x; }

bool in_mesh(Coord c, int width, int height) {
  return c.x >= 0 && c.x < width && c.y >= 0 && c.y < height;
}

NodeId neighbor_of(NodeId id, Dir d, int width, int height) {
  if (is_local(d)) return kInvalidNode;
  Coord c = coord_of(id, width);
  switch (d) {
    case Dir::North:
      c.y -= 1;
      break;
    case Dir::South:
      c.y += 1;
      break;
    case Dir::East:
      c.x += 1;
      break;
    case Dir::West:
      c.x -= 1;
      break;
    default:
      return kInvalidNode;
  }
  return in_mesh(c, width, height) ? id_of(c, width) : kInvalidNode;
}

int hop_distance(NodeId a, NodeId b, int width) {
  const Coord ca = coord_of(a, width);
  const Coord cb = coord_of(b, width);
  return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
}

Dir route_compute(NodeId current, NodeId dst, int width, RoutingAlgo routing) {
  const Coord c = coord_of(current, width);
  const Coord d = coord_of(dst, width);
  if (c == d) return Dir::Local;
  if (routing != RoutingAlgo::kYX) {
    if (d.x > c.x) return Dir::East;
    if (d.x < c.x) return Dir::West;
    return d.y > c.y ? Dir::South : Dir::North;
  }
  if (d.y > c.y) return Dir::South;
  if (d.y < c.y) return Dir::North;
  return d.x > c.x ? Dir::East : Dir::West;
}

}  // namespace nbtinoc::noc
