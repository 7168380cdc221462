// Layered data-center topologies (paper §II, Fig. 1).
//
// The paper assumes three communication layers — Top-of-Rack (level-1 links),
// aggregation (level-2) and core (level-3) — and defines the communication
// level between two hosts as half the hop count along a shortest path:
// 0 = same host, 1 = same rack, 2 = same aggregation pod, 3 = across the core.
//
// Both concrete topologies (CanonicalTree, FatTree) expose:
//   * host → rack → pod structure (drives the cost model),
//   * the full link inventory with per-link layer and capacity, and
//   * shortest-path routing that returns the traversed links so the
//     evaluation can account per-link utilisation (Fig. 4a). Fat-tree routing
//     hashes flows over the multiple equal-cost paths (ECMP), reproducing the
//     path diversity the paper credits for fat-tree's lower reduction ratio.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace score::topo {

using HostId = std::uint32_t;
using LinkId = std::uint32_t;

/// A physical link between two adjacent layers of the tree.
struct Link {
  LinkId id = 0;
  int level = 0;            ///< 1 = host-ToR, 2 = ToR-aggregation, 3 = aggregation-core.
  std::uint32_t node_lo = 0;  ///< Lower-layer endpoint (opaque id, for inspection).
  std::uint32_t node_hi = 0;  ///< Upper-layer endpoint (opaque id, for inspection).
  double capacity_bps = 0.0;
};

/// Abstract layered DC topology. Hosts are 0..num_hosts()-1.
class Topology {
 public:
  virtual ~Topology() = default;

  virtual std::string name() const = 0;

  std::size_t num_hosts() const { return host_rack_.size(); }
  std::size_t num_racks() const { return rack_pod_.size(); }
  std::size_t num_pods() const { return num_pods_; }

  /// Rack (ToR switch) hosting a given server.
  int rack_of(HostId h) const { return host_rack_.at(h); }

  /// Aggregation pod of a given server's rack.
  int pod_of(HostId h) const { return rack_pod_[static_cast<std::size_t>(rack_of(h))]; }

  /// Communication level between two hosts (paper: l(u,v) = h(x,y)/2), one
  /// rule for every topology: 0 same host, 1 same rack, 2 same pod, else
  /// max_level(). The trees cross the core at 3; leaf-spine, where every
  /// leaf is its own pod, crosses the spine at 2.
  int comm_level(HostId a, HostId b) const {
    if (a == b) return 0;
    const int rack_a = rack_of(a);
    const int rack_b = rack_of(b);
    if (rack_a == rack_b) return 1;
    if (rack_pod_[static_cast<std::size_t>(rack_a)] ==
        rack_pod_[static_cast<std::size_t>(rack_b)]) {
      return 2;
    }
    return top_level_;
  }

  /// Number of hops along a shortest path between two hosts.
  int hop_count(HostId a, HostId b) const { return 2 * comm_level(a, b); }

  /// Highest communication level possible: the level of two hosts in
  /// different pods (3 for three-tier trees, 2 for leaf-spine).
  int max_level() const { return top_level_; }

  /// Full link inventory, indexed by LinkId.
  const std::vector<Link>& links() const { return links_; }

  /// Shortest path between hosts as the sequence of traversed links.
  /// `flow_hash` selects among equal-cost paths where the topology offers
  /// path diversity; the same hash always yields the same path (per-flow
  /// ECMP). Returns an empty path when a == b.
  virtual std::vector<LinkId> route(HostId a, HostId b, std::uint64_t flow_hash) const = 0;

 protected:
  LinkId add_link(int level, std::uint32_t lo, std::uint32_t hi, double capacity_bps) {
    Link l;
    l.id = static_cast<LinkId>(links_.size());
    l.level = level;
    l.node_lo = lo;
    l.node_hi = hi;
    l.capacity_bps = capacity_bps;
    links_.push_back(l);
    return l.id;
  }

  std::vector<int> host_rack_;   ///< host -> rack index
  std::vector<int> rack_pod_;    ///< rack -> pod index
  std::size_t num_pods_ = 0;
  int top_level_ = 3;  ///< comm_level of two hosts in different pods
  std::vector<Link> links_;
};

}  // namespace score::topo
