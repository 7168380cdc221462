// Two-tier leaf-spine topology — a third architecture exercising the paper's
// claim that S-CORE is "equally applicable to diverse DC network
// architectures" (§VIII) and that link-weight assignment is operator policy.
//
// Every leaf (ToR) switch connects to every spine switch; there is no
// aggregation tier and no core tier. Communication levels flatten to:
// 0 same host, 1 same leaf (rack), 2 across the spine. Per-flow ECMP picks
// the spine. Use LinkWeights with two levels (e.g. exponential(2)) for this
// topology.
#pragma once

#include "topology/topology.hpp"

namespace score::topo {

struct LeafSpineConfig {
  std::size_t leaves = 16;
  std::size_t hosts_per_leaf = 8;
  std::size_t spines = 4;
  double host_link_bps = 1e9;
  double leaf_spine_bps = 10e9;
};

class LeafSpine final : public Topology {
 public:
  explicit LeafSpine(const LeafSpineConfig& config = {});

  std::string name() const override { return "leaf-spine"; }

  const LeafSpineConfig& config() const { return config_; }
  std::size_t num_spines() const { return config_.spines; }

  std::vector<LinkId> route(HostId a, HostId b, std::uint64_t flow_hash) const override;

  LinkId host_uplink(HostId h) const { return host_uplink_.at(h); }
  /// Level-2 link between a leaf and a spine.
  LinkId leaf_spine_link(std::size_t leaf, std::size_t spine) const {
    return leaf_spine_link_.at(leaf * config_.spines + spine);
  }

 private:
  LeafSpineConfig config_;
  std::vector<LinkId> host_uplink_;
  std::vector<LinkId> leaf_spine_link_;  ///< leaf-major [leaf][spine].
};

}  // namespace score::topo
