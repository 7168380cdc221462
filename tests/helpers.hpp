// Shared fixtures for the test suites: small topologies, random traffic
// matrices and random feasible allocations.
#pragma once

#include <memory>
#include <utility>

#include "baselines/placement.hpp"
#include "core/cost_model.hpp"
#include "core/migration_engine.hpp"
#include "topology/canonical_tree.hpp"
#include "topology/fat_tree.hpp"
#include "traffic/generator.hpp"
#include "util/rng.hpp"

namespace score::testing {

inline topo::CanonicalTreeConfig tiny_tree_config() {
  topo::CanonicalTreeConfig cfg;
  cfg.racks = 8;
  cfg.hosts_per_rack = 4;
  cfg.racks_per_pod = 2;
  cfg.cores = 2;
  return cfg;
}

/// Random TM over `num_vms` VMs where every VM gets ~degree random peers.
inline traffic::TrafficMatrix random_tm(std::size_t num_vms, double degree,
                                        util::Rng& rng) {
  traffic::FlowDeltaBatch flows;
  for (traffic::VmId u = 0; u < num_vms; ++u) {
    for (int d = 0; d < static_cast<int>(degree); ++d) {
      auto v = static_cast<traffic::VmId>(rng.index(num_vms));
      if (v == u) continue;
      flows.push(u, v, rng.uniform(0.1, 100.0));
    }
  }
  return traffic::TrafficMatrix(num_vms, std::move(flows));
}

/// Random feasible allocation of `num_vms` identical VMs over the topology.
inline core::Allocation random_allocation(const topo::Topology& topology,
                                          std::size_t num_vms, util::Rng& rng,
                                          std::size_t slots_per_server = 4) {
  core::ServerCapacity cap;
  cap.vm_slots = slots_per_server;
  cap.ram_mb = 256.0 * static_cast<double>(slots_per_server);
  cap.cpu_cores = static_cast<double>(slots_per_server);
  core::VmSpec spec;
  spec.ram_mb = 196.0;
  spec.cpu_cores = 1.0;
  return baselines::make_allocation(topology, cap, num_vms, spec,
                                    baselines::PlacementStrategy::kRandom, rng);
}

/// Four-slot servers at ~60% occupancy by two VM shapes, so some candidates
/// lack a free slot, RAM, CPU or NIC bandwidth.
inline core::Allocation mixed_allocation(const topo::Topology& topology,
                                         std::size_t num_vms, util::Rng& rng) {
  core::ServerCapacity cap;
  cap.vm_slots = 4;
  cap.ram_mb = 1024.0;
  cap.cpu_cores = 4.0;
  cap.net_bps = 1e9;
  core::VmSpec small;
  small.ram_mb = 196.0;
  small.cpu_cores = 1.0;
  small.net_bps = 0.1e9;
  core::VmSpec large;
  large.ram_mb = 400.0;
  large.cpu_cores = 2.0;
  large.net_bps = 0.35e9;
  core::Allocation alloc(topology.num_hosts(), cap);
  for (std::size_t i = 0; i < num_vms; ++i) {
    const core::VmSpec& spec = rng.index(3) == 0 ? large : small;
    core::ServerId host = 0;
    do {
      host = static_cast<core::ServerId>(rng.index(topology.num_hosts()));
    } while (!alloc.can_host(host, spec));
    alloc.add_vm(spec, host);
  }
  return alloc;
}

}  // namespace score::testing
