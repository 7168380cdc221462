// The fully distributed S-CORE deployment (paper §V), end to end.
//
// Unlike the other examples, nothing here is evaluated centrally: per-host
// dom0 agents exchange token / location-request / capacity-request messages
// over the simulated fabric, measure traffic through their own flow tables,
// and migrate VMs on Theorem-1 decisions computed from probed state only.
// The run prints the control-plane footprint (the paper's scalability
// argument: one O(|V|) token plus per-hold probes bounded by the neighbour
// count) next to the achieved cost reduction.
//
// Run:  ./distributed_control_plane
#include <cstdio>

#include "baselines/placement.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "hypervisor/ipam.hpp"
#include "hypervisor/token_codec.hpp"
#include "topology/canonical_tree.hpp"
#include "traffic/generator.hpp"

int main() {
  using namespace score;

  topo::CanonicalTreeConfig tcfg;
  tcfg.racks = 16;
  tcfg.hosts_per_rack = 5;
  tcfg.racks_per_pod = 4;
  tcfg.cores = 2;
  topo::CanonicalTree topology(tcfg);

  traffic::GeneratorConfig gcfg;
  gcfg.num_vms = 200;
  gcfg.seed = 21;
  traffic::TrafficMatrix tm = traffic::generate_traffic(gcfg);

  core::ServerCapacity cap;
  cap.vm_slots = 4;
  cap.ram_mb = 1024.0;
  cap.cpu_cores = 4.0;
  util::Rng rng(2);
  core::Allocation alloc = baselines::make_allocation(
      topology, cap, gcfg.num_vms, core::VmSpec{},
      baselines::PlacementStrategy::kRandom, rng);

  core::CostModel model(topology, core::LinkWeights::exponential(3));

  // Show the addressing scheme agents rely on (§IV rack subnets).
  hypervisor::Ipam ipam(topology);
  std::printf("dom0 addressing: host 0 = %s, host 79 = %s (rack %d)\n",
              hypervisor::format_ipv4(ipam.host_address(0)).c_str(),
              hypervisor::format_ipv4(ipam.host_address(79)).c_str(),
              topology.rack_of(79));

  hypervisor::RuntimeConfig rcfg;
  rcfg.policy = "highest-level-first";
  rcfg.iterations = 6;
  hypervisor::DistributedScoreRuntime runtime(model, alloc, tm, rcfg);
  const hypervisor::RuntimeResult res = runtime.run();

  std::printf("\ndistributed S-CORE over %zu hosts, %zu VMs:\n",
              topology.num_hosts(), tm.num_vms());
  std::printf("  cost            : %.3e -> %.3e (%.1f%% reduction)\n",
              res.initial_cost, res.final_cost, 100.0 * res.reduction());
  std::printf("  migrations      : %zu\n", res.total_migrations);
  std::printf("  iterations      : %zu\n", res.iterations.size());
  std::printf("  simulated time  : %.1f s\n", res.duration_s);
  std::printf("\ncontrol-plane footprint:\n");
  std::printf("  token messages    : %llu (one per hold; token = %zu bytes)\n",
              static_cast<unsigned long long>(res.token_messages),
              hypervisor::token_frame_bytes(tm.num_vms()));
  std::printf("  location messages : %llu (request+response per peer probe)\n",
              static_cast<unsigned long long>(res.location_messages));
  std::printf(
      "  capacity messages : %llu (request+response per candidate above c_m)\n",
      static_cast<unsigned long long>(res.capacity_messages));
  std::printf("  control bytes     : %llu (%.1f KB per iteration)\n",
              static_cast<unsigned long long>(res.control_bytes),
              static_cast<double>(res.control_bytes) /
                  static_cast<double>(res.iterations.size()) / 1024.0);

  std::printf("\nper-iteration migrated ratio (Fig. 2 shape):");
  for (const auto& it : res.iterations) std::printf(" %.3f", it.migrated_ratio);
  std::printf("\n");
  return 0;
}
