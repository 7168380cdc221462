#include "world.hpp"

#include "baselines/placement.hpp"
#include "harness.hpp"
#include "topology/fat_tree.hpp"
#include "util/rng.hpp"

namespace perfbench {

Seeds seeds_of(std::uint64_t seed) { return {seed, seed + 1, seed + 55}; }

std::unique_ptr<topo::Topology> make_topology(const WorldSpec& spec) {
  if (spec.fat_tree) {
    return std::make_unique<topo::FatTree>(topo::FatTreeConfig{.k = spec.k});
  }
  return std::make_unique<topo::CanonicalTree>(spec.canonical);
}

core::ServerCapacity fleet_capacity() {
  core::ServerCapacity cap;
  cap.vm_slots = 16;
  cap.ram_mb = 16 * 256.0;
  cap.cpu_cores = 16.0;
  return cap;
}

std::size_t fleet_vms(const topo::Topology& topology) {
  return topology.num_hosts() * fleet_capacity().vm_slots / 2;
}

traffic::GeneratorConfig fleet_generator(std::size_t num_vms,
                                         std::uint64_t traffic_seed) {
  traffic::GeneratorConfig gen;
  gen.num_vms = num_vms;
  gen.mean_service_size = 24;
  gen.intra_service_degree = 4.0;
  gen.cross_service_prob = 0.3;
  gen.seed = traffic_seed;
  return gen;
}

core::LinkWeights fleet_weights(const topo::Topology& topology) {
  return core::LinkWeights::exponential(topology.max_level());
}

World build_world(const WorldSpec& spec, const Seeds& seeds) {
  World w;
  w.times.topology_s = time_s([&] { w.topology = make_topology(spec); });
  const std::size_t num_vms = fleet_vms(*w.topology);
  w.times.generate_s = time_s([&] {
    w.tm = std::make_unique<traffic::TrafficMatrix>(
        traffic::generate_traffic(fleet_generator(num_vms, seeds.traffic)));
  });
  w.times.place_s = time_s([&] {
    score::util::Rng rng(seeds.placement);
    w.alloc = std::make_unique<core::Allocation>(score::baselines::make_allocation(
        *w.topology, fleet_capacity(), num_vms, core::VmSpec{},
        score::baselines::PlacementStrategy::kRandom, rng));
  });
  w.times.bind_s = time_s([&] {
    core::CachedCostModel model(*w.topology, fleet_weights(*w.topology));
    model.bind(*w.alloc, *w.tm);
  });
  return w;
}

State fresh_state(const World& world) {
  State s;
  s.alloc = std::make_unique<core::Allocation>(*world.alloc);
  s.model = std::make_unique<core::CachedCostModel>(*world.topology,
                                                    fleet_weights(*world.topology));
  s.model->bind(*s.alloc, *world.tm);
  return s;
}

}  // namespace perfbench
