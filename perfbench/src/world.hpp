// Seeded world construction through the libraries' public API: topology,
// traffic matrix, initial placement and the bound cost cache, each step
// timed on its own (the set-up layers of the per-layer trace).
#pragma once

#include <cstdint>
#include <memory>

#include "core/allocation.hpp"
#include "core/cached_cost_model.hpp"
#include "topology/canonical_tree.hpp"
#include "topology/topology.hpp"
#include "traffic/generator.hpp"
#include "traffic/traffic_matrix.hpp"

namespace perfbench {

namespace core = score::core;
namespace topo = score::topo;
namespace traffic = score::traffic;

/// Input seeds derived from --seed: traffic s, placement s+1, events s+55,
/// so --seed 42 reproduces the repository's reference world (42/43/97).
struct Seeds {
  std::uint64_t traffic;
  std::uint64_t placement;
  std::uint64_t events;
};
Seeds seeds_of(std::uint64_t seed);

struct WorldSpec {
  bool fat_tree = true;
  std::size_t k = 16;                   ///< fat-tree arity
  topo::CanonicalTreeConfig canonical;  ///< when !fat_tree
};

std::unique_ptr<topo::Topology> make_topology(const WorldSpec& spec);

/// The paper's §VI fleet (as in the repository's bench suites): 16 VM slots
/// per host at 50% occupancy, service-clustered traffic.
core::ServerCapacity fleet_capacity();
std::size_t fleet_vms(const topo::Topology& topology);
traffic::GeneratorConfig fleet_generator(std::size_t num_vms,
                                         std::uint64_t traffic_seed);
core::LinkWeights fleet_weights(const topo::Topology& topology);
/// Token count of every multi-token run (and shard count of the oracle).
constexpr std::size_t kTokens = 4;

struct SetupTimes {
  double topology_s = 0.0;
  double generate_s = 0.0;
  double place_s = 0.0;
  double bind_s = 0.0;
  double total() const { return topology_s + generate_s + place_s + bind_s; }
};

/// One built world: topology, traffic and initial placement.
struct World {
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<traffic::TrafficMatrix> tm;
  std::unique_ptr<core::Allocation> alloc;
  SetupTimes times;

  std::size_t num_vms() const { return alloc->num_vms(); }
};

/// Topology, traffic (seeds.traffic), random placement (seeds.placement) and
/// the bind of a CachedCostModel to the pair, each step timed.
World build_world(const WorldSpec& spec, const Seeds& seeds);

/// What one execution optimises: a copy of a world's initial placement and a
/// cache bound to it and the world's (read-only) matrix. Executions of the
/// same world then share its traffic instead of regenerating it.
struct State {
  std::unique_ptr<core::Allocation> alloc;
  std::unique_ptr<core::CachedCostModel> model;
};
State fresh_state(const World& world);

}  // namespace perfbench
