// Shared world construction for the command-line tools and the control-plane
// integration tests.
//
// The multi-process control plane never ships the world over the wire: the
// scheduler and every score_agent daemon build it independently from the
// same flags, and the kHello fingerprint handshake proves they built the
// same one. That only works if the flag -> world mapping lives in exactly
// one place — this header. score_cli, score_scheduler, score_agent and
// test_control_plane all register the same flags with the same defaults and
// run the same construction order (generator, then placement RNG at
// seed + 1), so equal flag lists give bit-identical worlds in any process.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "baselines/placement.hpp"
#include "core/cost_model.hpp"
#include "core/link_weights.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "topology/canonical_tree.hpp"
#include "topology/fat_tree.hpp"
#include "topology/leaf_spine.hpp"
#include "traffic/generator.hpp"
#include "util/exec_policy.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace score::tools {

/// A fully built world plus the runtime config derived from the same flags.
/// Members are pointers because topology/model/tm/alloc have reference
/// semantics between them; the struct owns the whole chain.
struct World {
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<core::CostModel> model;
  std::unique_ptr<traffic::TrafficMatrix> tm;
  std::unique_ptr<core::Allocation> alloc;
  hypervisor::RuntimeConfig runtime;
  std::uint64_t fingerprint = 0;
};

/// Register every world-defining flag (topology, workload, placement, and
/// the protocol-relevant runtime knobs). Defaults match the historical
/// score_cli defaults.
inline void register_world_flags(util::Flags& flags) {
  flags.add_string("topology", "canonical", "canonical | fattree | leafspine");
  flags.add_int("racks", 32, "canonical tree: number of racks");
  flags.add_int("hosts-per-rack", 5, "canonical tree: hosts per rack");
  flags.add_int("racks-per-pod", 4, "canonical tree: racks per aggregation pod");
  flags.add_int("cores", 4, "canonical tree: core switches");
  flags.add_int("k", 8, "fat-tree arity (even)");
  flags.add_int("vms", 320, "fleet size");
  flags.add_int("slots", 4, "VM slots per server");
  flags.add_string("intensity", "sparse", "sparse | medium (x10) | dense (x50)");
  flags.add_int("seed", 42, "workload / placement seed");
  flags.add_string("placement", "random",
                   "initial placement: random | round-robin | packed");
  flags.add_string("policy", "hlf",
                   "token policy: rr | hlf | random | htf (single-token run); "
                   "rr | hlf (distributed runtime)");
  flags.add_int("iterations", 8, "max token-passing iterations");
  flags.add_double("cm", 0.0,
                   "migration cost c_m (cost units, finite, >= 0)");
  flags.add_double("loss", 0.0,
                   "control-message loss rate (distributed mode only)");
  flags.add_double("budget-mb", 0.0,
                   "migration-cost budget: total modeled pre-copy MB "
                   "(0 = unlimited; distributed mode only)");
}

inline std::unique_ptr<topo::Topology> make_topology(const util::Flags& flags) {
  if (flags.get_string("topology") == "fattree") {
    topo::FatTreeConfig cfg;
    cfg.k = flags.get_count("k");
    return std::make_unique<topo::FatTree>(cfg);
  }
  if (flags.get_string("topology") == "leafspine") {
    topo::LeafSpineConfig cfg;
    cfg.leaves = flags.get_count("racks");
    cfg.hosts_per_leaf = flags.get_count("hosts-per-rack");
    cfg.spines = flags.get_count("cores");
    return std::make_unique<topo::LeafSpine>(cfg);
  }
  if (flags.get_string("topology") == "canonical") {
    topo::CanonicalTreeConfig cfg;
    cfg.racks = flags.get_count("racks");
    cfg.hosts_per_rack = flags.get_count("hosts-per-rack");
    cfg.racks_per_pod = flags.get_count("racks-per-pod");
    cfg.cores = flags.get_count("cores");
    return std::make_unique<topo::CanonicalTree>(cfg);
  }
  throw std::invalid_argument(
      "--topology must be canonical, fattree or leafspine");
}

inline traffic::Intensity parse_intensity(const std::string& name) {
  if (name == "sparse") return traffic::Intensity::kSparse;
  if (name == "medium") return traffic::Intensity::kMedium;
  if (name == "dense") return traffic::Intensity::kDense;
  throw std::invalid_argument("--intensity must be sparse, medium or dense");
}

inline baselines::PlacementStrategy parse_placement(const std::string& name) {
  if (name == "random") return baselines::PlacementStrategy::kRandom;
  if (name == "round-robin") return baselines::PlacementStrategy::kRoundRobin;
  if (name == "packed") return baselines::PlacementStrategy::kPacked;
  throw std::invalid_argument(
      "--placement must be random, round-robin or packed");
}

/// Server capacity from --slots: 256 MB of RAM and one core per VM slot.
inline core::ServerCapacity server_capacity(const util::Flags& flags) {
  core::ServerCapacity cap;
  cap.vm_slots = flags.get_count("slots");
  cap.ram_mb = static_cast<double>(cap.vm_slots) * 256.0;
  cap.cpu_cores = static_cast<double>(cap.vm_slots);
  return cap;
}

/// Shard-walk execution policy from --threads (0 = sequential).
inline util::ExecPolicy exec_policy(const util::Flags& flags) {
  const std::size_t threads = flags.get_count("threads");
  return threads > 0 ? util::ExecPolicy::par(threads) : util::ExecPolicy::seq();
}

/// The distributed runtime's token policy for --policy: rr and hlf name
/// their long forms; any other name passes through unchanged, for the
/// runtime to reject.
inline std::string runtime_policy(const util::Flags& flags) {
  const std::string name = flags.get_string("policy");
  if (name == "rr") return "round-robin";
  if (name == "hlf") return "highest-level-first";
  return name;
}

/// Build the world and the distributed runtime config from parsed flags.
inline World build_world(const util::Flags& flags) {
  World w;
  w.topology = make_topology(flags);
  w.model = std::make_unique<core::CostModel>(
      *w.topology, core::LinkWeights::exponential(w.topology->max_level()));

  traffic::GeneratorConfig gen;
  gen.num_vms = flags.get_count("vms");
  gen.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  w.tm = std::make_unique<traffic::TrafficMatrix>(traffic::generate_traffic(
      gen, parse_intensity(flags.get_string("intensity"))));

  util::Rng rng(gen.seed + 1);
  w.alloc = std::make_unique<core::Allocation>(baselines::make_allocation(
      *w.topology, server_capacity(flags), gen.num_vms, core::VmSpec{},
      parse_placement(flags.get_string("placement")), rng));

  w.runtime.policy = runtime_policy(flags);
  w.runtime.engine.migration_cost = flags.get_double("cm");
  w.runtime.iterations = flags.get_count("iterations");
  w.runtime.message_loss_rate = flags.get_double("loss");
  w.runtime.migration_budget_mb = flags.get_double("budget-mb");

  w.fingerprint =
      hypervisor::world_fingerprint(*w.model, *w.alloc, *w.tm, w.runtime);
  return w;
}

}  // namespace score::tools
