// Continuous-operation workload engine — the paper's §VI-B stability
// argument made a first-class scenario family.
//
// Every other driver in this repo optimises a single frozen traffic matrix
// once. Real datacenters never stand still: hotspots drift across
// measurement epochs (traffic/TrafficDynamics synthesises the
// Kandula'09/Benson'10-style sequences the paper cites) and tenants arrive
// and depart, churning the VM population. This engine advances one *world*
// through both processes and re-runs S-CORE token rounds each epoch, asking
// the paper's steady-state question: does incremental adaptation keep the
// communication cost within a fixed band of what a fresh re-optimisation of
// the same epoch would achieve?
//
// The world is a fixed universe of `GeneratorConfig::num_vms` VMs split into
// fixed tenant blocks of `tenant_vms` consecutive ids. TrafficDynamics
// yields the per-epoch world traffic matrix; the lifecycle stream decides
// which tenants are active. Per epoch the engine
//
//   1. applies the lifecycle events (departures free their slots, arriving
//      tenants are placed all-or-nothing by the configured initial-placement
//      policy; a tenant that does not fit anywhere stays dormant and may
//      retry),
//   2. compacts the active world — ascending world id — into an
//      (Allocation, TrafficMatrix) scenario carrying every surviving VM's
//      placement over from the previous epoch,
//   3. runs token rounds on it through driver/reoptimize: the centralized
//      MultiTokenSimulation (at every token count, under any ExecPolicy) or
//      the message-passing distributed runtime
//      (hypervisor/DistributedScoreRuntime, with its loss / churn /
//      migration-budget machinery),
//   4. re-optimises the *same* active set from a fresh initial placement
//      with the centralized loop run to stability (fresh_reference_cost) —
//      the per-epoch re-optimisation reference — and
//   5. writes the optimised placements back into the world and emits an
//      EpochReport (cost ratio vs. the fresh reference, migrations,
//      modeled pre-copy MB, rounds to re-converge).
//
// Determinism: the lifecycle stream, every placement draw and both
// optimisation modes are seeded, so a fixed config reproduces the event
// timeline and the structural trace hash exactly (tested). A run can be
// exported as a scenario_io v2 WorldScenario — epoch-0 world + realized
// timeline — and replayed: `replay(world)` consumes the recorded timeline
// instead of sampling one, and dump(replay(dump(run))) is byte-identical to
// dump(run).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/placement.hpp"
#include "core/scenario_io.hpp"
#include "driver/reoptimize.hpp"
#include "topology/topology.hpp"
#include "traffic/dynamics.hpp"
#include "traffic/generator.hpp"

namespace score::driver {

struct ContinuousConfig : OptimizerConfig {
  // ---- world + traffic dynamics --------------------------------------------
  /// Defines the world VM universe and the epoch-0 matrix.
  traffic::GeneratorConfig generator;
  /// Epoch-to-epoch evolution (elephant persistence, mice churn, jitter).
  traffic::DynamicsConfig dynamics;
  /// Rate multiplier applied to every epoch matrix (paper intensities:
  /// sparse ×1, medium ×10, dense ×50).
  double intensity_scale = 1.0;

  // ---- lifecycle churn -----------------------------------------------------
  std::size_t epochs = 8;
  /// World VMs per tenant block (the last block may be smaller).
  std::size_t tenant_vms = 8;
  /// Fraction of tenants active at epoch 0 (at least one is always active).
  double initial_active_fraction = 0.75;
  /// Per-epoch probability that a dormant tenant arrives.
  double arrival_prob = 0.25;
  /// Per-epoch probability that an active tenant departs.
  double departure_prob = 0.08;
  std::uint64_t lifecycle_seed = 7;
  /// Initial placement for epoch-0 actives and arriving tenants.
  baselines::PlacementStrategy placement = baselines::PlacementStrategy::kRandom;
  core::ServerCapacity server_capacity;
  core::VmSpec vm_spec;

  // ---- per-epoch optimisation ----------------------------------------------
  /// Token-round budget per epoch (stability may stop a run earlier).
  std::size_t iterations_per_epoch = 4;
};

/// One net placement change of an epoch, in ascending world-VM order — the
/// mode-independent migration log golden traces compare byte for byte.
struct PlacementChange {
  core::VmId world_vm = 0;
  core::ServerId from = core::kInvalidServer;
  core::ServerId to = core::kInvalidServer;

  bool operator==(const PlacementChange&) const = default;
};

/// Steady-state telemetry for one traffic epoch.
struct EpochReport {
  std::size_t epoch = 0;
  std::size_t active_vms = 0;
  std::size_t arrived_vms = 0;   ///< VMs activated this epoch
  std::size_t departed_vms = 0;  ///< VMs deactivated this epoch
  std::size_t rejected_vms = 0;  ///< arrival VMs rejected (tenant did not fit)
  double cost_before = 0.0;      ///< epoch TM, carried placements
  double cost_after = 0.0;       ///< after this epoch's token rounds
  double fresh_cost = 0.0;       ///< fresh re-optimisation reference
  std::size_t migrations = 0;
  double migrated_mb = 0.0;      ///< modeled pre-copy MB
  std::size_t rounds = 0;        ///< token rounds until stable (or the cap)
  /// Net placement diff of the epoch's token rounds (a VM that moved twice
  /// appears once with its final server; ping-pongs cancel out).
  std::vector<PlacementChange> changes;

  /// Steady-state quality: fresh_ratio(cost_after, fresh_cost) (≈1 means
  /// churn tracking matches starting over). An empty epoch computes no
  /// reference, so its ratio is NaN, never a benign 1.0.
  double cost_ratio() const {
    return fresh_ratio(cost_after, fresh_cost, active_vms > 0);
  }
};

struct SteadyStateReport {
  std::string mode;
  std::vector<EpochReport> epochs;
  core::WorldScenario world;  ///< epoch-0 world + realized timeline (v2 dump)
  /// FNV-1a over structural integers only (timeline events, arrival
  /// placements, per-epoch migration diffs) — stable across FP environments.
  std::uint64_t trace_hash = 0;

  std::size_t total_migrations() const;
  double total_migrated_mb() const;
  /// Worst and mean *defined* epoch ratio (+infinity counts as defined);
  /// quiet NaN when no epoch has one. undefined_cost_ratios() counts the
  /// epochs left out.
  double max_cost_ratio() const;
  double mean_cost_ratio() const;
  std::size_t undefined_cost_ratios() const;
};

class ContinuousEngine {
 public:
  /// `topology` must outlive the engine. One server per topology host.
  ContinuousEngine(const topo::Topology& topology, ContinuousConfig config);

  /// Sample the lifecycle stream from the config seeds and run all epochs.
  SteadyStateReport run();

  /// Re-run with the timeline and epoch-0 placements recorded in `world`
  /// instead of sampling them (traffic still comes from the configured
  /// dynamics). Throws std::runtime_error when `world` is inconsistent with
  /// the configured topology or world size.
  SteadyStateReport replay(const core::WorldScenario& world);

  /// Where lifecycle decisions come from: sampled from the config seeds
  /// (run) or read back from a recorded timeline (replay). Implementation
  /// detail, public only so continuous.cpp can subclass it.
  struct LifecycleSource;

 private:
  SteadyStateReport drive(LifecycleSource& source);

  const topo::Topology* topology_;
  ContinuousConfig config_;
};

}  // namespace score::driver
