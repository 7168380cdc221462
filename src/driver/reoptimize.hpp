// The one re-optimisation seam of the streaming and continuous engines: both
// re-run S-CORE's token loop (in shared memory or by dom0 agents, §V) on a
// live (Allocation, TrafficMatrix) pair and score the result against a fresh
// placement re-optimised from scratch. The one-shot runs in score_cli and
// bench_runner call the drivers directly to print per-driver detail.
#pragma once

#include <cstdint>
#include <string>

#include "baselines/placement.hpp"
#include "core/cost_model.hpp"
#include "core/migration_engine.hpp"
#include "driver/convergence.hpp"
#include "topology/topology.hpp"
#include "traffic/traffic_matrix.hpp"
#include "util/exec_policy.hpp"

namespace score::driver {

/// Optimiser settings, declared once: both engine configs inherit them.
struct OptimizerConfig {
  /// "centralized" (shared-memory token loop) or "distributed"
  /// (message-passing dom0 runtime).
  std::string mode = "centralized";
  /// Centralized mode: token count of the MultiTokenSimulation that runs
  /// every centralized re-optimisation (1 = one Round-Robin token).
  std::size_t tokens = 1;
  /// Centralized mode: where shard walks run (results are identical).
  util::ExecPolicy exec = util::ExecPolicy::seq();
  core::EngineConfig engine;
  /// Distributed mode: the runtime's token policy, control-message loss rate
  /// and migration-MB budget (the hypervisor::RuntimeConfig fields of the
  /// same meaning); reoptimize() leaves every other runtime setting at its
  /// default. The centralized path and the fresh reference always visit VMs
  /// in Round-Robin order.
  std::string token_policy = "round-robin";
  double message_loss_rate = 0.0;
  double migration_budget_mb = 0.0;
  /// Iteration cap of the fresh reference (run to stability; the cap only
  /// bounds pathological cases).
  std::size_t reopt_iterations = 12;

  /// Throws std::invalid_argument unless `mode` names one of the two modes,
  /// `reopt_iterations` >= 1 and `engine` passes EngineConfig::validate.
  void validate() const;
  bool distributed() const { return mode == "distributed"; }
};

/// At most `iterations` token rounds on the live state (fewer once a round
/// commits nothing) through MultiTokenSimulation (centralized, any token
/// count) or DistributedScoreRuntime (a RuntimeConfig built from `engine`,
/// `iterations` and the three distributed-mode settings). A caching `model`
/// must be bound to (alloc, tm).
ConvergenceReport reoptimize(const core::CostModel& model,
                             core::Allocation& alloc,
                             const traffic::TrafficMatrix& tm,
                             const OptimizerConfig& config,
                             std::size_t iterations);

/// What starting over on `tm` would achieve: a fresh `placement` drawn from
/// `seed`, re-optimised by the single-token Round-Robin loop to stability
/// (at most config.reopt_iterations rounds) whatever config.mode is.
double fresh_reference_cost(const topo::Topology& topology,
                            const traffic::TrafficMatrix& tm,
                            const core::ServerCapacity& capacity,
                            const core::VmSpec& vm_spec,
                            baselines::PlacementStrategy placement,
                            std::uint64_t seed, const OptimizerConfig& config);

/// Steady-state quality against a fresh reference (≈1 is the paper's band):
/// cost / fresh_cost for a positive reference; +infinity when a computed
/// reference is zero but the cost is not; quiet NaN when undefined (nothing
/// computed, or both zero). Never a benign 1.0.
double fresh_ratio(double cost, double fresh_cost, bool fresh_computed);

}  // namespace score::driver
