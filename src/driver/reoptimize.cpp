#include "driver/reoptimize.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/token_policy.hpp"
#include "driver/multi_token.hpp"
#include "driver/simulation.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "util/rng.hpp"

namespace score::driver {

void OptimizerConfig::validate() const {
  if (mode != "centralized" && mode != "distributed") {
    throw std::invalid_argument("mode must be centralized or distributed");
  }
  if (reopt_iterations == 0) {
    throw std::invalid_argument("reopt_iterations must be >= 1");
  }
  engine.validate();
}

ConvergenceReport reoptimize(const core::CostModel& model,
                             core::Allocation& alloc,
                             const traffic::TrafficMatrix& tm,
                             const OptimizerConfig& config,
                             std::size_t iterations) {
  config.validate();
  if (config.distributed()) {
    hypervisor::RuntimeConfig rcfg;
    rcfg.policy = config.token_policy;
    rcfg.engine = config.engine;
    rcfg.iterations = iterations;
    rcfg.message_loss_rate = config.message_loss_rate;
    rcfg.migration_budget_mb = config.migration_budget_mb;
    hypervisor::DistributedScoreRuntime runtime(model, alloc, tm, rcfg);
    return runtime.run().report();
  }
  MultiTokenConfig mcfg;
  mcfg.tokens = std::max<std::size_t>(1, config.tokens);
  mcfg.iterations = iterations;
  mcfg.policy = config.exec;
  const core::MigrationEngine engine(model, config.engine);
  const SimResult res = MultiTokenSimulation(engine, alloc, tm).run(mcfg);
  ConvergenceReport report = summarize(res);
  for (const MigrationRecord& m : res.migration_log) {
    report.migrated_mb += kPrecopyFactor * alloc.spec(m.vm).ram_mb;
  }
  return report;
}

double fresh_reference_cost(const topo::Topology& topology,
                            const traffic::TrafficMatrix& tm,
                            const core::ServerCapacity& capacity,
                            const core::VmSpec& vm_spec,
                            baselines::PlacementStrategy placement,
                            std::uint64_t seed, const OptimizerConfig& config) {
  util::Rng rng(seed);
  core::Allocation fresh = baselines::make_allocation(
      topology, capacity, tm.num_vms(), vm_spec, placement, rng);
  const core::CostModel model(
      topology, core::LinkWeights::exponential(topology.max_level()));
  const core::MigrationEngine engine(model, config.engine);
  core::RoundRobinPolicy rr;
  SimConfig scfg;
  scfg.iterations = config.reopt_iterations;
  ScoreSimulation(engine, rr, fresh, tm).run(scfg);
  // The recomputed Eq. (2) total: the driver's running Lemma-3 sum can
  // cancel to a small negative value on a near-zero-cost placement.
  return model.total_cost(fresh, tm);
}

double fresh_ratio(double cost, double fresh_cost, bool fresh_computed) {
  if (fresh_cost > 0.0) return cost / fresh_cost;
  if (fresh_computed && cost > 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace score::driver
