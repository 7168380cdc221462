#include "driver/reoptimize.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/cached_cost_model.hpp"
#include "core/token_policy.hpp"
#include "driver/multi_token.hpp"
#include "driver/simulation.hpp"
#include "util/rng.hpp"

namespace score::driver {

void OptimizerConfig::validate() const {
  if (mode != "centralized" && mode != "distributed") {
    throw std::invalid_argument("mode must be centralized or distributed");
  }
  engine.validate();
}

ConvergenceReport reoptimize(
    const core::CostModel& model, core::Allocation& alloc,
    const traffic::TrafficMatrix& tm, const OptimizerConfig& config,
    std::size_t iterations, const std::vector<std::size_t>& restrict_shards) {
  config.validate();
  if (config.distributed()) {
    if (!restrict_shards.empty()) {
      throw std::logic_error("reoptimize: restricted rounds need centralized");
    }
    hypervisor::RuntimeConfig rcfg = config.runtime;
    rcfg.engine = config.engine;
    rcfg.iterations = iterations;
    hypervisor::DistributedScoreRuntime runtime(model, alloc, tm, rcfg);
    return runtime.run().report();
  }
  MultiTokenConfig mcfg;
  mcfg.tokens = std::max<std::size_t>(1, config.tokens);
  mcfg.iterations = iterations;
  mcfg.policy = config.exec;
  mcfg.restrict_shards = restrict_shards;
  const core::MigrationEngine engine(model, config.engine);
  const SimResult res = MultiTokenSimulation(engine, alloc, tm).run(mcfg);
  ConvergenceReport report = summarize(res);
  for (const MigrationRecord& m : res.migration_log) {
    report.migrated_mb += mcfg.precopy_factor * alloc.spec(m.vm).ram_mb;
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
  core::CachedCostModel model(
      topology, core::LinkWeights::exponential(topology.max_level()));
  model.bind(fresh, tm);
  const core::MigrationEngine engine(model, config.engine);
  core::RoundRobinPolicy rr;
  SimConfig scfg;
  scfg.iterations = config.reopt_iterations;
  return ScoreSimulation(engine, rr, fresh, tm).run(scfg).final_cost;
}

double fresh_ratio(double cost, double fresh_cost, bool fresh_computed) {
  if (fresh_cost > 0.0) return cost / fresh_cost;
  if (fresh_computed && cost > 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace score::driver
