#include "driver/simulation.hpp"

#include <stdexcept>

#include "driver/settled_holds.hpp"

namespace score::driver {

void TokenRoundConfig::validate() const {
  if (iterations < 1) {
    throw std::invalid_argument("TokenRoundConfig: iterations must be >= 1");
  }
}

SimResult ScoreSimulation::run(const SimConfig& config) {
  config.validate();
  const core::CostModel& model = engine_->cost_model();
  const std::size_t num_vms = tm_->num_vms();

  SimResult result;
  result.initial_cost = model.total_cost(*alloc_, *tm_);
  double cost = result.initial_cost;
  result.series.push_back({0.0, cost, 0});

  double now = 0.0;
  VmId holder = policy_->start(num_vms);
  std::size_t iteration_migrations = 0;
  std::size_t iteration_holds = 0;
  std::size_t iteration_evaluations = 0;
  // Every hold is judged against the live allocation, so a commit unsettles
  // exactly its VM and that VM's peers, whatever order the policy holds in.
  SettledHolds settled(num_vms);

  // One token, so holds are serial: each starts when the previous one's
  // busy period and the token's hop to the next holder have elapsed.
  for (;;) {
    policy_->observe(model, *alloc_, *tm_, holder);
    const core::Decision d =
        settled.hold(*engine_, *alloc_, *tm_, holder, iteration_evaluations,
                     "ScoreSimulation", result.iterations.size());

    const double busy = hold_busy_s(alloc_->spec(holder), d.migrate);
    if (d.migrate) {
      result.migration_log.push_back(
          {result.iterations.size(), holder, alloc_->server_of(holder), d.target});
      model.apply_migration(*alloc_, *tm_, holder, d.target);
      settled.unsettle(*tm_, holder);
      cost -= d.delta;  // Lemma 3: the global cost drops by exactly ΔC
      ++result.total_migrations;
      ++iteration_migrations;
      result.series.push_back({now + busy, cost, result.total_migrations});
    }
    ++iteration_holds;

    if (iteration_holds == num_vms) {
      IterationStats it;
      it.holds = iteration_holds;
      it.evaluations = iteration_evaluations;
      it.migrations = iteration_migrations;
      it.migrated_ratio = static_cast<double>(iteration_migrations) /
                          static_cast<double>(iteration_holds);
      it.cost_at_end = cost;
      it.time_at_end_s = now + busy;
      result.iterations.push_back(it);
      const bool stable = config.stop_when_stable && iteration_migrations == 0;
      iteration_holds = 0;
      iteration_evaluations = 0;
      iteration_migrations = 0;
      if (result.iterations.size() >= config.iterations || stable) {
        now += busy;
        break;
      }
    }

    const VmId next = policy_->next(holder);
    const int hops = model.topology().hop_count(alloc_->server_of(holder),
                                                alloc_->server_of(next));
    holder = next;
    now += busy + kTokenPassPerHopS * hops;
  }

  result.final_cost = cost;
  result.duration_s = now;
  if (result.series.back().cost != cost) {
    result.series.push_back({result.duration_s, cost, result.total_migrations});
  }
  return result;
}

ConvergenceReport summarize(const SimResult& result) {
  ConvergenceReport report;
  report.mode = "centralized";
  report.initial_cost = result.initial_cost;
  report.final_cost = result.final_cost;
  report.rounds = result.iterations.size();
  report.migrations = result.total_migrations;
  report.duration_s = result.duration_s;
  return report;
}

}  // namespace score::driver
