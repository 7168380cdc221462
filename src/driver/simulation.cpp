#include "driver/simulation.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "driver/settled_holds.hpp"

namespace score::driver {

namespace {

void require(bool ok, const char* field, const char* rule) {
  if (!ok) {
    throw std::invalid_argument(std::string("TokenRoundConfig: ") + field +
                                " must be " + rule);
  }
}

}  // namespace

void TokenRoundConfig::validate() const {
  const auto non_negative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  require(non_negative(token_hold_s), "token_hold_s", "finite and >= 0");
  require(non_negative(token_pass_per_hop_s), "token_pass_per_hop_s",
          "finite and >= 0");
  require(std::isfinite(migration_bandwidth_bps) && migration_bandwidth_bps > 0.0,
          "migration_bandwidth_bps", "finite and > 0");
  require(non_negative(precopy_factor), "precopy_factor", "finite and >= 0");
  require(non_negative(migration_overhead_s), "migration_overhead_s",
          "finite and >= 0");
}

SimResult ScoreSimulation::run(const SimConfig& config) {
  config.validate();
  const core::CostModel& model = engine_->cost_model();
  const std::size_t num_vms = tm_->num_vms();

  SimResult result;
  result.initial_cost = model.total_cost(*alloc_, *tm_);
  double cost = result.initial_cost;
  result.series.push_back({0.0, cost, 0});

  sim::EventQueue queue;
  VmId holder = policy_->start(num_vms);
  std::size_t holds_done = 0;
  std::size_t iteration_migrations = 0;
  std::size_t iteration_holds = 0;
  std::size_t iteration_evaluations = 0;
  bool stopped = false;
  // Every hold is judged against the live allocation, so a commit unsettles
  // exactly its VM and that VM's peers, whatever order the policy holds in.
  SettledHolds settled(num_vms);

  // One event per token hold; each event schedules its successor, so the
  // queue always has at most one pending event (token serialisation).
  sim::EventFn process_hold = [&]() {
    if (stopped) return;
    policy_->observe(model, *alloc_, *tm_, holder);
    const core::Decision d =
        settled.hold(*engine_, *alloc_, *tm_, holder, iteration_evaluations,
                     "ScoreSimulation", result.iterations.size());

    double busy = config.token_hold_s;
    if (d.migrate) {
      const double bytes = alloc_->spec(holder).ram_mb * 1e6 * config.precopy_factor;
      busy += bytes * 8.0 / config.migration_bandwidth_bps +
              config.migration_overhead_s;
      result.migration_log.push_back(
          {result.iterations.size(), holder, alloc_->server_of(holder), d.target});
      model.apply_migration(*alloc_, *tm_, holder, d.target);
      settled.unsettle(*tm_, holder);
      cost -= d.delta;  // Lemma 3: the global cost drops by exactly ΔC
      ++result.total_migrations;
      ++iteration_migrations;
    }
    ++holds_done;
    ++iteration_holds;

    if (config.record_every_hold || d.migrate) {
      result.series.push_back({queue.now() + busy, cost, result.total_migrations});
    }

    const bool iteration_end = iteration_holds == num_vms;
    if (iteration_end) {
      IterationStats it;
      it.holds = iteration_holds;
      it.evaluations = iteration_evaluations;
      it.migrations = iteration_migrations;
      it.migrated_ratio = static_cast<double>(iteration_migrations) /
                          static_cast<double>(iteration_holds);
      it.cost_at_end = cost;
      it.time_at_end_s = queue.now() + busy;
      result.iterations.push_back(it);
      const bool stable = config.stop_when_stable && iteration_migrations == 0;
      iteration_holds = 0;
      iteration_evaluations = 0;
      iteration_migrations = 0;
      if (result.iterations.size() >= config.iterations || stable) {
        stopped = true;
        queue.schedule_in(busy, [] {});  // advance clock past the busy period
        return;
      }
    }

    const VmId next = policy_->next(holder);
    const int hops = model.topology().hop_count(alloc_->server_of(holder),
                                                alloc_->server_of(next));
    holder = next;
    queue.schedule_in(busy + config.token_pass_per_hop_s * hops, process_hold);
  };

  queue.schedule_at(0.0, process_hold);
  queue.run();

  result.final_cost = cost;
  result.duration_s = queue.now();
  if (result.series.empty() || result.series.back().cost != cost) {
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
