// RunControl — the placement manager's convergence ledger: hold and
// migration counters per token-passing round, the stop condition (iteration
// cap or stability), and the run clock.
//
// It is deliberately pure bookkeeping over the world state so that every
// replica of the world (the scheduler and each score_agent daemon) can
// advance an identical RunControl by replaying the same sequence of
// hold_complete/stop calls — iteration boundaries, per-round costs and the
// stability stop then agree bit for bit across processes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost_model.hpp"
#include "traffic/traffic_matrix.hpp"

namespace score::hypervisor {

struct RuntimeIteration {
  std::size_t holds = 0;
  /// Holds that ran Theorem 1: every distributed hold does (the centralized
  /// drivers skip settled ones), so this equals `holds`.
  std::size_t evaluations = 0;
  std::size_t migrations = 0;
  double migrated_ratio = 0.0;
  double cost_at_end = 0.0;
};

class RunControl {
 public:
  RunControl(const core::CostModel& model, const core::Allocation& alloc,
             const traffic::TrafficMatrix& tm, std::size_t max_iterations,
             bool stop_when_stable);

  /// One token hold finished (decision made, migration applied if any).
  /// Closes the iteration when every VM has held once; returns false when
  /// the run is over and the token must not be forwarded.
  bool hold_complete(bool migrated, double now_s);

  void stop(double now_s);
  bool stopped() const { return stopped_; }
  /// Simulated time at which the run stopped (valid once stopped()).
  double duration_s() const { return duration_s_; }

  const std::vector<RuntimeIteration>& iterations() const { return iterations_; }
  std::size_t total_migrations() const { return total_migrations_; }
  std::uint64_t total_holds() const { return total_holds_; }

 private:
  const core::CostModel* model_;
  const core::Allocation* alloc_;
  const traffic::TrafficMatrix* tm_;
  std::size_t max_iterations_;
  bool stop_when_stable_;

  std::vector<RuntimeIteration> iterations_;
  std::size_t iter_holds_ = 0;
  std::size_t iter_migrations_ = 0;
  std::size_t total_migrations_ = 0;
  std::uint64_t total_holds_ = 0;
  bool stopped_ = false;
  double duration_s_ = 0.0;
};

}  // namespace score::hypervisor
