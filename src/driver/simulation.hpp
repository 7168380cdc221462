// Iterative S-CORE simulation — the paper's §VI simulation environment.
//
// Drives token passing over the event-queue substrate: every token hold
// costs a measurement/decision interval, token transfer costs a per-hop
// network latency, and each accepted migration occupies the token for the
// VM's transfer time (pre-copied RAM over the migration bandwidth). One
// *iteration* is |V| consecutive token holds (for Round-Robin exactly one
// pass over all VMs), matching Fig. 2's x-axis. The recorded time series of
// the global communication cost is what Fig. 3d-i and Fig. 4b plot,
// normalised by a baseline (GA-approximated optimum or initial cost).
//
// Both centralized drivers skip a hold whose Theorem-1 answer cannot have
// changed since it last reported !improvable (driver/settled_holds.hpp):
// here each commit unsettles its VM and that VM's peers. A skipped hold is
// charged and counted like any no-migrate hold; IterationStats::evaluations
// counts the holds that ran Theorem 1. Token policies still observe every
// hold, so their gossip state is unchanged.
//
// This lives in the `score_driver` layer (not `score_core`): the decision
// engine, cost model and token policies below are pure domain logic, while
// the drivers here additionally advance an experiment clock. Embedders that
// only need decisions (e.g. a hypervisor agent) link score_core alone.
#pragma once

#include <vector>

#include "core/migration_engine.hpp"
#include "core/token_policy.hpp"
#include "driver/convergence.hpp"
#include "sim/event_queue.hpp"

namespace score::driver {

using core::Allocation;
using core::ServerId;
using core::VmId;

/// Round budget and §VI timing model of both centralized drivers (SimConfig
/// and MultiTokenConfig).
struct TokenRoundConfig {
  std::size_t iterations = 5;
  /// Stop early once an entire iteration makes no migration.
  bool stop_when_stable = true;
  /// Measurement + decision time charged per token hold (dom0 work).
  double token_hold_s = 0.02;
  /// Per-hop token transfer latency between consecutive holders' servers.
  double token_pass_per_hop_s = 0.0005;
  /// Bandwidth available to live migrations.
  double migration_bandwidth_bps = 1e9;
  /// Pre-copy expansion: bytes moved ≈ factor × RAM (re-copied dirty pages).
  double precopy_factor = 1.3;
  /// Fixed per-migration control overhead (setup + stop-and-copy).
  double migration_overhead_s = 0.1;

  /// Throws std::invalid_argument naming the field unless every time and
  /// factor is finite and >= 0 and migration_bandwidth_bps is finite and
  /// > 0. Both drivers call it first in run(): a NaN or negative value would
  /// corrupt the virtual clock that orders the multi-token merge.
  void validate() const;
};

struct SimConfig : TokenRoundConfig {
  /// Record a time-series point after every token hold (else per iteration).
  bool record_every_hold = false;
};

struct TimePoint {
  double time_s = 0.0;
  double cost = 0.0;
  std::size_t migrations = 0;  ///< cumulative
};

struct IterationStats {
  std::size_t holds = 0;
  /// Holds that ran Theorem 1; the rest were settled (driver/settled_holds.hpp).
  std::size_t evaluations = 0;
  std::size_t migrations = 0;
  double migrated_ratio = 0.0;  ///< migrations / holds (Fig. 2 y-axis)
  double cost_at_end = 0.0;
  double time_at_end_s = 0.0;
};

/// One committed migration, in commit order — the determinism tests compare
/// whole logs across execution policies.
struct MigrationRecord {
  std::size_t pass = 0;  ///< 0-based iteration the commit belongs to
  VmId vm = 0;
  ServerId from = core::kInvalidServer;
  ServerId to = core::kInvalidServer;

  bool operator==(const MigrationRecord&) const = default;
};

struct SimResult {
  double initial_cost = 0.0;
  double final_cost = 0.0;
  std::size_t total_migrations = 0;
  double duration_s = 0.0;
  std::vector<TimePoint> series;
  std::vector<IterationStats> iterations;
  std::vector<MigrationRecord> migration_log;  ///< commit order

  double reduction() const {
    return initial_cost > 0.0 ? 1.0 - final_cost / initial_cost : 0.0;
  }
};

/// Summary of a centralized driver run (ScoreSimulation / MultiTokenSimulation
/// both produce SimResult) as the mode-independent convergence report.
ConvergenceReport summarize(const SimResult& result);

/// Single-token driver on the event queue. Under Round-Robin it commits the
/// migration log and placement of MultiTokenSimulation at tokens = 1
/// (tested); only two reported numbers differ: final_cost is the running
/// Lemma-3 sum, not the reconciled Eq. (2) total (~1e-13 relative apart), and
/// duration_s also charges the wrap-around token hop between passes. It is
/// the only driver that takes a TokenPolicy.
class ScoreSimulation {
 public:
  /// All references must outlive the simulation. The allocation is mutated.
  ScoreSimulation(const core::MigrationEngine& engine, core::TokenPolicy& policy,
                  Allocation& alloc, const traffic::TrafficMatrix& tm)
      : engine_(&engine), policy_(&policy), alloc_(&alloc), tm_(&tm) {}

  SimResult run(const SimConfig& config = {});

 private:
  const core::MigrationEngine* engine_;
  core::TokenPolicy* policy_;
  Allocation* alloc_;
  const traffic::TrafficMatrix* tm_;
};

}  // namespace score::driver
