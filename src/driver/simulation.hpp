// Iterative S-CORE simulation — the paper's §VI simulation environment.
//
// Advances a virtual clock over token passing: every token hold costs a
// measurement/decision interval, token transfer costs a per-hop network
// latency, and each accepted migration occupies the token for the VM's
// transfer time (pre-copied RAM over the migration bandwidth). The token is
// serial, so the clock is one running sum over the holds. One *iteration* is
// |V| consecutive token holds (for Round-Robin exactly one pass over all
// VMs), matching Fig. 2's x-axis. The recorded time series of the global
// communication cost is what Fig. 3d-i and Fig. 4b plot, normalised by a
// baseline (GA-approximated optimum or initial cost).
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

namespace score::driver {

using core::Allocation;
using core::ServerId;
using core::VmId;

// The §VI timing model both centralized drivers charge.
/// Measurement + decision time charged per token hold (dom0 work).
inline constexpr double kTokenHoldS = 0.02;
/// Per-hop token transfer latency between consecutive holders' servers.
inline constexpr double kTokenPassPerHopS = 0.0005;
/// Bandwidth available to live migrations.
inline constexpr double kMigrationBandwidthBps = 1e9;
/// Pre-copy expansion: bytes moved ≈ factor × RAM (re-copied dirty pages).
inline constexpr double kPrecopyFactor = 1.3;
/// Fixed per-migration control overhead (setup + stop-and-copy).
inline constexpr double kMigrationOverheadS = 0.1;

/// Virtual time a hold keeps the token: the hold itself plus, when it
/// migrated a VM of `spec`, the pre-copy transfer and its fixed overhead.
inline double hold_busy_s(const core::VmSpec& spec, bool migrated) {
  double busy = kTokenHoldS;
  if (migrated) {
    const double bytes = spec.ram_mb * 1e6 * kPrecopyFactor;
    busy += bytes * 8.0 / kMigrationBandwidthBps + kMigrationOverheadS;
  }
  return busy;
}

/// Round budget of both centralized drivers (SimConfig and MultiTokenConfig).
struct TokenRoundConfig {
  std::size_t iterations = 5;
  /// Stop early once an entire iteration makes no migration.
  bool stop_when_stable = true;

  /// Throws std::invalid_argument unless `iterations` >= 1. Both drivers
  /// call it first in run(): a zero budget would run one round in
  /// ScoreSimulation but none in MultiTokenSimulation.
  void validate() const;
};

using SimConfig = TokenRoundConfig;

struct TimePoint {
  double time_s = 0.0;
  double cost = 0.0;
  std::size_t migrations = 0;  ///< cumulative
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

/// Single-token driver: one hold at a time on the virtual clock. Under
/// Round-Robin it commits the migration log and placement of
/// MultiTokenSimulation at tokens = 1 (tested); only two reported numbers
/// differ: final_cost is the running Lemma-3 sum, not the reconciled Eq. (2)
/// total (~1e-13 relative apart), and duration_s also charges the
/// wrap-around token hop between passes. It is the only driver that takes a
/// TokenPolicy.
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
