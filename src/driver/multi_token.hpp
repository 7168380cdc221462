// Multi-token extension — parallelising S-CORE's control loop.
//
// The paper's whole point is that migration decisions are *distributed*
// (§V, Algorithm 2): k tokens walk disjoint VM partitions concurrently,
// each deciding from local cost information. This driver runs those token
// rounds as *phased passes* that map onto real threads:
//
//   1. Pass barrier: ShardedCostOracle snapshots the master allocation into
//      one private allocation per token partition — a full copy on pass 1,
//      then a resync of only the VMs the previous pass proposed to move.
//   2. Parallel shard walk (util::for_each_shard under the configured
//      ExecPolicy): each token visits its VM range in ascending order,
//      evaluating Theorem 1 with the driver's engine against its snapshot —
//      its own earlier moves are visible, peers' positions are frozen at
//      pass start (the paper's stale-information regime) — and logs locally
//      accepted migrations with their virtual completion times. A hold whose
//      answer cannot have changed since it last reported !improvable is
//      skipped and stays (driver/settled_holds.hpp); it still costs its
//      virtual hold time and counts in `holds`, not in `evaluations`.
//   3. Deterministic merge: logged migrations replay onto the master
//      allocation in (virtual completion time, shard, vm) order; each is
//      revalidated — feasibility plus a fresh Lemma-3 delta against the live
//      master — and committed only if Theorem 1 still holds. Every commit
//      therefore strictly reduces the true global cost: monotonicity
//      survives parallelism.
//   4. Reconciliation: the pass cost is recomputed as the true Eq. (2)
//      total from per-shard partial sums over the merged master.
//
// Steps 2-4 depend only on the pass-start snapshot and fixed orderings,
// never on thread timing, so seq / par(1) / par(n) produce bit-identical
// migration sequences, costs and iteration stats — only wall-clock changes.
// Virtual time is the single-token driver's fixed §VI clock (hold_busy_s and
// kTokenPassPerHopS, driver/simulation.hpp): a pass ends at the *max* over
// per-token busy-until times, keeping fig2/ablation series comparable with
// the single-token driver, whose Round-Robin decisions it makes at
// tokens = 1 (see ScoreSimulation). Every centralized re-optimisation of the
// streaming and continuous engines runs here (driver/reoptimize).
#pragma once

#include "core/migration_engine.hpp"
#include "driver/simulation.hpp"
#include "util/exec_policy.hpp"

namespace score::driver {

struct MultiTokenConfig : TokenRoundConfig {
  std::size_t tokens = 4;
  /// Where shard walks + reconciliation run. Results are identical for every
  /// policy; par(n) shrinks wall-clock with the token count.
  util::ExecPolicy policy = util::ExecPolicy::seq();
};

class MultiTokenSimulation {
 public:
  MultiTokenSimulation(const core::MigrationEngine& engine, Allocation& alloc,
                       const traffic::TrafficMatrix& tm)
      : engine_(&engine), alloc_(&alloc), tm_(&tm) {}

  /// Runs until `iterations` global passes complete (an iteration ends when
  /// every token finished a pass over its partition) or no migration commits
  /// during a pass. Reuses SimResult: `iterations[i]` aggregates all
  /// partitions' holds/migrations for global pass i.
  SimResult run(const MultiTokenConfig& config = {});

 private:
  const core::MigrationEngine* engine_;
  Allocation* alloc_;
  const traffic::TrafficMatrix* tm_;
};

}  // namespace score::driver
