// Mode-independent convergence records — the common currency between the
// centralized drivers (driver/simulation, driver/multi_token) and the
// message-passing distributed runtime (hypervisor/distributed_runtime): one
// IterationStats per token-passing round and one ConvergenceReport per run.
//
// The paper's headline comparison is distributed-vs-centralized: does the
// token-passing protocol, deciding from purely local information, land on
// the same allocation quality as the shared-memory loop, and at what message
// overhead? Both execution modes summarize into this one struct so tools,
// benches and tests can diff them field by field (tools/bench_runner's
// `distributed-vs-centralized` suite is built on exactly this).
// This header is pure data with no driver includes, so lower consumers
// (e.g. score_hypervisor's RunControl and RuntimeResult::report()) can
// produce both structs without compiling against the simulation drivers;
// the SimResult summarizer lives next to SimResult in driver/simulation.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace score::driver {

/// One token-passing round (|V| holds), recorded by every driver.
struct IterationStats {
  std::size_t holds = 0;
  /// Holds that ran Theorem 1; the rest were settled
  /// (driver/settled_holds.hpp). Every distributed hold runs it.
  std::size_t evaluations = 0;
  std::size_t migrations = 0;
  double migrated_ratio = 0.0;  ///< migrations / holds (Fig. 2 y-axis)
  double cost_at_end = 0.0;
  double time_at_end_s = 0.0;  ///< simulated seconds
};

struct ConvergenceReport {
  std::string mode;  ///< "centralized" or "distributed"
  double initial_cost = 0.0;
  double final_cost = 0.0;
  /// Token-passing rounds until the run stopped (stability or iteration cap)
  /// — the Fig. 2 x-axis in both modes.
  std::size_t rounds = 0;
  std::size_t migrations = 0;
  /// Modeled pre-copy MB. summarize() has no VM specs and leaves it 0.
  double migrated_mb = 0.0;
  double duration_s = 0.0;  ///< simulated seconds

  // Control-plane footprint. Zero in centralized mode, where decisions read
  // shared memory instead of the wire.
  std::uint64_t token_messages = 0;
  std::uint64_t token_bytes = 0;
  std::uint64_t control_messages = 0;  ///< all control messages incl. probes
  std::uint64_t control_bytes = 0;

  /// Structural wire-trace hash (FNV-1a over every send, in order). Zero in
  /// centralized mode; in distributed mode it is the one-word equality check
  /// the in-process/multi-process differential tests compare.
  std::uint64_t trace_hash = 0;

  double reduction() const {
    return initial_cost > 0.0 ? 1.0 - final_cost / initial_cost : 0.0;
  }
};

}  // namespace score::driver
