// S-CORE migration decision engine — paper §IV (Theorem 1) and §V-B.5.
//
// When a VM u holds the token, the engine (running in dom0 on u's behalf):
//   1. ranks u's neighbours from highest to lowest communication level,
//      breaking ties by pairwise traffic λ(z,u) — the order in which the Xen
//      implementation probes candidate hypervisors;
//   2. probes each neighbour's server for capacity (slots, RAM, CPU) and the
//      residual host-NIC bandwidth of §V-C;
//   3. computes the exact global-cost delta of moving u there (Lemma 3,
//      local information only);
//   4. migrates to the best candidate iff ΔC > c_m (Theorem 1).
//
// Besides servers hosting neighbours, sibling servers in a neighbour's rack
// are probed as fallbacks: localising to the rack captures most of the gain
// when the neighbour's own server is full (the paper's "next best choice
// with adequate bandwidth"). At most kMaxCandidates servers are probed.
//
// A hold reads u's neighbour set once (each peer's server, rack, pod, rate
// and its Lemma-3 term for u's current server), so a candidate costs one
// pass over that scratch and a capacity probe only when its delta beats the
// best so far.
#pragma once

#include <cstddef>
#include <vector>

#include "core/allocation.hpp"
#include "core/cost_model.hpp"
#include "topology/topology.hpp"

namespace score::core {

/// Cap on distinct candidate servers probed per decision (capacity
/// request/response round-trips in the real system).
inline constexpr std::size_t kMaxCandidates = 32;

struct EngineConfig {
  /// Migration (overhead) cost c_m; the paper's simulations use 0 for the
  /// GA comparison and sweep it in §VI (see bench_runner's ablation-cm rows).
  double migration_cost = 0.0;

  /// Throws std::invalid_argument naming the field unless Theorem 1 is
  /// meaningful: migration_cost finite and >= 0 (a NaN c_m blocks every
  /// move, a negative one commits moves that raise the cost).
  void validate() const;
};

/// The §V-B.5 probe order of one hold, shared by MigrationEngine and the
/// dom0 agents: peer hosts ranked from the highest communication level
/// (heaviest traffic first within a level), each followed by its rack
/// siblings, without repeats, never the holder's own server, at most
/// kMaxCandidates. Reuse one builder across holds: its buffers keep their
/// capacity, so a warm builder allocates nothing.
class CandidateBuilder {
 public:
  /// Start a hold whose VM sits on `source`.
  void reset(ServerId source) {
    source_ = source;
    ranked_.clear();
  }

  /// A peer on `host` (!= source) at communication `level` from the source,
  /// exchanging `rate` with the holder.
  void add_peer(int level, double rate, ServerId host) {
    ranked_.push_back({level, rate, host});
  }

  /// Rank the peers and list the candidate servers in probe order. The list
  /// stays valid until the next reset().
  const std::vector<ServerId>& build(const topo::Topology& topology);

 private:
  struct Ranked {
    int level;
    double rate;
    ServerId host;
  };

  ServerId source_ = kInvalidServer;
  std::vector<Ranked> ranked_;
  std::vector<int> expanded_racks_;
  std::vector<ServerId> servers_;
};

struct Decision {
  bool migrate = false;
  /// Some candidate's Lemma-3 delta exceeds c_m, feasible or not. When it is
  /// false the hold stays whatever the servers' capacity, so its answer can
  /// only change once u or one of its peers moves (the centralized drivers
  /// skip such holds until then; see driver/settled_holds.hpp).
  bool improvable = false;
  ServerId target = kInvalidServer;
  /// ΔC of the chosen target (or the best rejected one when migrate==false).
  double delta = 0.0;
  std::size_t candidates_probed = 0;
};

class MigrationEngine {
 public:
  /// Throws std::invalid_argument when `config` fails EngineConfig::validate.
  MigrationEngine(const CostModel& model, EngineConfig config = {})
      : model_(&model), config_(config) {
    config_.validate();
  }

  const EngineConfig& config() const { return config_; }
  const CostModel& cost_model() const { return *model_; }

  /// Evaluate the token held for VM u. Pure: does not mutate the allocation.
  /// The target is the first feasible candidate with the largest Lemma-3
  /// delta. Safe to call concurrently: the per-hold scratch is per thread.
  Decision evaluate(const Allocation& alloc, const traffic::TrafficMatrix& tm,
                    VmId u) const;

  /// Evaluate and, when Theorem 1 is satisfied, apply the migration.
  Decision evaluate_and_apply(Allocation& alloc, const traffic::TrafficMatrix& tm,
                              VmId u) const;

  /// Candidate target servers for u in probe order (deduplicated).
  std::vector<ServerId> candidate_servers(const Allocation& alloc,
                                          const traffic::TrafficMatrix& tm,
                                          VmId u) const;

  /// Full placement feasibility for a VM of `spec` on `target`: capacity
  /// (slots, RAM, CPU, NIC) and the §V-C check of the VM's bandwidth against
  /// the target's residual NIC.
  /// Used by evaluate()'s candidate probing and by the multi-token driver
  /// to revalidate shard-local decisions against the live allocation at the
  /// merge barrier.
  bool target_feasible(const Allocation& alloc, ServerId target,
                       const VmSpec& spec) const;

 private:
  const CostModel* model_;
  EngineConfig config_;
};

}  // namespace score::core
