// Sharded cost oracle — per-token allocation snapshots for parallel rounds.
//
// Parallel token rounds cannot share one mutable allocation, so each token
// partition gets its *own* snapshot of the allocation taken at the pass
// barrier. A shard decision reads only the Lemma-3 delta over (snapshot, tm),
// never a cached cost sum, so the shards hold plain allocations:
//
//   begin_pass(master)   copy master into every shard snapshot
//                        (parallelisable — shard state is disjoint by
//                        construction);
//   shard walk           the owning token evaluates Theorem 1 against its
//                        snapshot and commits its local moves there; peers'
//                        positions are frozen at pass start, which is
//                        exactly the stale-information regime the paper's
//                        distributed agents operate in (§V);
//   reconcile(master)    after the merged commits land on the master
//                        allocation, recompute the true Eq. (2) total as
//                        ½ Σ_t Σ_{u∈partition_t} C^A(u) — brute-force
//                        per-shard partial sums over the *merged* state,
//                        summed in shard order so the result is independent
//                        of the execution policy. This value is fed back as
//                        the pass cost.
//
// Invariant: a shard snapshot is only ever touched by the job running its
// shard index; the oracle itself holds no mutable state shared across shards
// during a pass.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/cost_model.hpp"
#include "util/exec_policy.hpp"

namespace score::core {

/// Inclusive VM-id range [first, last] owned by one token/shard.
struct VmRange {
  VmId first = 0;
  VmId last = 0;

  std::size_t size() const { return static_cast<std::size_t>(last - first) + 1; }
  bool operator==(const VmRange&) const = default;
};

/// Contiguous id partitions, sizes differing by at most one (the multi-token
/// carve-up). `shards` is clamped to [1, num_vms]; num_vms must be > 0.
std::vector<VmRange> partition_vms(std::size_t num_vms, std::size_t shards);

/// Un-halved Eq. (1) partial sum Σ_{u∈range} C^A(u) of one shard's VM range —
/// the per-shard term reconcile() halves and adds up. `model` may be any
/// CostModel: a CachedCostModel *bound* to (alloc, tm) serves each term from
/// its cache in O(1) (how driver/streaming arms per-shard drift baselines),
/// a plain or unbound model recomputes brute-force (how reconcile and the
/// SCORE_CHECK_CACHE attribution check stay independent of cache state).
double shard_partial_sum(const CostModel& model, const Allocation& alloc,
                         const traffic::TrafficMatrix& tm,
                         const VmRange& range);

class ShardedCostOracle {
 public:
  /// Partitions must be non-empty and pairwise disjoint; they are assumed to
  /// cover exactly the VM ids of the allocations later passed to begin_pass.
  ShardedCostOracle(const topo::Topology& topology, LinkWeights weights,
                    std::vector<VmRange> partitions);

  std::size_t num_shards() const { return shards_.size(); }
  const VmRange& partition(std::size_t shard) const {
    return shards_.at(shard).range;
  }

  /// Copy `master` into every shard snapshot. Runs one job per shard under
  /// `policy`. `tm` is not read: snapshots hold placements only.
  void begin_pass(const Allocation& master, const traffic::TrafficMatrix& tm,
                  const util::ExecPolicy& policy);

  /// Incremental begin_pass: instead of deep-copying `master` into every
  /// shard (O(shards × world)), resync each shard's existing snapshot by
  /// replaying only the moves that could have diverged it since the previous
  /// pass. `touched` must contain (at least) every VM whose placement
  /// changed in any shard snapshot or on the master since the previous
  /// begin_pass — in the multi-token driver that is the union of all shards'
  /// proposed local moves, whether or not the merge committed them. Per
  /// shard, each touched VM whose snapshot placement differs from `master`
  /// is moved with Allocation::migrate_unchecked (capacity checks skipped:
  /// the final state equals the validated master), so the cost is
  /// O(shards × |touched|), independent of world size. Shards with no
  /// snapshot yet (first pass, VM-count change) fall back to the full copy.
  /// Jobs run block-cyclic: resync work is skewed across shards, so
  /// striding balances workers.
  void begin_pass(const Allocation& master, const traffic::TrafficMatrix& tm,
                  const util::ExecPolicy& policy,
                  const std::vector<VmId>& touched);

  /// The shard's private allocation snapshot (valid after begin_pass).
  /// Mutable by design: the owning token commits its pass-local migrations
  /// here.
  Allocation& shard_alloc(std::size_t shard);

  /// True Eq. (2) total of `master` from per-shard partial sums (one job per
  /// shard under `policy`, summed in ascending shard order — deterministic
  /// for any policy). Each per-VM Eq. (1) term is recomputed brute-force
  /// against the merged state.
  double reconcile(const Allocation& master, const traffic::TrafficMatrix& tm,
                   const util::ExecPolicy& policy) const;

  /// Per-shard partial sums of the last reconcile() (diagnostics/tests).
  const std::vector<double>& last_shard_sums() const { return last_sums_; }

 private:
  struct Shard {
    VmRange range;
    std::optional<Allocation> snapshot;
  };

  CostModel model_;  ///< brute-force Eq. (1) for reconcile
  std::vector<Shard> shards_;
  mutable std::vector<double> last_sums_;
};

}  // namespace score::core
