// Incremental communication-cost cache — Lemma 3 applied to bookkeeping.
//
// CostModel::total_cost re-walks every communicating pair (O(|V|·degree))
// on each call, yet the paper's whole point is that migration effects are
// local: moving u only changes the levels of pairs incident to u, and a flow
// coming up or down only changes the cost of that one pair. This model binds
// to one (Allocation, TrafficMatrix) instance and maintains the Eq. (2)
// total C^A, updating it in O(|Vu|) when a migration is routed through
// apply_migration and in O(1) when a traffic delta arrives through the
// TrafficObserver seam, so total_cost on the bound pair is O(1). Per-VM
// Eq. (1) sums are not cached: vm_cost is always the brute-force base.
//
// Coherence contract (see ARCHITECTURE.md, "Incremental cost cache"):
//   * Migrations committed through apply_migration are folded incrementally.
//   * Traffic mutations on the bound matrix (TrafficMatrix::apply, its only
//     mutator) arrive as on_rate_change callbacks — bind() registers the
//     cache as an observer — and are folded in O(1):
//     ΔC = 2·(λ' − λ)·prefix(ℓ(u,v)) on total_.
//   * The version counters on both containers remain the fallback and
//     cross-check path: a cache that missed the notifications (an
//     unregistered copy, a bulk update such as wholesale assignment, or an
//     out-of-band Allocation mutation) detects the counter move on the next
//     query and rebuilds from scratch instead of serving stale data.
//     Correctness never depends on the observer seam — only speed does.
//   * Queries about a *different* allocation or TM (GA populations, exact-
//     solver probes, copied allocations) fall back to the brute-force base.
//   * Not thread-safe: one cache per driver (the bound state is mutated from
//     const methods and from observer callbacks, which run on the thread
//     mutating the matrix). Registration itself is thread-safe (caches bound
//     on different threads to one matrix), mutation/notification is not.
//     Parallel token shards bind no cache: they walk plain allocation
//     snapshots (core/sharded_cost_oracle).
//
// Configure with -DSCORE_CHECK_CACHE=ON to cross-verify the cached total
// against brute-force Eq. (2) after every incremental update — migration
// folds and delta folds alike — and on every cached read; divergence beyond
// 1e-7 relative throws std::logic_error.
#pragma once

#include <cstdint>

#include "core/cost_model.hpp"
#include "traffic/flow_delta.hpp"

namespace score::core {

class CachedCostModel final : public CostModel, public traffic::TrafficObserver {
 public:
  CachedCostModel(const topo::Topology& topology, LinkWeights weights)
      : CostModel(topology, std::move(weights)) {}

  /// Deregisters from the bound matrix, if any (a matrix destroyed first has
  /// already dropped the binding through on_matrix_destroyed).
  ~CachedCostModel() override;

  /// Copies start UNBOUND (model parameters only): observer registration is
  /// per-object, so a copy could never keep an inherited total current. Bind
  /// the copy explicitly to use it incrementally.
  CachedCostModel(const CachedCostModel& other);
  CachedCostModel& operator=(const CachedCostModel& other);

  /// Bind to an allocation/TM pair, register as the matrix's observer and
  /// build the sums (always a full rebuild — re-snapshotted allocations can
  /// alias a stale version). The binding lasts until the next bind() or the
  /// matrix's destruction, which drops it; the allocation must outlive it.
  void bind(const Allocation& alloc, const traffic::TrafficMatrix& tm);
  bool bound() const { return alloc_ != nullptr; }
  bool bound_to(const Allocation& alloc, const traffic::TrafficMatrix& tm) const {
    return alloc_ == &alloc && tm_ == &tm;
  }

  /// O(1) on the bound pair (after resyncing if a version counter moved);
  /// brute-force fallback otherwise.
  double total_cost(const Allocation& alloc,
                    const traffic::TrafficMatrix& tm) const override;

  /// Commits the migration and folds it into the total in O(|Vu|).
  void apply_migration(Allocation& alloc, const traffic::TrafficMatrix& tm,
                       VmId u, ServerId target) const override;

  /// TrafficObserver: O(1) fold of one pair's rate change on the bound
  /// matrix. Public only because TrafficMatrix invokes it; not for callers.
  void on_rate_change(traffic::VmId u, traffic::VmId v, double old_rate,
                      double new_rate) override;
  void on_bulk_update() override;
  void on_matrix_destroyed() override;

  /// Cache-effectiveness counters (bench/diagnostics).
  std::uint64_t rebuilds() const { return rebuilds_; }
  std::uint64_t incremental_updates() const { return incremental_updates_; }
  /// Traffic deltas folded through the observer seam without a rebuild.
  std::uint64_t deltas_folded() const { return deltas_folded_; }

 private:
  void rebuild() const;
  void sync() const;         ///< rebuild iff dirty or a version counter moved
  void verify_cache() const; ///< no-op unless SCORE_CHECK_CACHE
  void detach();             ///< deregister from the bound matrix, if any

  mutable const Allocation* alloc_ = nullptr;
  mutable const traffic::TrafficMatrix* tm_ = nullptr;
  mutable std::uint64_t alloc_version_ = 0;
  mutable std::uint64_t tm_version_ = 0;
  /// Set by bulk updates (and by deltas arriving while the allocation is
  /// already stale): the next query rebuilds regardless of the counters.
  mutable bool pending_rebuild_ = false;
  mutable double total_ = 0.0;
  mutable std::uint64_t rebuilds_ = 0;
  mutable std::uint64_t incremental_updates_ = 0;
  mutable std::uint64_t deltas_folded_ = 0;
};

}  // namespace score::core
