// Communication-cost model — paper §III, Eq. (1)-(2) and Lemmas 1-3.
//
// For allocation A, the cost attributed to VM u is
//     C^A(u) = 2 Σ_{v∈Vu} λ(u,v) Σ_{i=1..ℓ^A(u,v)} c_i              (Eq. 1)
// and the network-wide cost is C^A = ½ Σ_u C^A(u)                   (Eq. 2)
// (each unordered pair counted once).
//
// Lemma 3 gives the *locally computable* change of the global cost caused by
// migrating u to server x̂: only pairs incident to u change level, so
//     ΔC = 2 Σ_{z∈Vu} λ(z,u) · (prefix(ℓ_before) − prefix(ℓ_after)).
// `migration_delta` implements exactly this; a property test cross-checks it
// against brute-force recomputation of Eq. (2).
#pragma once

#include "core/allocation.hpp"
#include "core/link_weights.hpp"
#include "core/types.hpp"
#include "topology/topology.hpp"
#include "traffic/traffic_matrix.hpp"

namespace score::core {

class CostModel {
 public:
  CostModel(const topo::Topology& topology, LinkWeights weights)
      : topo_(&topology), weights_(std::move(weights)) {}
  virtual ~CostModel() = default;

  CostModel(const CostModel&) = default;
  CostModel& operator=(const CostModel&) = default;

  const topo::Topology& topology() const { return *topo_; }
  const LinkWeights& weights() const { return weights_; }

  /// Communication level ℓ^A(u,v) of a VM pair under the given allocation.
  int level(const Allocation& alloc, VmId u, VmId v) const {
    return topo_->comm_level(alloc.server_of(u), alloc.server_of(v));
  }

  /// Highest communication level ℓ^A(u) over u's neighbour set.
  int highest_level(const Allocation& alloc, const traffic::TrafficMatrix& tm,
                    VmId u) const;

  /// Cost contribution of a single pair: 2·λ·Σ_{i<=level} c_i.
  double pair_cost(double lambda, int level) const {
    return 2.0 * lambda * weights_.prefix(level);
  }

  /// C^A(u), Eq. (1).
  double vm_cost(const Allocation& alloc, const traffic::TrafficMatrix& tm,
                 VmId u) const;

  /// C^A, Eq. (2): every unordered pair counted once.
  virtual double total_cost(const Allocation& alloc,
                            const traffic::TrafficMatrix& tm) const;

  /// ΔC^A_{u→x̂} per Lemma 3 — positive when the migration lowers the global
  /// cost. O(|Vu|); does not modify the allocation.
  double migration_delta(const Allocation& alloc, const traffic::TrafficMatrix& tm,
                         VmId u, ServerId target) const;

  /// Migrate u to `target` through the model. Every engine/driver routes
  /// committed migrations through this hook so a derived cache (see
  /// CachedCostModel) can fold the move into its sums in O(|Vu|) instead of
  /// rebuilding. The base model just forwards to Allocation::migrate (throws
  /// if the target cannot host u; self-migrations are no-ops). `const`
  /// because callers hold the model const — only cache state, not the model's
  /// parameters, may mutate underneath.
  virtual void apply_migration(Allocation& alloc, const traffic::TrafficMatrix& tm,
                               VmId u, ServerId target) const {
    (void)tm;
    alloc.migrate(u, target);
  }

 private:
  const topo::Topology* topo_;
  LinkWeights weights_;
};

}  // namespace score::core
