#include "core/cached_cost_model.hpp"

#include <cmath>
#include <stdexcept>

namespace score::core {

CachedCostModel::~CachedCostModel() { detach(); }

// Copies start unbound: a copy cannot inherit the source's observer
// registration, and an unregistered cache holding container pointers it will
// never hear about again is a lifetime hazard (it could not learn of the
// matrix's destruction). Bind the copy explicitly to use it incrementally.
CachedCostModel::CachedCostModel(const CachedCostModel& other)
    : CostModel(other) {}

CachedCostModel& CachedCostModel::operator=(const CachedCostModel& other) {
  if (this == &other) return *this;
  detach();
  CostModel::operator=(other);
  alloc_ = nullptr;
  tm_ = nullptr;
  alloc_version_ = 0;
  tm_version_ = 0;
  pending_rebuild_ = false;
  total_ = 0.0;
  vm_cost_.clear();
  rebuilds_ = 0;
  incremental_updates_ = 0;
  deltas_folded_ = 0;
  return *this;
}

void CachedCostModel::detach() {
  if (tm_) tm_->remove_observer(this);
}

void CachedCostModel::bind(const Allocation& alloc,
                           const traffic::TrafficMatrix& tm) {
  // Always rebuild, even when re-binding the already-bound pair: Allocation
  // assignment copies the version verbatim, so a re-snapshotted allocation
  // can collide with the cached version while holding different contents.
  // The streaming win comes from *staying* bound between deltas, not from
  // cheap rebinds.
  if (tm_ && tm_ != &tm) detach();
  tm.add_observer(this);  // idempotent
  alloc_ = &alloc;
  tm_ = &tm;
  pending_rebuild_ = false;
  rebuild();
}

void CachedCostModel::unbind() {
  detach();
  alloc_ = nullptr;
  tm_ = nullptr;
  pending_rebuild_ = false;
  vm_cost_.clear();
  total_ = 0.0;
}

void CachedCostModel::on_rate_change(traffic::VmId u, traffic::VmId v,
                                     double old_rate, double new_rate) {
  if (pending_rebuild_) return;  // already dirty; the next query rebuilds
  if (alloc_version_ != alloc_->version()) {
    // The allocation moved out-of-band since our last sync, so the level we
    // would fold with may be stale. Defer to a rebuild rather than guess.
    pending_rebuild_ = true;
    return;
  }
  // Both endpoints' pair cost changes by the same amount (the pair's cost
  // counts once in each endpoint's Eq. (1) sum and once in Eq. (2)).
  const int lvl = level(*alloc_, u, v);
  const double d = pair_cost(new_rate, lvl) - pair_cost(old_rate, lvl);
  vm_cost_[u] += d;
  vm_cost_[v] += d;
  total_ += d;
  tm_version_ = tm_->version();
  ++deltas_folded_;
  verify_cache();
}

void CachedCostModel::on_bulk_update() { pending_rebuild_ = true; }

void CachedCostModel::on_matrix_destroyed() {
  // The matrix deregisters us itself — just drop the binding.
  alloc_ = nullptr;
  tm_ = nullptr;
  pending_rebuild_ = false;
  vm_cost_.clear();
  total_ = 0.0;
}

void CachedCostModel::rebuild() const {
  // Accumulate the total in exactly CostModel::total_cost's iteration order
  // so a freshly bound cache is bit-identical to the brute-force value (the
  // bench trajectory compares checksums across runs).
  const std::size_t n = tm_->num_vms();
  vm_cost_.assign(n, 0.0);
  total_ = 0.0;
  for (VmId u = 0; u < n; ++u) {
    tm_->for_each_neighbor(u, [&](VmId v, double rate) {
      const double c = pair_cost(rate, level(*alloc_, u, v));
      vm_cost_[u] += c;
      if (u < v) total_ += c;
    });
  }
  alloc_version_ = alloc_->version();
  tm_version_ = tm_->version();
  pending_rebuild_ = false;
  ++rebuilds_;
}

void CachedCostModel::sync() const {
  if (pending_rebuild_ || alloc_version_ != alloc_->version() ||
      tm_version_ != tm_->version()) {
    rebuild();
  }
}

void CachedCostModel::verify_cache() const {
#ifdef SCORE_CHECK_CACHE
  const double brute = CostModel::total_cost(*alloc_, *tm_);
  if (std::abs(total_ - brute) > 1e-7 * (1.0 + std::abs(brute))) {
    throw std::logic_error("CachedCostModel: cached total " +
                           std::to_string(total_) +
                           " diverged from brute-force Eq. (2) total " +
                           std::to_string(brute));
  }
  for (VmId u = 0; u < vm_cost_.size(); ++u) {
    const double vm_brute = CostModel::vm_cost(*alloc_, *tm_, u);
    // Cancellation residue in an incrementally maintained sum scales with
    // the magnitudes folded through it (≈ the global total), not with the
    // current — possibly zero — per-VM value.
    const double tol =
        1e-7 * (1.0 + std::abs(vm_brute)) + 1e-9 * std::abs(total_);
    if (std::abs(vm_cost_[u] - vm_brute) > tol) {
      throw std::logic_error("CachedCostModel: cached vm_cost[" +
                             std::to_string(u) + "] " +
                             std::to_string(vm_cost_[u]) +
                             " diverged from brute-force Eq. (1) value " +
                             std::to_string(vm_brute));
    }
  }
#endif
}

double CachedCostModel::total_cost(const Allocation& alloc,
                                   const traffic::TrafficMatrix& tm) const {
  if (!bound_to(alloc, tm)) return CostModel::total_cost(alloc, tm);
  sync();
  verify_cache();
  return total_;
}

double CachedCostModel::vm_cost(const Allocation& alloc,
                                const traffic::TrafficMatrix& tm, VmId u) const {
  if (!bound_to(alloc, tm)) return CostModel::vm_cost(alloc, tm, u);
  sync();
  verify_cache();
  return vm_cost_.at(u);
}

void CachedCostModel::apply_migration(Allocation& alloc,
                                      const traffic::TrafficMatrix& tm, VmId u,
                                      ServerId target) const {
  if (!bound_to(alloc, tm)) {
    CostModel::apply_migration(alloc, tm, u, target);
    return;
  }
  sync();
  const ServerId source = alloc.server_of(u);
  alloc.migrate(u, target);  // throws on infeasible targets, cache untouched
  if (source == target) return;
  // Lemma 3 as bookkeeping: only pairs incident to u change level. Peers'
  // servers are unaffected by u's move, so their levels can be read after
  // the migrate.
  const auto& topology_ref = topology();
  double diff = 0.0;
  tm.for_each_neighbor(u, [&](VmId z, double rate) {
    const ServerId zs = alloc.server_of(z);
    const double delta = pair_cost(rate, topology_ref.comm_level(zs, target)) -
                         pair_cost(rate, topology_ref.comm_level(zs, source));
    vm_cost_[z] += delta;
    diff += delta;
  });
  vm_cost_[u] += diff;
  total_ += diff;
  alloc_version_ = alloc.version();
  ++incremental_updates_;
  verify_cache();
}

}  // namespace score::core
