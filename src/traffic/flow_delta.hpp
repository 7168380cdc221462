// Streaming flow deltas — the incremental face of the traffic matrix.
//
// A measurement epoch is the wrong granularity for a live datacenter: flows
// come up and go down millions of times per second, and rebuilding the whole
// λ matrix (and every cost cache derived from it) per event would be a global
// pause. A FlowDelta is one additive rate change to a single unordered VM
// pair; a FlowDeltaBatch is an ordered sequence of them, the unit the ingest
// path hands to TrafficMatrix::apply. A batch of non-negative rates is also
// the pair list a TrafficMatrix is built from.
//
// TrafficObserver is the seam that makes deltas cheap downstream: a built
// TrafficMatrix changes only through apply(), whose per-pair rate changes
// are announced to the registered observers (foldable into Eq. (1)/(2) sums
// in O(1)), and through assignment, announced as a bulk update (resync from
// scratch). The matrix's version counter still bumps on every mutation, so
// an *unregistered* consumer (a copied cache, a cache bound to a different
// matrix) falls back to the counter-triggered rebuild path — observers are
// an optimisation, never a correctness requirement (see ARCHITECTURE.md,
// "Streaming ingest").
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

namespace score::traffic {

using VmId = std::uint32_t;

/// One additive change to λ(u,v): positive = flow up / rate increase,
/// negative = flow down / rate decrease. Applying clamps the resulting rate
/// at zero (a pair driven to zero is removed from the matrix).
struct FlowDelta {
  VmId u = 0;
  VmId v = 0;
  double delta = 0.0;

  bool operator==(const FlowDelta&) const = default;
};

/// An ordered batch of flow deltas — the ingest unit. Deltas are applied in
/// order, so two deltas to the same pair accumulate.
class FlowDeltaBatch {
 public:
  FlowDeltaBatch() = default;
  FlowDeltaBatch(std::initializer_list<FlowDelta> deltas) : deltas_(deltas) {}

  void push(VmId u, VmId v, double delta) { deltas_.push_back({u, v, delta}); }
  void push(const FlowDelta& d) { deltas_.push_back(d); }

  /// Concatenate `other`'s deltas after this batch's (both orders kept).
  void append(const FlowDeltaBatch& other) {
    deltas_.insert(deltas_.end(), other.deltas_.begin(), other.deltas_.end());
  }

  std::size_t size() const { return deltas_.size(); }
  bool empty() const { return deltas_.empty(); }
  void clear() { deltas_.clear(); }
  void reserve(std::size_t n) { deltas_.reserve(n); }

  const FlowDelta& operator[](std::size_t i) const { return deltas_[i]; }
  std::vector<FlowDelta>::const_iterator begin() const { return deltas_.begin(); }
  std::vector<FlowDelta>::const_iterator end() const { return deltas_.end(); }

  bool operator==(const FlowDeltaBatch&) const = default;

 private:
  std::vector<FlowDelta> deltas_;
};

/// Mutation announcements from a TrafficMatrix. Callbacks run synchronously
/// on the mutating thread, inside the mutation — observers may read the
/// matrix (the changed pair already has its new rate) but must not mutate it
/// or (de)register observers from within a callback.
class TrafficObserver {
 public:
  virtual ~TrafficObserver() = default;

  /// λ(u,v) changed old_rate -> new_rate (both >= 0, old != new). Emitted by
  /// every apply() that changes a rate.
  virtual void on_rate_change(VmId u, VmId v, double old_rate,
                              double new_rate) = 0;

  /// The matrix changed wholesale (assignment). No per-pair deltas are
  /// available; observers must resync from scratch on their next read.
  virtual void on_bulk_update() = 0;

  /// The observed matrix is being destroyed. The observer must drop every
  /// pointer/reference it holds to the matrix before returning (it is
  /// implicitly deregistered; do not call remove_observer). This makes
  /// either destruction order safe: a matrix dying first orphans no
  /// observer, an observer dying first deregisters itself.
  virtual void on_matrix_destroyed() = 0;
};

}  // namespace score::traffic
