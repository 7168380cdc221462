// Pairwise VM traffic loads λ(u,v) — paper §III.
//
// λ(u,v) is the average rate (incoming + outgoing) exchanged between VMs u
// and v over a measurement window; it is symmetric by definition. DC traffic
// matrices are sparse (each VM talks to a handful of peers), so we store
// adjacency rather than a dense matrix: the cost model and the migration-
// delta evaluation both iterate the neighbour set Vu.
//
// Storage (see ARCHITECTURE.md, "Memory layout at mega-scale"): one packed
// arena of `(cols_, rates_)` columns in which every row owns a slice. Row u
// is `[offsets_[u], offsets_[u] + degree_[u])`, with `capacity_[u]` slots
// reserved, so a 1M-VM matrix is a handful of flat allocations,
// `neighbors(u)` is an O(degree) contiguous scan and the whole edge set
// prefetches linearly.
//
// Build: the list constructor packs the arena in one pass over a pair list
// (count an upper bound per row, fill the rows in list order, squeeze out
// the slack left by repeated pairs). Each row keeps its peers in order of
// first appearance and a repeated pair is summed in list order, so the
// result is bit-identical to applying the list to an empty matrix. A built
// matrix has no slack: every row's capacity equals its degree.
//
// Change: each row behaves exactly like the per-VM std::vector it replaced.
//   * a rate change overwrites its slot in place;
//   * an erase slides the rest of the row left by one, so the survivors
//     keep their relative order (vector::erase);
//   * a new pair is written at the row's end (vector::emplace_back), so a
//     pair erased and added again lands at the end, not at its old slot.
// A full row grows by half its capacity (at least 2 slots): in place when
// it is the arena's last region, otherwise by moving to the arena's end and
// leaving its old slots as garbage. When the arena's reserved size cannot
// take the move, compaction re-packs the rows in VM order, leaving each row
// degree/8 + 1 slots of slack and the arena 1/8 headroom. The arrays are
// reallocated only there, one column at a time, so old and new copies
// coexist only during a compaction and never both in full. Every step
// preserves each row's order bit for bit, so it is invisible to every
// consumer (no version bump, no observer notification) and every Eq. (1)/(2)
// floating-point fold, and hence every cost checksum, is bit-identical to
// the per-VM-vector layout.
//
// Mutation model (see ARCHITECTURE.md, "Streaming ingest & drift trigger"):
// apply() is the only mutator. It funnels through one private choke point
// that updates the storage, bumps the version counter and announces the
// change to the registered TrafficObservers; assignment bumps the counter
// and announces a bulk update. Observers and the counter can therefore never
// disagree: a registered consumer folds each per-pair change incrementally,
// an unregistered one detects the counter move and rebuilds.
#pragma once

#include <cstdint>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "traffic/flow_delta.hpp"

namespace score::traffic {

/// Forward view over one VM's neighbour set: a contiguous slice of the
/// matrix arena. Iterators yield `std::pair<VmId, double>` by value
/// (structured bindings and range-for work unchanged). The view holds raw
/// pointers into the matrix arrays, so it is invalidated by any mutation of
/// the matrix — take a fresh one per read, as with the old vector reference.
class NeighborView {
 public:
  class iterator {
   public:
    using value_type = std::pair<VmId, double>;
    using reference = std::pair<VmId, double>;
    using pointer = void;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    iterator() = default;

    reference operator*() const { return {*col_, *rate_}; }
    iterator& operator++() {
      ++col_;
      ++rate_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++*this;
      return copy;
    }
    bool operator==(const iterator& other) const { return col_ == other.col_; }
    bool operator!=(const iterator& other) const { return !(*this == other); }

   private:
    friend class NeighborView;
    iterator(const VmId* col, const double* rate) : col_(col), rate_(rate) {}

    const VmId* col_ = nullptr;
    const double* rate_ = nullptr;
  };

  iterator begin() const { return iterator(cols_, rates_); }
  iterator end() const { return iterator(cols_ + size_, rates_ + size_); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  friend class TrafficMatrix;
  NeighborView(const VmId* cols, const double* rates, std::size_t size)
      : cols_(cols), rates_(rates), size_(size) {}

  const VmId* cols_;
  const double* rates_;
  std::size_t size_;
};

class TrafficMatrix {
 public:
  /// λ over `num_vms` VMs, built in one pass from `flows` (empty by
  /// default). The result equals applying `flows` in order to an empty
  /// matrix: a pair listed twice, in either orientation, is summed in list
  /// order, each row keeps its peers in order of first appearance, and a
  /// pair whose rates sum to zero is absent. An out-of-range id throws
  /// std::out_of_range; u == v or a negative or non-finite rate throws
  /// std::invalid_argument. The list is taken by value so the build can
  /// free it before squeezing the rows.
  explicit TrafficMatrix(std::size_t num_vms, FlowDeltaBatch flows = {});

  // Observers are registered against this object's identity, so they are
  // deliberately NOT carried across copies or moves: a copy starts with no
  // observers (its consumers fall back to the version counter), and
  // assignment into an observed matrix keeps the observer list and announces
  // a bulk update. A moved-from matrix is left empty with its version bumped.
  TrafficMatrix(const TrafficMatrix& other);
  TrafficMatrix(TrafficMatrix&& other) noexcept;
  TrafficMatrix& operator=(const TrafficMatrix& other);
  TrafficMatrix& operator=(TrafficMatrix&& other) noexcept;
  /// Announces on_matrix_destroyed to any still-registered observers so they
  /// drop their pointers — either destruction order is safe.
  ~TrafficMatrix();

  std::size_t num_vms() const { return degree_.size(); }

  // ---- mutation -------------------------------------------------------------

  /// Fold one flow delta: λ(u,v) += delta, clamped at 0 (a pair driven to or
  /// below zero is removed). An out-of-range id throws std::out_of_range;
  /// u == v or a non-finite delta throws std::invalid_argument. O(|Vu| +
  /// |Vv|) storage update plus one O(1) observer notification per
  /// registered observer.
  void apply(const FlowDelta& delta);

  /// Fold a batch in order (deltas to the same pair accumulate). Every
  /// delta is checked before the first is folded, so a rejected batch
  /// leaves the contents, the version and every observer untouched.
  void apply(const FlowDeltaBatch& batch);

  /// Register/deregister a mutation observer. Idempotent (re-adding a
  /// registered observer or removing an unknown one is a no-op). `const`
  /// because observing does not change the matrix; the list itself is
  /// mutex-protected so concurrent registrations (e.g. parallel shard-cache
  /// binds) are safe. Mutations must still not race with anything.
  void add_observer(TrafficObserver* observer) const;
  void remove_observer(TrafficObserver* observer) const;

  // ---- queries --------------------------------------------------------------

  /// A copy with every rate multiplied by `factor` (the paper scales its
  /// base TM ×10, ×50). Each rate is scaled in its slot, so neighbour order
  /// is unchanged; a product of zero removes the pair. Throws
  /// std::invalid_argument on a negative or non-finite factor.
  TrafficMatrix scaled(double factor) const;

  /// λ(u,v); 0 when the VMs do not communicate. An out-of-range id throws
  /// std::out_of_range.
  double rate(VmId u, VmId v) const;

  /// The neighbour set Vu with per-neighbour rates, in insertion order
  /// (erasures preserve the survivors' relative order; re-insertions append).
  NeighborView neighbors(VmId u) const;

  /// Visit row u's neighbours in the same order as neighbors(u), calling
  /// f(VmId v, double rate) per entry. This is the hot-path form used by
  /// the Eq. (1)/(2) fold and migration-delta inner loops: one plain loop
  /// over the row's slice. Precondition: u < num_vms().
  template <typename F>
  void for_each_neighbor(VmId u, F&& f) const {
    const VmId* cols = cols_.data() + offsets_[u];
    const double* rates = rates_.data() + offsets_[u];
    const std::uint32_t degree = degree_[u];
    for (std::uint32_t k = 0; k < degree; ++k) f(cols[k], rates[k]);
  }

  /// Number of communicating (unordered) pairs. O(1).
  std::size_t num_pairs() const { return live_directed_ / 2; }

  /// Sum of λ over all unordered pairs.
  double total_load() const;

  /// All unordered pairs (u < v) with their rates, in deterministic
  /// (sorted) order. Output is reserved up front — one allocation.
  std::vector<std::tuple<VmId, VmId, double>> pairs() const;

  /// Mutation counter: bumped by every apply() that changes a rate and by
  /// assignment. CachedCostModel uses it as the fallback/cross-check path: a
  /// consumer that missed the observer notifications (it was never
  /// registered, or the change was a bulk update) detects the counter move
  /// and rebuilds its sums.
  std::uint64_t version() const { return version_; }

  // ---- layout diagnostics (tests/bench) -------------------------------------

  /// Arena slots in use: live entries, row slack and abandoned regions.
  std::size_t csr_entries() const { return cols_.size(); }
  /// Arena slots in use that hold no live entry (row slack plus the
  /// regions rows left behind when they moved). 0 right after a list build.
  std::size_t overflow_entries() const { return cols_.size() - live_directed_; }
  /// Compaction passes run so far.
  std::uint64_t compactions() const { return compactions_; }

 private:
  /// The single mutation choke point, for a checked delta; the caller holds
  /// observers_mu_. Writes both directed entries, bumps the version and
  /// notifies observers. No-op (no bump, no notification) when the new rate
  /// equals the old. Negative rates are clamped to 0.
  void fold(const FlowDelta& d);

  /// The slot of v in row u, or the row's end when u does not talk to v.
  std::uint64_t find(VmId u, VmId v) const;

  /// Sets row u's entry for v at `slot` (as returned by find) to `rate`:
  /// overwrite, erase when rate <= 0, append when the slot is the row's end.
  void store(VmId u, std::uint64_t slot, VmId v, double rate);

  /// Makes room for one more entry in the full row u: grow in place at the
  /// arena's end, move the row there, or compact.
  void grow(VmId u);

  /// Re-pack the rows in VM order into fresh arrays with degree/8 + 1 slack
  /// each and 1/8 headroom. Every row's order is unchanged: no version
  /// bump, no notification.
  void compact();

  void notify_bulk_update();

  // Arena: row u is [offsets_[u], offsets_[u] + degree_[u]) of the packed
  // columns, with capacity_[u] slots reserved. cols_.size() is the arena's
  // used end; reserved_ is how far it may grow before a compaction. Tracked
  // here because a copied vector's capacity() need not match its source's.
  std::vector<std::uint64_t> offsets_;   ///< row starts in the arena
  std::vector<std::uint32_t> degree_;    ///< live directed entries per row
  std::vector<std::uint32_t> capacity_;  ///< reserved slots per row
  std::vector<VmId> cols_;               ///< neighbour ids
  std::vector<double> rates_;            ///< parallel to cols_
  std::size_t reserved_ = 0;
  std::size_t live_directed_ = 0;  ///< Σ degree_
  std::uint64_t compactions_ = 0;

  std::uint64_t version_ = 0;
  /// Registration is mutex-protected (parallel shard-cache binds register
  /// concurrently); notification iterates under the same lock. Mutable so
  /// observing a const matrix works.
  mutable std::vector<TrafficObserver*> observers_;
  mutable std::mutex observers_mu_;
};

}  // namespace score::traffic
