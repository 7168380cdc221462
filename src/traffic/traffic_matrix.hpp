// Pairwise VM traffic loads λ(u,v) — paper §III.
//
// λ(u,v) is the average rate (incoming + outgoing) exchanged between VMs u
// and v over a measurement window; it is symmetric by definition. DC traffic
// matrices are sparse (each VM talks to a handful of peers), so we store
// adjacency rather than a dense matrix: the cost model and the migration-
// delta evaluation both iterate the neighbour set Vu.
//
// Storage (see ARCHITECTURE.md, "Memory layout at mega-scale"): a CSR-style
// structure-of-arrays — one `offsets_` array plus packed `(cols_, rates_)`
// columns — instead of one heap-allocated vector per VM, so a 1M-VM matrix
// is three flat allocations, `neighbors(u)` is an O(degree) contiguous scan
// and the whole edge set prefetches linearly.
//
// Build: the list constructor packs the CSR in one pass over a pair list
// (count an upper bound per row, fill the rows in list order, squeeze out
// the slack left by repeated pairs). Each row keeps its peers in order of
// first appearance and a repeated pair is summed in list order, so the
// result is bit-identical to applying the list to an empty matrix.
//
// Change: apply() keeps CSR compact with two escape hatches:
//   * erasing an entry tombstones its column slot in place (relative order
//     of the survivors is preserved — exactly what vector::erase did);
//   * inserting a new pair appends to a per-row overflow chain in a shared
//     side-buffer (end of the row's iteration order — exactly where
//     vector::emplace_back put it).
// An amortised compaction pass re-packs live entries into fresh CSR arrays
// once tombstones + overflow exceed a slack bound; compaction preserves the
// iteration order bit-for-bit, so it is invisible to every consumer (no
// version bump, no observer notification). Iteration order — CSR segment
// then overflow chain, tombstones skipped — therefore reproduces the
// per-VM-vector semantics exactly, which keeps every Eq. (1)/(2) floating-
// point summation order, and hence every cost checksum, bit-identical to the
// previous layout.
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

class TrafficMatrix;

namespace detail {

/// Column value marking an erased slot (CSR or overflow). Never a valid
/// VmId: ids are dense [0, num_vms) and num_vms < 2^32 - 1.
inline constexpr VmId kDead = 0xFFFFFFFFu;
/// Overflow chain terminator / empty-chain head.
inline constexpr std::uint32_t kNoChain = 0xFFFFFFFFu;

/// One directed entry in the pooled overflow side-buffer, chained per row.
struct OverflowEntry {
  VmId col = kDead;
  double rate = 0.0;
  std::uint32_t next = kNoChain;
};

}  // namespace detail

/// Lightweight forward view over one VM's neighbour set: the row's CSR
/// segment followed by its overflow chain, tombstones skipped. Iterators
/// yield `std::pair<VmId, double>` by value (structured bindings and
/// range-for work unchanged). The view caches raw pointers into the matrix
/// arrays, so it is invalidated by any mutation of the matrix — take a fresh
/// one per read, as with the old vector reference.
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

    reference operator*() const {
      if (pos_ < seg_end_) return {cols_[pos_], rates_[pos_]};
      const detail::OverflowEntry& e = pool_[chain_];
      return {e.col, e.rate};
    }
    iterator& operator++() {
      if (pos_ < seg_end_) {
        ++pos_;
      } else {
        chain_ = pool_[chain_].next;
      }
      skip_dead();
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++*this;
      return copy;
    }
    bool operator==(const iterator& other) const {
      return pos_ == other.pos_ && chain_ == other.chain_;
    }
    bool operator!=(const iterator& other) const { return !(*this == other); }

   private:
    friend class NeighborView;
    iterator(const VmId* cols, const double* rates,
             const detail::OverflowEntry* pool, std::uint64_t pos,
             std::uint64_t seg_end, std::uint32_t chain)
        : cols_(cols), rates_(rates), pool_(pool), pos_(pos),
          seg_end_(seg_end), chain_(chain) {
      skip_dead();
    }
    void skip_dead() {
      while (pos_ < seg_end_ && cols_[pos_] == detail::kDead) ++pos_;
      if (pos_ < seg_end_) return;
      while (chain_ != detail::kNoChain && pool_[chain_].col == detail::kDead) {
        chain_ = pool_[chain_].next;
      }
    }

    const VmId* cols_ = nullptr;
    const double* rates_ = nullptr;
    const detail::OverflowEntry* pool_ = nullptr;
    std::uint64_t pos_ = 0;      ///< current CSR column index
    std::uint64_t seg_end_ = 0;  ///< one past the row's CSR segment
    std::uint32_t chain_ = detail::kNoChain;  ///< overflow index
  };

  iterator begin() const {
    return iterator(cols_, rates_, pool_, seg_begin_, seg_end_, head_);
  }
  iterator end() const {
    return iterator(cols_, rates_, pool_, seg_end_, seg_end_, detail::kNoChain);
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  friend class TrafficMatrix;
  NeighborView(const VmId* cols, const double* rates,
               const detail::OverflowEntry* pool, std::uint64_t seg_begin,
               std::uint64_t seg_end, std::uint32_t head, std::size_t size)
      : cols_(cols), rates_(rates), pool_(pool), seg_begin_(seg_begin),
        seg_end_(seg_end), head_(head), size_(size) {}

  const VmId* cols_;
  const double* rates_;
  const detail::OverflowEntry* pool_;
  std::uint64_t seg_begin_;
  std::uint64_t seg_end_;
  std::uint32_t head_;
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

  /// Fold a batch in order (deltas to the same pair accumulate).
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

  /// λ(u,v); 0 when the VMs do not communicate.
  double rate(VmId u, VmId v) const;

  /// The neighbour set Vu with per-neighbour rates, in insertion order
  /// (erasures preserve the survivors' relative order; re-insertions append).
  NeighborView neighbors(VmId u) const;

  /// Visit row u's neighbours in the same order as neighbors(u), calling
  /// f(VmId v, double rate) per live entry. This is the hot-path form: the
  /// two plain loops (CSR segment, then overflow chain) optimise tighter
  /// than the iterator state machine, which matters in the Eq. (1)/(2) fold
  /// and migration-delta inner loops. Precondition: u < num_vms().
  template <typename F>
  void for_each_neighbor(VmId u, F&& f) const {
    const VmId* cols = cols_.data();
    const double* rates = rates_.data();
    const std::uint64_t seg_end = offsets_[u + 1];
    for (std::uint64_t i = offsets_[u]; i < seg_end; ++i) {
      if (cols[i] != kDead) f(cols[i], rates[i]);
    }
    for (std::uint32_t i = overflow_head_[u]; i != kNoChain;
         i = overflow_[i].next) {
      if (overflow_[i].col != kDead) f(overflow_[i].col, overflow_[i].rate);
    }
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

  /// Directed entries currently in the packed CSR arrays (live + tombstones).
  std::size_t csr_entries() const { return cols_.size(); }
  /// Directed entries currently in the overflow side-buffer.
  std::size_t overflow_entries() const { return overflow_.size(); }
  /// Compaction passes run so far.
  std::uint64_t compactions() const { return compactions_; }

 private:
  static constexpr VmId kDead = detail::kDead;
  static constexpr std::uint32_t kNoChain = detail::kNoChain;
  using OverflowEntry = detail::OverflowEntry;

  /// The single mutation choke point: writes both directed entries, bumps
  /// the version and notifies observers. No-op (no bump, no notification)
  /// when the new rate equals the old. Negative rates are clamped to 0.
  /// Runs the amortised compaction check after notifying.
  void commit_rate(VmId u, VmId v, double new_rate);

  /// Update one directed entry, returning the previous rate (0 if absent).
  /// new_rate <= 0 tombstones the entry; a new pair appends to the row's
  /// overflow chain.
  double update_directed(VmId u, VmId v, double new_rate);

  /// Re-pack live entries into fresh CSR arrays in the current iteration
  /// order and clear the overflow pool. Logical content (and therefore
  /// iteration order) is unchanged: no version bump, no notification.
  void compact();
  void maybe_compact();

  void notify_rate_change(VmId u, VmId v, double old_rate, double new_rate);
  void notify_bulk_update();

  // CSR backbone: row u's packed segment is [offsets_[u], offsets_[u + 1]).
  std::vector<std::uint64_t> offsets_;  ///< num_vms + 1 row boundaries
  std::vector<VmId> cols_;              ///< packed neighbour ids (kDead = hole)
  std::vector<double> rates_;           ///< parallel to cols_
  // Overflow side-buffer: one pooled singly-linked chain per row, appended
  // at the tail so insertion order is preserved until the next compaction.
  std::vector<OverflowEntry> overflow_;
  std::vector<std::uint32_t> overflow_head_;
  std::vector<std::uint32_t> overflow_tail_;
  std::vector<std::uint32_t> degree_;  ///< live directed entries per row
  std::size_t live_directed_ = 0;      ///< Σ degree_
  std::size_t dead_entries_ = 0;       ///< tombstones (CSR + overflow)
  std::uint64_t compactions_ = 0;

  std::uint64_t version_ = 0;
  /// Registration is mutex-protected (parallel shard-cache binds register
  /// concurrently); notification iterates under the same lock. Mutable so
  /// observing a const matrix works.
  mutable std::vector<TrafficObserver*> observers_;
  mutable std::mutex observers_mu_;
};

}  // namespace score::traffic
