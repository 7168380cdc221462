#include "traffic/traffic_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

namespace score::traffic {

namespace {

/// Throws unless `d` names two distinct VMs below `num_vms` and a finite
/// delta. Shared by apply() and the list constructor.
void check(const FlowDelta& d, std::size_t num_vms) {
  if (d.u >= num_vms || d.v >= num_vms) {
    throw std::out_of_range("TrafficMatrix: bad VM id");
  }
  if (d.u == d.v) throw std::invalid_argument("TrafficMatrix: u == v");
  if (!std::isfinite(d.delta)) {
    throw std::invalid_argument("TrafficMatrix: non-finite rate");
  }
}

}  // namespace

TrafficMatrix::TrafficMatrix(std::size_t num_vms, FlowDeltaBatch flows)
    : offsets_(num_vms + 1, 0),
      overflow_head_(num_vms, kNoChain),
      overflow_tail_(num_vms, kNoChain),
      degree_(num_vms, 0) {
  // Count: offsets_[u + 1] bounds row u's length from above (a repeated
  // pair counts once per listing). Zero rates are skipped, as apply() skips
  // a zero delta, so they never fix a pair's position.
  for (const FlowDelta& f : flows) {
    check(f, num_vms);
    if (f.delta < 0.0) {
      throw std::invalid_argument("TrafficMatrix: negative rate");
    }
    if (f.delta == 0.0) continue;
    ++offsets_[f.u + 1];
    ++offsets_[f.v + 1];
  }
  for (std::size_t u = 0; u < num_vms; ++u) offsets_[u + 1] += offsets_[u];
  cols_.resize(offsets_[num_vms]);
  rates_.resize(offsets_[num_vms]);

  // Fill: rows grow from offsets_[u] in list order; degree_[u] is the fill.
  // Both directions sum the same rates in the same order, so they agree bit
  // for bit.
  auto accumulate = [this](VmId u, VmId v, double rate) {
    const std::uint64_t begin = offsets_[u];
    const std::uint64_t end = begin + degree_[u];
    for (std::uint64_t i = begin; i < end; ++i) {
      if (cols_[i] == v) {
        rates_[i] += rate;
        return;
      }
    }
    cols_[end] = v;
    rates_[end] = rate;
    ++degree_[u];
  };
  for (const FlowDelta& f : flows) {
    if (f.delta == 0.0) continue;
    accumulate(f.u, f.v, f.delta);
    accumulate(f.v, f.u, f.delta);
  }
  flows = FlowDeltaBatch();

  // Squeeze: slide each row down over the slack its repeats left behind
  // (packed <= begin, so a forward copy is safe).
  std::uint64_t packed = 0;
  for (std::size_t u = 0; u < num_vms; ++u) {
    const std::uint64_t begin = offsets_[u];
    offsets_[u] = packed;
    for (std::uint32_t k = 0; k < degree_[u]; ++k) {
      cols_[packed + k] = cols_[begin + k];
      rates_[packed + k] = rates_[begin + k];
    }
    packed += degree_[u];
  }
  offsets_[num_vms] = packed;
  if (packed < cols_.size()) {
    cols_.resize(packed);
    rates_.resize(packed);
    cols_.shrink_to_fit();
    rates_.shrink_to_fit();
  }
  live_directed_ = packed;
}

TrafficMatrix::TrafficMatrix(const TrafficMatrix& other)
    : offsets_(other.offsets_),
      cols_(other.cols_),
      rates_(other.rates_),
      overflow_(other.overflow_),
      overflow_head_(other.overflow_head_),
      overflow_tail_(other.overflow_tail_),
      degree_(other.degree_),
      live_directed_(other.live_directed_),
      dead_entries_(other.dead_entries_),
      compactions_(other.compactions_),
      version_(other.version_) {}

TrafficMatrix::TrafficMatrix(TrafficMatrix&& other) noexcept
    : offsets_(std::move(other.offsets_)),
      cols_(std::move(other.cols_)),
      rates_(std::move(other.rates_)),
      overflow_(std::move(other.overflow_)),
      overflow_head_(std::move(other.overflow_head_)),
      overflow_tail_(std::move(other.overflow_tail_)),
      degree_(std::move(other.degree_)),
      live_directed_(other.live_directed_),
      dead_entries_(other.dead_entries_),
      compactions_(other.compactions_),
      version_(other.version_) {
  other.offsets_.assign(1, 0);
  other.cols_.clear();
  other.rates_.clear();
  other.overflow_.clear();
  other.overflow_head_.clear();
  other.overflow_tail_.clear();
  other.degree_.clear();
  other.live_directed_ = 0;
  other.dead_entries_ = 0;
  ++other.version_;
}

TrafficMatrix& TrafficMatrix::operator=(const TrafficMatrix& other) {
  if (this == &other) return *this;
  offsets_ = other.offsets_;
  cols_ = other.cols_;
  rates_ = other.rates_;
  overflow_ = other.overflow_;
  overflow_head_ = other.overflow_head_;
  overflow_tail_ = other.overflow_tail_;
  degree_ = other.degree_;
  live_directed_ = other.live_directed_;
  dead_entries_ = other.dead_entries_;
  compactions_ = other.compactions_;
  // Keep our own (monotonic) version stream: consumers track *this* object's
  // counter, so a bump — not other's value, which could coincide — is what
  // invalidates them.
  ++version_;
  notify_bulk_update();
  return *this;
}

TrafficMatrix& TrafficMatrix::operator=(TrafficMatrix&& other) noexcept {
  if (this == &other) return *this;
  offsets_ = std::move(other.offsets_);
  cols_ = std::move(other.cols_);
  rates_ = std::move(other.rates_);
  overflow_ = std::move(other.overflow_);
  overflow_head_ = std::move(other.overflow_head_);
  overflow_tail_ = std::move(other.overflow_tail_);
  degree_ = std::move(other.degree_);
  live_directed_ = other.live_directed_;
  dead_entries_ = other.dead_entries_;
  compactions_ = other.compactions_;
  other.offsets_.assign(1, 0);
  other.cols_.clear();
  other.rates_.clear();
  other.overflow_.clear();
  other.overflow_head_.clear();
  other.overflow_tail_.clear();
  other.degree_.clear();
  other.live_directed_ = 0;
  other.dead_entries_ = 0;
  ++other.version_;
  ++version_;
  notify_bulk_update();
  return *this;
}

TrafficMatrix::~TrafficMatrix() {
  std::lock_guard<std::mutex> lock(observers_mu_);
  for (TrafficObserver* obs : observers_) obs->on_matrix_destroyed();
  observers_.clear();
}

NeighborView TrafficMatrix::neighbors(VmId u) const {
  if (u >= num_vms()) {
    throw std::out_of_range("TrafficMatrix::neighbors: bad VM id");
  }
  return NeighborView(cols_.data(), rates_.data(), overflow_.data(),
                      offsets_[u], offsets_[u + 1], overflow_head_[u],
                      degree_[u]);
}

double TrafficMatrix::update_directed(VmId u, VmId v, double new_rate) {
  // CSR segment first — the packed part of the row's iteration order.
  const std::uint64_t seg_end = offsets_[u + 1];
  for (std::uint64_t i = offsets_[u]; i < seg_end; ++i) {
    if (cols_[i] == v) {
      const double old = rates_[i];
      if (new_rate <= 0.0) {
        // Tombstone in place: the survivors keep their relative order,
        // exactly as vector::erase preserved it.
        cols_[i] = kDead;
        rates_[i] = 0.0;
        --degree_[u];
        --live_directed_;
        ++dead_entries_;
      } else {
        rates_[i] = new_rate;
      }
      return old;
    }
  }
  // Then the overflow chain — the row's appended tail.
  for (std::uint32_t i = overflow_head_[u]; i != kNoChain;
       i = overflow_[i].next) {
    if (overflow_[i].col == v) {
      const double old = overflow_[i].rate;
      if (new_rate <= 0.0) {
        overflow_[i].col = kDead;
        overflow_[i].rate = 0.0;
        --degree_[u];
        --live_directed_;
        ++dead_entries_;
      } else {
        overflow_[i].rate = new_rate;
      }
      return old;
    }
  }
  if (new_rate > 0.0) {
    // New pair: append at the end of the row's iteration order (where
    // vector::emplace_back put it). Tombstoned slots are never reused —
    // reuse would resurrect the entry at its *old* position and change the
    // floating-point summation order downstream.
    const auto idx = static_cast<std::uint32_t>(overflow_.size());
    overflow_.push_back({v, new_rate, kNoChain});
    if (overflow_tail_[u] == kNoChain) {
      overflow_head_[u] = idx;
    } else {
      overflow_[overflow_tail_[u]].next = idx;
    }
    overflow_tail_[u] = idx;
    ++degree_[u];
    ++live_directed_;
  }
  return 0.0;
}

void TrafficMatrix::commit_rate(VmId u, VmId v, double new_rate) {
  if (new_rate < 0.0) new_rate = 0.0;
  const double old_rate = update_directed(u, v, new_rate);
  if (old_rate == new_rate) return;  // true no-op: no bump, no notification
  update_directed(v, u, new_rate);
  ++version_;
  notify_rate_change(u, v, old_rate, new_rate);
  maybe_compact();
}

void TrafficMatrix::maybe_compact() {
  // Amortised trigger: tolerate slack proportional to both the live edge set
  // and the VM count (compaction touches every row boundary, so it must be
  // paid for by at least O(num_vms + live) mutations — that sum is exactly
  // one compaction's cost, so the amortised overhead per mutation is a
  // constant). The tolerated fraction is deliberately small: chained
  // overflow entries iterate ~4x slower than the packed segment, and
  // read-heavy phases pay that on every Eq. (1)/(2) fold, so we trade a
  // larger (still constant) amortised construction factor for near-clean
  // steady-state reads.
  if (dead_entries_ + overflow_.size() >
      16 + live_directed_ / 64 + num_vms() / 64) {
    compact();
  }
}

void TrafficMatrix::compact() {
  const std::size_t n = num_vms();
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<VmId> cols;
  std::vector<double> rates;
  cols.reserve(live_directed_);
  rates.reserve(live_directed_);
  for (VmId u = 0; u < n; ++u) {
    offsets[u] = cols.size();
    // Current iteration order: CSR segment then overflow chain, tombstones
    // skipped — re-packing in this order keeps neighbors(u) bit-identical.
    const std::uint64_t seg_end = offsets_[u + 1];
    for (std::uint64_t i = offsets_[u]; i < seg_end; ++i) {
      if (cols_[i] != kDead) {
        cols.push_back(cols_[i]);
        rates.push_back(rates_[i]);
      }
    }
    for (std::uint32_t i = overflow_head_[u]; i != kNoChain;
         i = overflow_[i].next) {
      if (overflow_[i].col != kDead) {
        cols.push_back(overflow_[i].col);
        rates.push_back(overflow_[i].rate);
      }
    }
  }
  offsets[n] = cols.size();
  offsets_ = std::move(offsets);
  cols_ = std::move(cols);
  rates_ = std::move(rates);
  overflow_.clear();
  std::fill(overflow_head_.begin(), overflow_head_.end(), kNoChain);
  std::fill(overflow_tail_.begin(), overflow_tail_.end(), kNoChain);
  dead_entries_ = 0;
  ++compactions_;
  // Logical content unchanged: no version bump, no observer notification.
}

void TrafficMatrix::notify_rate_change(VmId u, VmId v, double old_rate,
                                       double new_rate) {
  std::lock_guard<std::mutex> lock(observers_mu_);
  for (TrafficObserver* obs : observers_) {
    obs->on_rate_change(u, v, old_rate, new_rate);
  }
}

void TrafficMatrix::notify_bulk_update() {
  std::lock_guard<std::mutex> lock(observers_mu_);
  for (TrafficObserver* obs : observers_) obs->on_bulk_update();
}

void TrafficMatrix::add_observer(TrafficObserver* observer) const {
  std::lock_guard<std::mutex> lock(observers_mu_);
  if (std::find(observers_.begin(), observers_.end(), observer) ==
      observers_.end()) {
    observers_.push_back(observer);
  }
}

void TrafficMatrix::remove_observer(TrafficObserver* observer) const {
  std::lock_guard<std::mutex> lock(observers_mu_);
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void TrafficMatrix::apply(const FlowDelta& delta) {
  check(delta, num_vms());
  if (delta.delta == 0.0) return;
  commit_rate(delta.u, delta.v, rate(delta.u, delta.v) + delta.delta);
}

void TrafficMatrix::apply(const FlowDeltaBatch& batch) {
  for (const FlowDelta& d : batch) apply(d);
}

TrafficMatrix TrafficMatrix::scaled(double factor) const {
  if (!std::isfinite(factor) || factor < 0.0) {
    throw std::invalid_argument(
        "TrafficMatrix::scaled: factor must be finite and >= 0");
  }
  TrafficMatrix out(*this);
  // In place, slot by slot: both directions of a pair hold the same rate,
  // so both get the same product. A product of zero is tombstoned, as
  // apply() would remove the pair.
  auto scale_entry = [&out, factor](VmId u, VmId& col, double& rate) {
    if (col == kDead) return;
    rate *= factor;
    if (rate > 0.0) return;
    col = kDead;
    rate = 0.0;
    --out.degree_[u];
    --out.live_directed_;
    ++out.dead_entries_;
  };
  for (VmId u = 0; u < out.num_vms(); ++u) {
    for (std::uint64_t i = out.offsets_[u]; i < out.offsets_[u + 1]; ++i) {
      scale_entry(u, out.cols_[i], out.rates_[i]);
    }
    for (std::uint32_t i = out.overflow_head_[u]; i != kNoChain;
         i = out.overflow_[i].next) {
      scale_entry(u, out.overflow_[i].col, out.overflow_[i].rate);
    }
  }
  return out;
}

double TrafficMatrix::rate(VmId u, VmId v) const {
  if (u >= num_vms()) {
    throw std::out_of_range("TrafficMatrix::rate: bad VM id");
  }
  const std::uint64_t seg_end = offsets_[u + 1];
  for (std::uint64_t i = offsets_[u]; i < seg_end; ++i) {
    if (cols_[i] == v) return rates_[i];
  }
  for (std::uint32_t i = overflow_head_[u]; i != kNoChain;
       i = overflow_[i].next) {
    if (overflow_[i].col == v) return overflow_[i].rate;
  }
  return 0.0;
}

double TrafficMatrix::total_load() const {
  // Per-row iteration (not a flat array sweep) so the floating-point
  // summation order matches the previous per-VM-vector layout bit for bit.
  double total = 0.0;
  for (VmId u = 0; u < num_vms(); ++u) {
    for (const auto& [peer, rate] : neighbors(u)) {
      (void)peer;
      total += rate;
    }
  }
  return total / 2.0;
}

std::vector<std::tuple<VmId, VmId, double>> TrafficMatrix::pairs() const {
  std::vector<std::tuple<VmId, VmId, double>> out;
  out.reserve(num_pairs());
  for (VmId u = 0; u < num_vms(); ++u) {
    for (const auto& [v, rate] : neighbors(u)) {
      if (u < v) out.emplace_back(u, v, rate);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace score::traffic
