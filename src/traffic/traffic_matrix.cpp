#include "traffic/traffic_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>

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
    : offsets_(num_vms, 0), degree_(num_vms, 0), capacity_(num_vms, 0) {
  // Count: capacity_[u] bounds row u's length from above (a repeated pair
  // counts once per listing). Zero rates are skipped, as apply() skips a
  // zero delta, so they never fix a pair's position.
  for (const FlowDelta& f : flows) {
    check(f, num_vms);
    if (f.delta < 0.0) {
      throw std::invalid_argument("TrafficMatrix: negative rate");
    }
    if (f.delta == 0.0) continue;
    ++capacity_[f.u];
    ++capacity_[f.v];
  }
  std::uint64_t bound = 0;
  for (std::size_t u = 0; u < num_vms; ++u) {
    offsets_[u] = bound;
    bound += capacity_[u];
  }
  cols_.resize(bound);
  rates_.resize(bound);

  // Fill: rows grow from offsets_[u] in list order; degree_[u] is the fill.
  // Both directions sum the same rates in the same order, so they agree bit
  // for bit.
  auto accumulate = [this](VmId u, VmId v, double rate) {
    const std::uint64_t slot = find(u, v);
    if (slot < offsets_[u] + degree_[u]) {
      rates_[slot] += rate;
      return;
    }
    cols_[slot] = v;
    rates_[slot] = rate;
    ++degree_[u];
  };
  for (const FlowDelta& f : flows) {
    if (f.delta == 0.0) continue;
    accumulate(f.u, f.v, f.delta);
    accumulate(f.v, f.u, f.delta);
  }
  flows = FlowDeltaBatch();

  // Squeeze: slide each row down over the slack its repeats left behind
  // (packed <= begin, so a forward copy is safe). No row keeps any slack.
  std::uint64_t packed = 0;
  for (std::size_t u = 0; u < num_vms; ++u) {
    const std::uint64_t begin = offsets_[u];
    offsets_[u] = packed;
    capacity_[u] = degree_[u];
    std::copy_n(cols_.begin() + begin, degree_[u], cols_.begin() + packed);
    std::copy_n(rates_.begin() + begin, degree_[u], rates_.begin() + packed);
    packed += degree_[u];
  }
  if (packed < cols_.size()) {
    cols_.resize(packed);
    rates_.resize(packed);
    cols_.shrink_to_fit();
    rates_.shrink_to_fit();
  }
  reserved_ = packed;
  live_directed_ = packed;
}

// A copy's arrays have no spare capacity to grow into, so its reserved size
// is its used end: its first move past that compacts.
TrafficMatrix::TrafficMatrix(const TrafficMatrix& other)
    : offsets_(other.offsets_),
      degree_(other.degree_),
      capacity_(other.capacity_),
      cols_(other.cols_),
      rates_(other.rates_),
      reserved_(cols_.size()),
      live_directed_(other.live_directed_),
      compactions_(other.compactions_),
      version_(other.version_) {}

TrafficMatrix::TrafficMatrix(TrafficMatrix&& other) noexcept
    : offsets_(std::move(other.offsets_)),
      degree_(std::move(other.degree_)),
      capacity_(std::move(other.capacity_)),
      cols_(std::move(other.cols_)),
      rates_(std::move(other.rates_)),
      reserved_(std::exchange(other.reserved_, 0)),
      live_directed_(std::exchange(other.live_directed_, 0)),
      compactions_(other.compactions_),
      version_(other.version_) {
  other.offsets_.clear();
  other.degree_.clear();
  other.capacity_.clear();
  other.cols_.clear();
  other.rates_.clear();
  ++other.version_;
}

TrafficMatrix& TrafficMatrix::operator=(const TrafficMatrix& other) {
  if (this == &other) return *this;
  offsets_ = other.offsets_;
  degree_ = other.degree_;
  capacity_ = other.capacity_;
  cols_ = other.cols_;
  rates_ = other.rates_;
  reserved_ = cols_.size();
  live_directed_ = other.live_directed_;
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
  degree_ = std::move(other.degree_);
  capacity_ = std::move(other.capacity_);
  cols_ = std::move(other.cols_);
  rates_ = std::move(other.rates_);
  reserved_ = std::exchange(other.reserved_, 0);
  live_directed_ = std::exchange(other.live_directed_, 0);
  compactions_ = other.compactions_;
  other.offsets_.clear();
  other.degree_.clear();
  other.capacity_.clear();
  other.cols_.clear();
  other.rates_.clear();
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
  return NeighborView(cols_.data() + offsets_[u], rates_.data() + offsets_[u],
                      degree_[u]);
}

std::uint64_t TrafficMatrix::find(VmId u, VmId v) const {
  const std::uint64_t end = offsets_[u] + degree_[u];
  std::uint64_t slot = offsets_[u];
  while (slot < end && cols_[slot] != v) ++slot;
  return slot;
}

void TrafficMatrix::store(VmId u, std::uint64_t slot, VmId v, double rate) {
  const std::uint64_t end = offsets_[u] + degree_[u];
  if (slot < end) {
    if (rate > 0.0) {
      rates_[slot] = rate;  // overwrite in place keeps position
      return;
    }
    // Erase: the survivors slide left and keep their relative order, as
    // vector::erase kept it.
    std::copy(cols_.begin() + slot + 1, cols_.begin() + end,
              cols_.begin() + slot);
    std::copy(rates_.begin() + slot + 1, rates_.begin() + end,
              rates_.begin() + slot);
    --degree_[u];
    --live_directed_;
    return;
  }
  // New pair: the end of the row (where vector::emplace_back put it). A pair
  // erased earlier never returns to its old slot — that would change the
  // floating-point summation order downstream.
  if (degree_[u] == capacity_[u]) grow(u);
  const std::uint64_t at = offsets_[u] + degree_[u];
  cols_[at] = v;
  rates_[at] = rate;
  ++degree_[u];
  ++live_directed_;
}

void TrafficMatrix::grow(VmId u) {
  const std::uint32_t cap = capacity_[u];
  const std::uint32_t grown = cap + std::max<std::uint32_t>(cap / 2, 2);
  const std::uint64_t used = cols_.size();
  const bool last = offsets_[u] + cap == used;  // grows in place
  const std::uint64_t needed = used + grown - (last ? cap : 0);
  if (needed > reserved_) {
    compact();  // leaves every row at least one free slot
    return;
  }
  cols_.resize(needed);
  rates_.resize(needed);
  if (!last) {
    // Move to the arena's end; the old slots become garbage.
    std::copy_n(cols_.begin() + offsets_[u], degree_[u], cols_.begin() + used);
    std::copy_n(rates_.begin() + offsets_[u], degree_[u],
                rates_.begin() + used);
    offsets_[u] = used;
  }
  capacity_[u] = grown;
}

void TrafficMatrix::compact() {
  const std::size_t n = num_vms();
  const auto padded = [](std::uint32_t degree) {
    return degree + degree / 8 + 1;
  };
  std::uint64_t packed = 0;
  for (std::size_t u = 0; u < n; ++u) packed += padded(degree_[u]);
  const std::uint64_t reserved = packed + packed / 8;
  std::vector<VmId> cols;
  std::vector<double> rates;
  cols.reserve(reserved);
  rates.reserve(reserved);
  // One column at a time: each old array is freed before the next new one
  // is written, so the old and new arenas are never both resident in full.
  auto repack = [&](auto& column, auto& fresh) {
    fresh.resize(packed);
    std::uint64_t at = 0;
    for (std::size_t u = 0; u < n; ++u) {
      std::copy_n(column.begin() + offsets_[u], degree_[u], fresh.begin() + at);
      at += padded(degree_[u]);
    }
    column = std::move(fresh);
  };
  repack(cols_, cols);
  repack(rates_, rates);
  std::uint64_t at = 0;
  for (std::size_t u = 0; u < n; ++u) {
    offsets_[u] = at;
    capacity_[u] = padded(degree_[u]);
    at += capacity_[u];
  }
  reserved_ = reserved;
  ++compactions_;
  // Logical content unchanged: no version bump, no observer notification.
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

void TrafficMatrix::fold(const FlowDelta& d) {
  if (d.delta == 0.0) return;
  // One scan of row u finds both the slot and the old rate.
  const std::uint64_t slot = find(d.u, d.v);
  const double old_rate =
      slot < offsets_[d.u] + degree_[d.u] ? rates_[slot] : 0.0;
  double new_rate = old_rate + d.delta;
  if (new_rate < 0.0) new_rate = 0.0;
  if (old_rate == new_rate) return;  // true no-op: no bump, no notification
  store(d.u, slot, d.v, new_rate);
  store(d.v, find(d.v, d.u), d.u, new_rate);
  ++version_;
  for (TrafficObserver* obs : observers_) {
    obs->on_rate_change(d.u, d.v, old_rate, new_rate);
  }
}

void TrafficMatrix::apply(const FlowDelta& delta) {
  check(delta, num_vms());
  std::lock_guard<std::mutex> lock(observers_mu_);
  fold(delta);
}

void TrafficMatrix::apply(const FlowDeltaBatch& batch) {
  for (const FlowDelta& d : batch) check(d, num_vms());
  std::lock_guard<std::mutex> lock(observers_mu_);
  for (const FlowDelta& d : batch) fold(d);
}

TrafficMatrix TrafficMatrix::scaled(double factor) const {
  if (!std::isfinite(factor) || factor < 0.0) {
    throw std::invalid_argument(
        "TrafficMatrix::scaled: factor must be finite and >= 0");
  }
  TrafficMatrix out(*this);
  // In place, slot by slot: both directions of a pair hold the same rate,
  // so both get the same product. A product of zero is erased, as apply()
  // would remove the pair, and the survivors keep their order.
  for (VmId u = 0; u < out.num_vms(); ++u) {
    const std::uint64_t begin = out.offsets_[u];
    std::uint32_t kept = 0;
    for (std::uint32_t k = 0; k < out.degree_[u]; ++k) {
      const double rate = out.rates_[begin + k] * factor;
      if (rate > 0.0) {
        out.cols_[begin + kept] = out.cols_[begin + k];
        out.rates_[begin + kept] = rate;
        ++kept;
      }
    }
    out.live_directed_ -= out.degree_[u] - kept;
    out.degree_[u] = kept;
  }
  return out;
}

double TrafficMatrix::rate(VmId u, VmId v) const {
  if (u >= num_vms() || v >= num_vms()) {
    throw std::out_of_range("TrafficMatrix::rate: bad VM id");
  }
  const std::uint64_t slot = find(u, v);
  return slot < offsets_[u] + degree_[u] ? rates_[slot] : 0.0;
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
