#include "traffic/ingest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace score::traffic {

double exact_delta(double from, double to) {
  double d = to - from;
  // fl(from + d) is monotonic in d, so walk d one ulp at a time toward the
  // target. IEEE subtraction is already exact (Sterbenz) whenever
  // from/2 <= to <= 2*from — the common case for jittered rates — so the
  // loop almost never iterates.
  for (int i = 0; i < 8 && from + d != to; ++i) {
    d = std::nextafter(d, from + d < to
                              ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity());
  }
  return d;
}

FlowDeltaBatch diff_batch(const TrafficMatrix& from, const TrafficMatrix& to) {
  if (from.num_vms() != to.num_vms()) {
    throw std::invalid_argument("diff_batch: size mismatch");
  }
  FlowDeltaBatch batch;
  // Walk both sorted pair lists; emit one delta per pair whose rate differs.
  const auto fp = from.pairs();
  const auto tp = to.pairs();
  std::size_t i = 0;
  std::size_t j = 0;
  auto key = [](const std::tuple<VmId, VmId, double>& p) {
    return std::make_pair(std::get<0>(p), std::get<1>(p));
  };
  // The merge below silently misclassifies vanished/new pairs if either list
  // is not strictly increasing by key. pairs() sorts on the way out of the
  // CSR+overflow layout, so this holds today for any compaction state — make
  // the precondition loud instead of trusting every future layout change.
  auto check_sorted = [&key](const auto& pairs, const char* which) {
    for (std::size_t k = 1; k < pairs.size(); ++k) {
      if (!(key(pairs[k - 1]) < key(pairs[k]))) {
        throw std::logic_error(std::string("diff_batch: ") + which +
                               ".pairs() not strictly key-sorted");
      }
    }
  };
  check_sorted(fp, "from");
  check_sorted(tp, "to");
  while (i < fp.size() || j < tp.size()) {
    if (j == tp.size() || (i < fp.size() && key(fp[i]) < key(tp[j]))) {
      // Pair vanished: drive it exactly to zero (apply() removes it).
      batch.push(std::get<0>(fp[i]), std::get<1>(fp[i]), -std::get<2>(fp[i]));
      ++i;
    } else if (i == fp.size() || key(tp[j]) < key(fp[i])) {
      // New pair: the rate itself is the exact delta from zero.
      batch.push(std::get<0>(tp[j]), std::get<1>(tp[j]), std::get<2>(tp[j]));
      ++j;
    } else {
      const double before = std::get<2>(fp[i]);
      const double after = std::get<2>(tp[j]);
      if (before != after) {
        const double d = exact_delta(before, after);
        if (before + d == after) {
          batch.push(std::get<0>(tp[j]), std::get<1>(tp[j]), d);
        } else {
          // No single representable delta lands exactly (the ulp grid at
          // |d| is coarser than at |after| when magnitudes differ widely):
          // retract to exactly zero, then re-add the exact target rate.
          batch.push(std::get<0>(tp[j]), std::get<1>(tp[j]), -before);
          batch.push(std::get<0>(tp[j]), std::get<1>(tp[j]), after);
        }
      }
      ++i;
      ++j;
    }
  }
  return batch;
}

FlowEventStream::FlowEventStream(const TrafficMatrix& initial,
                                 const FlowEventConfig& config)
    : config_(config), num_vms_(initial.num_vms()), rng_(config.seed) {
  if (num_vms_ < 2) {
    throw std::invalid_argument("FlowEventStream: need at least 2 VMs");
  }
  for (const auto& [u, v, rate] : initial.pairs()) {
    flows_.push_back({u, v, rate});
  }
}

FlowDeltaBatch FlowEventStream::next_batch() {
  FlowDeltaBatch batch;
  batch.reserve(config_.events_per_tick);
  for (std::size_t e = 0; e < config_.events_per_tick; ++e) {
    const double draw = rng_.uniform();
    if (flows_.empty() || draw < config_.new_flow_prob) {
      // Flow up: a fresh rate between a random VM pair. Duplicate pairs are
      // fine — deltas accumulate additively on the matrix, and the mirror
      // tracks each emitted flow's own contribution.
      const VmId a = static_cast<VmId>(rng_.index(num_vms_));
      VmId b = static_cast<VmId>(rng_.index(num_vms_));
      if (a == b) b = (b + 1) % static_cast<VmId>(num_vms_);
      const double rate =
          rng_.lognormal(config_.new_flow_rate_mu, config_.new_flow_rate_sigma);
      flows_.push_back({a, b, rate});
      batch.push(a, b, rate);
    } else if (draw < config_.new_flow_prob + config_.drop_flow_prob) {
      // Flow down: retract exactly this flow's contribution (swap-pop keeps
      // the pick O(1); order inside the mirror is irrelevant).
      const std::size_t i = rng_.index(flows_.size());
      batch.push(flows_[i].u, flows_[i].v, -flows_[i].rate);
      flows_[i] = flows_.back();
      flows_.pop_back();
    } else {
      // Rate change: multiplicative log-normal jitter on one flow.
      const std::size_t i = rng_.index(flows_.size());
      const double jitter = std::exp(rng_.normal(0.0, config_.rate_jitter_sigma));
      const double next = flows_[i].rate * jitter;
      batch.push(flows_[i].u, flows_[i].v, next - flows_[i].rate);
      flows_[i].rate = next;
    }
  }
  return batch;
}

void IngestQueue::push(FlowDeltaBatch batch) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [this] {
      return closed_ || capacity_ == 0 || queue_.size() < capacity_;
    });
    if (closed_) throw std::logic_error("IngestQueue: push after close");
    queue_.push_back(std::move(batch));
    max_depth_ = std::max(max_depth_, queue_.size());
  }
  cv_.notify_one();
}

bool IngestQueue::pop(FlowDeltaBatch& out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // closed and drained
  out = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  space_cv_.notify_one();
  return true;
}

void IngestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  space_cv_.notify_all();
}

std::size_t IngestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t IngestQueue::max_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_depth_;
}

}  // namespace score::traffic
