#include "traffic/ingest.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace score::traffic {

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
