#include "sim/network.hpp"

namespace score::sim {

void Network::send(Message msg) {
  ++sent_;
  bytes_ += msg.payload.size();
  const bool lost = loss_rate_ > 0.0 && loss_rng_.chance(loss_rate_);
  if (observer_) observer_(msg, lost);
  if (lost) {
    ++lost_;
    return;
  }
  const int hops = topo_->hop_count(msg.src, msg.dst);
  const double latency =
      hops == 0 ? kLoopbackLatencyS : kPerHopLatencyS * hops;
  std::size_t slot = in_flight_.size();
  if (free_slots_.empty()) {
    in_flight_.push_back(std::move(msg));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    in_flight_[slot] = std::move(msg);
  }
  queue_->schedule_in(latency, [this, slot] { deliver(slot); });
}

void Network::deliver(std::size_t slot) {
  // Out of the pool before the handler runs: a handler that sends may grow
  // the pool, and its sends may reuse this slot.
  const Message msg = std::move(in_flight_[slot]);
  free_slots_.push_back(slot);
  const Handler& handler = handlers_[msg.dst];
  if (handler) {
    handler(msg);
  } else {
    ++dropped_;
  }
}

}  // namespace score::sim
