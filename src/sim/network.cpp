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
  queue_->schedule_in(latency, [this, m = std::move(msg)]() {
    const Handler& handler = handlers_[m.dst];
    if (handler) {
      handler(m);
    } else {
      ++dropped_;
    }
  });
}

}  // namespace score::sim
