// Host-to-host message transport over the event queue — the fabric the
// distributed S-CORE control plane (tokens, location probes, capacity
// probes, §V-B) runs on.
//
// Delivery latency is proportional to the hop count between the endpoints'
// hosts (kPerHopLatencyS per hop; same-host delivery still pays
// kLoopbackLatencyS), matching how the paper's control messages traverse the
// same tree as data traffic. Messages between a fixed pair are delivered in
// FIFO order (the event queue breaks timestamp ties by scheduling order).
//
// Delivery contract: a delivered message belongs to its handler. The handler
// receives it by const reference, but `payload` is mutable so the handler
// may take the bytes by move (a dom0 agent adopts the O(|V|) token frame
// that way instead of copying it). Nothing reads the message after its
// handler returns. The observer sees every message at send time, before the
// fabric takes it over, and must only read it.
//
// In-flight messages wait in a slot pool (a vector plus a free list): the
// delivery event carries only the slot index, so scheduling it allocates
// nothing, and the pool holds only messages still on the wire.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace score::sim {

/// Control-message latency per hop between the endpoints' hosts.
inline constexpr double kPerHopLatencyS = 50e-6;
/// Same-host delivery latency.
inline constexpr double kLoopbackLatencyS = 5e-6;

struct Message {
  topo::HostId src = 0;
  topo::HostId dst = 0;
  int type = 0;  ///< application-defined discriminator
  /// Application-defined wire bytes. Mutable so the delivery handler may
  /// take them (see the delivery contract above); no one else may.
  mutable std::vector<std::uint8_t> payload;
};

class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  Network(EventQueue& queue, const topo::Topology& topology)
      : queue_(&queue), topo_(&topology), handlers_(topology.num_hosts()) {}

  /// Install the dom0 message handler for a host. One handler per host.
  void attach(topo::HostId host, Handler handler) {
    handlers_.at(host) = std::move(handler);
  }

  /// Remove a host's handler (host churn: a departed host). Subsequent
  /// messages to it are dropped and counted, exactly like a host that never
  /// attached.
  void detach(topo::HostId host) { handlers_.at(host) = nullptr; }

  /// True when the host currently has a handler installed.
  bool attached(topo::HostId host) const {
    return static_cast<bool>(handlers_.at(host));
  }

  /// Send a message; it is delivered to the destination host's handler after
  /// the path latency. Messages to hosts without a handler are dropped
  /// (counted).
  void send(Message msg);

  /// Inject random message loss (fault injection for protocol-robustness
  /// tests): each message is independently dropped with probability `rate`.
  void set_loss(double rate, std::uint64_t seed = 1) {
    loss_rate_ = rate;
    loss_rng_.seed(seed);
  }

  /// Observer invoked synchronously for every send() after the loss roll —
  /// the determinism seam: recording (message, lost) pairs in send order
  /// yields a reproducible wire trace for a fixed seed. It must not take
  /// the payload.
  using Observer = std::function<void(const Message&, bool lost)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_dropped() const { return dropped_; }
  std::uint64_t messages_lost() const { return lost_; }
  std::uint64_t bytes_sent() const { return bytes_; }

 private:
  void deliver(std::size_t slot);

  EventQueue* queue_;
  const topo::Topology* topo_;
  std::vector<Handler> handlers_;
  Observer observer_;
  std::vector<Message> in_flight_;       ///< slot pool of undelivered messages
  std::vector<std::size_t> free_slots_;  ///< slots of delivered messages
  double loss_rate_ = 0.0;
  util::Rng loss_rng_{1};
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace score::sim
