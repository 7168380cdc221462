// Discrete-event simulation substrate (stand-in for the paper's ns-3 usage).
//
// The paper drives S-CORE inside ns-3: token messages, hypervisor
// applications and migrations are events on a simulated clock. We provide the
// same facility as a minimal event queue: callbacks scheduled at absolute
// simulated times, executed in time order (FIFO among equal timestamps).
// The message-passing fabric (sim/network) and the distributed runtime on it
// (hypervisor/distributed_runtime) run on top of this.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

namespace score::sim {

using EventFn = std::function<void()>;

class EventQueue {
 public:
  /// Current simulated time (seconds). Starts at 0.
  double now() const { return now_; }

  /// Schedule `fn` at absolute time `when`. Throws std::invalid_argument
  /// unless when >= now() (so a NaN time is rejected).
  void schedule_at(double when, EventFn fn);

  /// Schedule `fn` `delay` seconds from now (delay >= 0).
  void schedule_in(double delay, EventFn fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// True when no events remain.
  bool empty() const { return heap_.empty(); }

  std::size_t pending() const { return heap_.size(); }

  /// Run the next event, advancing the clock. Returns false when empty.
  bool step();

  /// Run until the queue drains or the clock passes `until` (inclusive).
  /// Events scheduled beyond `until` remain pending.
  void run_until(double until);

  /// Run until the queue drains.
  void run() { run_until(std::numeric_limits<double>::infinity()); }

 private:
  struct Entry {
    double when;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  /// Binary heap under Later (std::push_heap / std::pop_heap), so step()
  /// can move the next event out instead of copying it.
  std::vector<Entry> heap_;
};

}  // namespace score::sim
