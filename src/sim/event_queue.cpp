#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>

namespace score::sim {

void EventQueue::schedule_at(double when, EventFn fn) {
  // Negated so a NaN time is rejected too: it would stop run_until at the
  // heap's front with every later event still pending.
  if (!(when >= now_)) {
    throw std::invalid_argument(
        "EventQueue::schedule_at: time in the past or NaN");
  }
  heap_.push_back(Entry{when, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // (when, seq) is a total order, so the event popped is the same whatever
  // the heap layout. Moving it out spares copying the callback and whatever
  // it captured (a message payload, the O(|V|) token frame).
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  now_ = e.when;
  e.fn();
  return true;
}

void EventQueue::run_until(double until) {
  while (!heap_.empty() && heap_.front().when <= until) {
    step();
  }
  if (until != std::numeric_limits<double>::infinity() && now_ < until) {
    now_ = until;
  }
}

}  // namespace score::sim
