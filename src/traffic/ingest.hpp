// Streaming flow-event ingest — the event-driven face of traffic dynamics.
//
// Where TrafficDynamics models epoch-granularity evolution (matrices per
// measurement window), this module models the raw event stream underneath:
// individual flows coming up, going down, and changing rate between windows.
// FlowEventStream synthesises a deterministic sequence of FlowDeltaBatches
// against a starting matrix; IngestQueue carries batches from a producer
// (a collector thread, a synthetic stream) to the consumer that owns the
// TrafficMatrix. The consumer applies batches at its own pace — the cost
// caches fold each delta through the TrafficObserver seam, so ingest never
// forces a global rebuild (see ARCHITECTURE.md, "Streaming ingest & drift
// trigger"). The two generators are independent: TrafficDynamics builds each
// epoch whole, and no epoch is expressed as a batch.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "traffic/flow_delta.hpp"
#include "traffic/traffic_matrix.hpp"
#include "util/rng.hpp"

namespace score::traffic {

struct FlowEventConfig {
  /// Flow events synthesised per tick (one tick -> one FlowDeltaBatch).
  std::size_t events_per_tick = 1024;
  /// P(event is a new flow coming up between a random VM pair).
  double new_flow_prob = 0.15;
  /// P(event is an existing flow going down). The remaining mass is a
  /// multiplicative rate change of an existing flow.
  double drop_flow_prob = 0.10;
  /// Sigma of the log-normal multiplicative rate jitter.
  double rate_jitter_sigma = 0.3;
  /// ln-space mu/sigma of new-flow rates (mice-like by default).
  double new_flow_rate_mu = 0.0;
  double new_flow_rate_sigma = 1.0;
  std::uint64_t seed = 97;
};

/// Deterministic synthetic flow-event source. Tracks its own mirror of the
/// flow population (one entry per emitted flow; entries for the same VM pair
/// accumulate additively, matching TrafficMatrix::apply semantics), so
/// generation is O(events) per tick and never reads the live matrix.
class FlowEventStream {
 public:
  /// Seeds the mirror from `initial`'s pairs. The stream holds no reference
  /// to the matrix afterwards.
  FlowEventStream(const TrafficMatrix& initial, const FlowEventConfig& config);

  /// Synthesise the next tick's batch. Applying every batch in order to the
  /// initial matrix keeps matrix and mirror consistent: rates never clamp.
  FlowDeltaBatch next_batch();

 private:
  struct Flow {
    VmId u;
    VmId v;
    double rate;
  };

  FlowEventConfig config_;
  std::size_t num_vms_;
  std::vector<Flow> flows_;
  util::Rng rng_;
};

/// Handoff of delta batches between one or more producers and the consumer
/// that owns the TrafficMatrix. All operations are mutex-protected; pop()
/// blocks until a batch arrives or the queue is closed and drained.
///
/// A nonzero `capacity` bounds the queue: push() blocks while the queue is
/// full, so a collector that outpaces the consumer is throttled to the fold
/// rate instead of growing the backlog without limit (backpressure). The
/// high-water mark is tracked as max_depth() — a bounded queue's depth can
/// never exceed its capacity, which the streaming-ingest bench gates.
class IngestQueue {
 public:
  /// `capacity` 0 (the default) leaves the queue unbounded.
  explicit IngestQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Blocks while a bounded queue is full. Throws std::logic_error on a
  /// closed queue — including when close() lands while blocked on space
  /// (the batch is not enqueued).
  void push(FlowDeltaBatch batch);

  /// Blocking pop: false iff the queue is closed and fully drained (the
  /// consumer's termination signal).
  bool pop(FlowDeltaBatch& out);

  /// No more pushes will arrive; wakes blocked consumers and producers.
  void close();

  std::size_t size() const;

  /// Configured bound (0 = unbounded).
  std::size_t capacity() const { return capacity_; }

  /// High-water mark of size() observed after any push so far.
  std::size_t max_depth() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;        ///< consumers: not-empty or closed
  std::condition_variable space_cv_;  ///< producers: below capacity or closed
  std::deque<FlowDeltaBatch> queue_;
  std::size_t capacity_ = 0;
  std::size_t max_depth_ = 0;
  bool closed_ = false;
};

}  // namespace score::traffic
