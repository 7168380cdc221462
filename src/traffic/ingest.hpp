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
// trigger").
//
// diff_batch() bridges the two worlds: it expresses one matrix as additive
// deltas against another, choosing each delta so the reconstruction
// `from.rate + delta` rounds to *exactly* `to.rate` — applying the batch to
// a copy of `from` reproduces `to` bit-for-bit (pairs() equality), which is
// what lets TrafficDynamics materialise epochs through the delta path
// without moving golden traces.
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

/// Additive deltas transforming `from` into `to` (changed pairs only, in
/// pairs() order). Deltas are ulp-adjusted — and fall back to an exact
/// retract-then-re-add pair when no single representable delta lands — so
/// applying the batch to a copy of `from` yields a matrix whose pairs()
/// equal `to`'s exactly.
///
/// The merge walk requires both pairs() lists strictly increasing by (u, v)
/// key — TrafficMatrix::pairs() guarantees this in any layout state, with
/// row slack and moved rows (it sorts on the way out), and
/// diff_batch verifies it (throws std::logic_error on violation) rather
/// than silently misclassifying vanished/new pairs if a future matrix
/// layout ever breaks the guarantee.
FlowDeltaBatch diff_batch(const TrafficMatrix& from, const TrafficMatrix& to);

/// The additive delta d with fl(from + d) == to, when one exists within a
/// few ulps of to - from. Guaranteed exact when to is within [from/2,
/// 2*from] (Sterbenz); diff_batch handles the cases where no exact single
/// delta exists. Exposed for tests.
double exact_delta(double from, double to);

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

  std::size_t num_flows() const { return flows_.size(); }

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

/// VM id → shard index router for the sharded ingest path: the same
/// contiguous carve-up as core::partition_vms (first `num_vms % shards`
/// shards get one extra id), computed arithmetically so a lookup is O(1)
/// with no table — the streaming engine's drift attribution calls it once
/// per endpoint of every effective transition. core remains the owner of
/// the VmRange view; test_streaming locks the two in agreement.
class ShardMap {
 public:
  /// `shards` is clamped to [1, num_vms]; num_vms must be > 0.
  ShardMap(std::size_t num_vms, std::size_t shards);

  std::size_t shard_of(VmId u) const {
    const std::size_t id = u;
    return id < boundary_ ? id / (base_ + 1)
                          : extra_ + (id - boundary_) / base_;
  }

  std::size_t num_shards() const { return shards_; }
  std::size_t num_vms() const { return num_vms_; }

 private:
  std::size_t num_vms_;
  std::size_t shards_;
  std::size_t base_;      ///< num_vms / shards
  std::size_t extra_;     ///< num_vms % shards (shards holding base_+1 ids)
  std::size_t boundary_;  ///< first id owned by a base_-sized shard
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
