// Streaming ingest driver — event-driven re-optimisation on a live matrix.
//
// The continuous engine re-optimises at fixed epoch boundaries because its
// input arrives as per-epoch matrices. This driver consumes the raw event
// stream instead: flow up/down/rate-change deltas are folded into one live
// TrafficMatrix (and, through the TrafficObserver seam, into the bound
// CachedCostModel in O(1) per delta — no rebuilds on the ingest path), and
// re-optimisation launches only when the *cached* Eq. (2) total has drifted
// past a configurable threshold since the last optimised state. Between
// triggers the optimiser does no work at all; the cost of staying current is
// one O(1) fold per delta.
//
// Concurrency contract (the shape the TSan job locks in): the producer
// thread synthesises FlowDeltaBatches and hands them over an IngestQueue;
// the consumer — the run() thread — owns the matrix, the allocation and the
// cost cache exclusively. Batches queued while a re-optimisation runs simply
// wait (bounded staleness); the matrix is never mutated concurrently with a
// read. Apart from wall-clock, the result is deterministic: batch contents
// and arrival order are fixed by the stream seed, and drift is evaluated
// once per batch. The queue is closed and the producer joined on *every*
// exit path (including a throwing fold or re-optimisation) by an RAII
// guard, so no run() outcome leaks a joinable thread or a producer blocked
// on backpressure.
//
// Sharded ingest (ingest_shards > 1) partitions drift *attribution* per VM
// shard while the matrix stays single-owner: an observer on the live matrix
// sees each pair's effective rate transition during the apply and adds the
// shard's share of the Eq. (1) perturbation to every shard owning one of
// its endpoints,
//
//   D_t += Σ_transitions (#endpoints in shard t) · ½·pair_cost(|Δλ|, ℓ(u,v))
//
// against the allocation the apply leaves untouched — the same per-endpoint
// arithmetic the bound cache folds, so Σ_t over a transition is exactly its
// worst-case Eq. (2) movement and D_t ≥ |ΔS_t| (the shard's true
// partial-sum drift) by the triangle inequality. Each shard arms its own
// DriftTrigger on the shard's Eq. (2) partial sum. In centralized mode a
// triggered re-optimisation walks only the token shards overlapping the
// drifted shards' VM ranges (MultiTokenConfig::restrict_shards); dom0
// agents in distributed mode always walk their whole world. Attribution
// runs on the consumer thread in transition order, so it is deterministic
// under every `exec` policy.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "baselines/placement.hpp"
#include "driver/reoptimize.hpp"
#include "topology/topology.hpp"
#include "traffic/generator.hpp"
#include "traffic/ingest.hpp"

namespace score::driver {

/// Relative cost-drift trigger: fires when |current - baseline| exceeds
/// `threshold` × baseline (a dead datacenter — baseline 0 — fires on any
/// nonzero cost). Re-arm after every re-optimisation.
class DriftTrigger {
 public:
  /// Throws std::invalid_argument unless `threshold` >= 0: a NaN threshold
  /// would never fire, silently disabling re-optimisation.
  explicit DriftTrigger(double threshold);

  /// Set the reference cost drift is measured against.
  void arm(double baseline_cost) { baseline_ = baseline_cost; }

  /// |current - baseline| / baseline (relative; 0 when both are 0).
  double drift(double current_cost) const;

  bool should_reoptimize(double current_cost) const {
    return drift(current_cost) > threshold_;
  }

  double baseline() const { return baseline_; }
  double threshold() const { return threshold_; }

 private:
  double threshold_;
  double baseline_ = 0.0;
};

struct StreamingConfig : OptimizerConfig {
  // ---- scenario -------------------------------------------------------------
  /// Defines the VM fleet and the starting matrix.
  traffic::GeneratorConfig generator;
  /// Rate multiplier on the starting matrix (paper intensities ×1/×10/×50).
  double intensity_scale = 1.0;
  baselines::PlacementStrategy placement = baselines::PlacementStrategy::kRandom;
  core::ServerCapacity server_capacity;
  core::VmSpec vm_spec;
  std::uint64_t placement_seed = 7;

  // ---- ingest ---------------------------------------------------------------
  /// Synthetic flow-event source (one batch per tick).
  traffic::FlowEventConfig events;
  /// Number of ingest ticks to consume.
  std::size_t ticks = 64;
  /// IngestQueue bound: a producer that outruns the folds blocks once this
  /// many batches are waiting (0 = unbounded). Bounds peak memory and the
  /// staleness window while a re-optimisation holds the consumer.
  std::size_t queue_capacity = 0;

  // ---- drift-triggered re-optimisation -------------------------------------
  /// Relative drift of the cached total that launches a re-optimisation.
  double drift_threshold = 0.05;
  /// Token-round budget per triggered re-opt (stability may stop earlier).
  std::size_t iterations_per_reopt = 4;

  // ---- fresh re-optimisation reference -------------------------------------
  /// Compute the per-event fresh reference (fresh placement re-optimised to
  /// stability on the matrix snapshot). Costs a full optimisation per
  /// trigger; disable for pure throughput runs.
  bool fresh_reference = true;

  // ---- sharded ingest + partial re-optimisation ----------------------------
  /// > 1 partitions drift attribution per VM shard with one DriftTrigger per
  /// shard, and in centralized mode confines each triggered re-optimisation
  /// to the drifted shards (see the module comment). 1 (the default) keeps
  /// the single global drift scalar.
  std::size_t ingest_shards = 1;

  // ---- diagnostics ---------------------------------------------------------
  /// Optional observer registered on the live matrix for the whole run (not
  /// owned). Sees every effective rate transition the ingest path commits;
  /// may throw to abort the run — the engine still joins the producer and
  /// propagates. Must tolerate on_bulk_update/on_matrix_destroyed.
  traffic::TrafficObserver* tap = nullptr;
};

/// One drift-triggered re-optimisation.
struct ReoptEvent {
  std::size_t tick = 0;       ///< ingest tick whose batch tripped the trigger
  double drift = 0.0;         ///< relative drift at the trigger
  double cost_before = 0.0;   ///< cached total when triggered
  double cost_after = 0.0;    ///< after the token rounds
  double fresh_cost = 0.0;    ///< fresh-placement reference (0 if disabled)
  bool fresh_computed = false;  ///< fresh_cost is a real reference
  std::size_t migrations = 0;
  std::size_t rounds = 0;
  bool partial = false;  ///< token rounds confined to drifted shards
  /// Ingest-shard indices whose triggers fired (sharded mode; empty for the
  /// global scalar trigger).
  std::vector<std::size_t> drifted_shards;

  /// fresh_ratio(): NaN when the reference is disabled or both costs are 0,
  /// +infinity for a computed zero reference beaten by a nonzero cost.
  double cost_ratio() const {
    return fresh_ratio(cost_after, fresh_cost, fresh_computed);
  }
  bool cost_ratio_defined() const { return !std::isnan(cost_ratio()); }
};

struct StreamingReport {
  std::size_t ticks = 0;
  std::uint64_t deltas_applied = 0;  ///< deltas pushed through apply()
  std::uint64_t deltas_folded = 0;   ///< folded O(1) via the observer seam
  std::uint64_t cache_rebuilds = 0;  ///< full rebuilds of the bound cache
  std::size_t max_queue_depth = 0;   ///< IngestQueue high-water mark
  std::vector<ReoptEvent> reopts;
  double initial_cost = 0.0;  ///< after the initial optimisation
  double final_cost = 0.0;
  double final_fresh_cost = 0.0;    ///< fresh reference on the final matrix
  bool final_fresh_computed = false;  ///< final_fresh_cost is a real reference

  // ---- sharded ingest ------------------------------------------------------
  std::size_t ingest_shards = 1;   ///< shard count the run used
  std::size_t partial_reopts = 0;  ///< reopts with restricted rounds

  // ---- latency percentiles -------------------------------------------------
  /// One sample per consumed batch: apply (with sharded drift attribution)
  /// plus folding the batch's attribution into the shard accumulators.
  std::vector<double> fold_latency_ns;
  /// One sample per per-batch trigger decision (drift evaluation only).
  std::vector<double> trigger_latency_ns;
  double fold_p50_ns() const;
  double fold_p99_ns() const;
  double trigger_p50_ns() const;
  double trigger_p99_ns() const;

  double deltas_per_reopt() const {
    return reopts.empty() ? static_cast<double>(deltas_applied)
                          : static_cast<double>(deltas_applied) /
                                static_cast<double>(reopts.size());
  }

  /// Worst *defined* cost ratio over every trigger and the final state
  /// (+infinity counts as defined: zero reference, nonzero cost). Quiet NaN
  /// when no ratio is defined — callers that gate on this must check
  /// undefined_cost_ratios() / NaN instead of assuming a benign 1.0, which
  /// is exactly the masking the old implementation baked in.
  double max_cost_ratio() const;
  /// Ratios (triggers + final state) with no defined value.
  std::size_t undefined_cost_ratios() const;
};

class StreamingEngine {
 public:
  /// `topology` must outlive the engine. One server per topology host.
  /// Throws std::invalid_argument on a config run() cannot honour (fewer
  /// than 2 VMs, an unknown mode, a negative or NaN drift threshold).
  StreamingEngine(const topo::Topology& topology, StreamingConfig config);

  /// Producer thread streams batches over an IngestQueue; the calling thread
  /// consumes them, folds deltas, and re-optimises on drift triggers.
  StreamingReport run();

 private:
  const topo::Topology* topology_;
  StreamingConfig config_;
};

}  // namespace score::driver
