// Per-layer probes, run after a traced execution. Each one times calls into
// one layer's public API from outside, on the workload's own world; none of
// them reaches inside src/.
#pragma once

#include <cstdint>
#include <vector>

#include "driver/simulation.hpp"
#include "traffic/ingest.hpp"
#include "world.hpp"

namespace perfbench {

struct CoreProbe {
  double evaluate_ns = 0.0;        ///< MigrationEngine::evaluate, per VM
  double begin_pass_full_s = 0.0;  ///< 4-shard snapshot copy + rebind
  double begin_pass_incr_s = 0.0;  ///< resync of `touched` VMs
  double reconcile_s = 0.0;        ///< true Eq. (2) from shard partial sums
  std::size_t touched = 0;
};

/// `final_alloc` is the state a token run ended in and `log` its commit log;
/// the incremental resync replays the VMs that migrated in the log's last
/// pass with commits, between the pass-start and the final placement.
CoreProbe probe_core(const topo::Topology& topology,
                     const core::Allocation& final_alloc,
                     const traffic::TrafficMatrix& tm,
                     const std::vector<score::driver::MigrationRecord>& log);

struct TrafficProbe {
  double next_batch_ns = 0.0;       ///< FlowEventStream::next_batch, per call
  double apply_ns_per_delta = 0.0;  ///< TrafficMatrix::apply + cache fold
  std::vector<double> batch_ns;     ///< the same, per replayed batch
  std::uint64_t deltas = 0;
  std::uint64_t compactions = 0;
  std::uint64_t overflow_entries = 0;
  double final_cost = 0.0;  ///< Eq. (2) of the replayed matrix, same placement
};

/// Records `ticks` batches of the event stream `events` over `tm`, then
/// replays them into a copy of (alloc, tm) bound to a CachedCostModel.
TrafficProbe probe_traffic(const topo::Topology& topology,
                           const core::Allocation& alloc,
                           const traffic::TrafficMatrix& tm,
                           const traffic::FlowEventConfig& events,
                           std::size_t ticks);

/// encode_token + decode_token of one framed token with `num_vms` entries,
/// in microseconds.
double probe_token_codec_us(std::size_t num_vms);

struct SimProbe {
  double msg_ns = 0.0;        ///< Network::send + EventQueue::step, probe-sized
  double token_msg_us = 0.0;  ///< the same with a token-sized payload
};
SimProbe probe_sim(const topo::Topology& topology, std::size_t num_vms);

/// Σ, median and tail of per-batch fold latencies. The tail is the highest
/// percentile with at least ten samples beyond it.
struct FoldStats {
  double total_s = 0.0;
  double p50_ns = 0.0;
  double tail_ns = 0.0;
  double tail_pct = 0.0;
  std::size_t samples = 0;
};
FoldStats fold_stats(const std::vector<double>& latencies_ns);

}  // namespace perfbench
