// Flow-level network simulation with max-min fair bandwidth sharing.
//
// The paper's motivation (§I) is that traffic-agnostic placement congests
// the oversubscribed core and throttles application throughput. LinkLoadMap
// shows *offered* load; this simulator computes what flows actually
// *achieve*: concurrent flows receive their max-min fair share of every link
// on their (ECMP-pinned) path — the classical progressive-filling model of
// TCP-fair sharing — and finite flows run to completion, yielding flow
// completion times (FCTs). bench_runner's ablation-fct rows compare FCTs
// before and after S-CORE re-localises the fleet: the cost reduction
// translates into real throughput/FCT gains, which is the end-to-end point
// of the system.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/topology.hpp"

namespace score::sim {

struct FlowSpec {
  topo::HostId src = 0;
  topo::HostId dst = 0;
  double size_bytes = 0.0;   ///< Finite size (for run()); ignored by fair_rates.
  std::uint64_t ecmp_hash = 0;
};

struct FlowOutcome {
  double finish_s = 0.0;        ///< Completion time (all flows start at t=0).
  double mean_rate_bps = 0.0;   ///< size / finish.
};

class FlowLevelSimulator {
 public:
  explicit FlowLevelSimulator(const topo::Topology& topology) : topo_(&topology) {}

  /// Max-min fair rates (bps) for the given concurrent flows (progressive
  /// filling). Same-host flows (empty path) receive `local_rate_bps`.
  /// Feasibility: on every link, the returned rates sum to ≤ capacity, and
  /// every flow is bottlenecked somewhere (max-min optimality).
  std::vector<double> fair_rates(const std::vector<FlowSpec>& flows) const;

  /// Run finite flows to completion: rates are re-derived (progressive
  /// filling) every time a flow finishes. Returns per-flow outcomes in input
  /// order. All flows start at t = 0.
  std::vector<FlowOutcome> run(const std::vector<FlowSpec>& flows) const;

  /// Rate granted to flows that never leave their host (vhost switching).
  double local_rate_bps() const { return local_rate_bps_; }
  void set_local_rate_bps(double bps) { local_rate_bps_ = bps; }

 private:
  const topo::Topology* topo_;
  double local_rate_bps_ = 10e9;
};

}  // namespace score::sim
