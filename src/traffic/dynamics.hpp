// Temporal traffic dynamics — paper §VI-B's stability argument.
//
// DC measurement studies (Kandula'09, Benson'10, cited by the paper) observe
// that traffic exhibits "fixed-set hotspots that change slowly over time":
// the elephant pairs persist across measurement epochs while the mice churn
// rapidly and rates fluctuate. S-CORE's robustness to this churn rests on
// averaging pairwise loads over a measurement window instead of reacting to
// instantaneous values.
//
// TrafficDynamics produces a deterministic sequence of per-epoch traffic
// matrices with exactly this structure: persistent elephants with bounded rate
// jitter, and a configurable fraction of mice re-drawn every epoch. Each epoch
// is built whole from the previous epoch's pairs with its own RNG stream; the
// flow-by-flow face of traffic change is traffic/ingest's FlowEventStream.
// The moving-average helper models S-CORE's measurement window.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "traffic/generator.hpp"
#include "traffic/traffic_matrix.hpp"

namespace score::traffic {

struct DynamicsConfig {
  /// Probability an elephant pair survives from one epoch to the next
  /// (hotspots change slowly).
  double elephant_persistence = 0.97;
  /// Fraction of mice pairs re-drawn (new endpoints) each epoch.
  double mice_churn = 0.5;
  /// Multiplicative log-normal rate jitter per epoch (sigma of ln-rate).
  double rate_jitter_sigma = 0.2;
  /// Rate percentile separating elephants from mice.
  double elephant_percentile = 90.0;
  std::uint64_t seed = 2014;
};

class TrafficDynamics {
 public:
  /// `base` defines the epoch-0 matrix (via generate_traffic).
  TrafficDynamics(const GeneratorConfig& base, const DynamicsConfig& dynamics);

  std::size_t num_vms() const { return base_.num_vms(); }

  /// Traffic matrix at epoch k (epoch 0 == the base matrix). Deterministic:
  /// the same (config, k) always yields the same matrix. O(k) on first use;
  /// results are cached so sequential access is O(1) amortised. Returned
  /// references stay valid for the lifetime of this object (deque-backed).
  const TrafficMatrix& epoch(std::size_t k);

  /// Jaccard overlap of the elephant pair-sets of two epochs — the
  /// "fixed-set hotspots" property (high for adjacent epochs).
  double elephant_overlap(std::size_t epoch_a, std::size_t epoch_b);

 private:
  TrafficMatrix advance(const TrafficMatrix& current, std::uint64_t epoch_seed);
  std::vector<std::pair<VmId, VmId>> elephant_pairs(const TrafficMatrix& tm) const;

  GeneratorConfig gen_;
  DynamicsConfig dyn_;
  TrafficMatrix base_;
  std::deque<TrafficMatrix> cache_;  ///< deque: stable references on growth
};

/// Element-wise mean of several matrices (all must have equal num_vms) — the
/// measurement-window average S-CORE feeds its migration decisions.
TrafficMatrix average_tms(const std::vector<const TrafficMatrix*>& tms);

}  // namespace score::traffic
