// Per-layer link weights c_i and their prefix sums (paper §II-III).
//
// Routing a data unit over an i-level link costs c_i, with c1 < c2 < c3 to
// reflect the rising price and oversubscription of upper layers. The cost of
// a level-l VM pair is 2·λ·Σ_{i=1..l} c_i, so the prefix sums are what every
// cost/delta evaluation needs; they are precomputed once.
//
// The paper's evaluation uses exponential weights c_i = e^{i-1}; the general
// formulation allows any operator policy (energy, fault-tolerance, ...), so
// linear and uniform schemes are provided for the ablation study.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace score::core {

class LinkWeights {
 public:
  /// Weights for levels 1..weights.size(); all must be positive.
  explicit LinkWeights(std::vector<double> weights);

  /// Paper default: c_i = e^{i-1} for i = 1..levels.
  static LinkWeights exponential(int levels = 3);
  /// c_i = i (gentler layer penalty).
  static LinkWeights linear(int levels = 3);
  /// c_i = 1 (pure hop count — layer-oblivious ablation).
  static LinkWeights uniform(int levels = 3);

  int levels() const { return static_cast<int>(weights_.size()); }

  /// Weight of an i-level link, i in [1, levels()].
  double weight(int level) const;

  /// Σ_{i=1..level} c_i; prefix(0) == 0. level in [0, levels()]. Inline:
  /// every Eq. (1) and Lemma-3 term reads it.
  double prefix(int level) const {
    if (level < 0 || level > levels()) {
      throw std::out_of_range("LinkWeights::prefix: level out of range");
    }
    return prefix_[static_cast<std::size_t>(level)];
  }

 private:
  std::vector<double> weights_;
  std::vector<double> prefix_;  // prefix_[l] = sum of weights_[0..l-1]
};

}  // namespace score::core
