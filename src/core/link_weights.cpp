#include "core/link_weights.hpp"

#include <cmath>

namespace score::core {

LinkWeights::LinkWeights(std::vector<double> weights) : weights_(std::move(weights)) {
  if (weights_.empty()) {
    throw std::invalid_argument("LinkWeights: need at least one level");
  }
  for (double w : weights_) {
    if (!(w > 0.0)) throw std::invalid_argument("LinkWeights: weights must be > 0");
  }
  prefix_.resize(weights_.size() + 1, 0.0);
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + weights_[i];
  }
}

LinkWeights LinkWeights::exponential(int levels) {
  std::vector<double> w;
  for (int i = 0; i < levels; ++i) w.push_back(std::exp(static_cast<double>(i)));
  return LinkWeights(std::move(w));
}

LinkWeights LinkWeights::linear(int levels) {
  std::vector<double> w;
  for (int i = 1; i <= levels; ++i) w.push_back(static_cast<double>(i));
  return LinkWeights(std::move(w));
}

LinkWeights LinkWeights::uniform(int levels) {
  return LinkWeights(std::vector<double>(static_cast<std::size_t>(levels), 1.0));
}

double LinkWeights::weight(int level) const {
  if (level < 1 || level > levels()) {
    throw std::out_of_range("LinkWeights::weight: level out of range");
  }
  return weights_[static_cast<std::size_t>(level - 1)];
}

}  // namespace score::core
