// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component in the library (traffic generation, GA search,
// migration-model dirty rates, ...) takes an explicit `Rng&` or a seed so
// that a run is fully determined by its configuration. We wrap std::mt19937_64
// rather than exposing it directly so call sites stay terse and the
// distribution helpers live in one place.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace score::util {

/// Deterministic random source. Not thread-safe; use one per thread/component.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

  /// Re-seed, resetting the stream.
  void seed(std::uint64_t s) { engine_.seed(s); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  /// Normal with the given mean / standard deviation; stddev 0 returns
  /// `mean`. Scales a standard normal draw the way libstdc++'s
  /// normal_distribution(mean, stddev) does, so every stddev > 0 draw is
  /// bit-identical to it, without that class's stddev > 0 precondition.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>()(engine_) * stddev + mean;
  }

  /// Log-normal parameterised by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Exponential with the given rate (lambda).
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Pareto (heavy-tailed) sample with scale x_m > 0 and shape alpha > 0.
  /// Used for elephant-flow sizes; DC traffic is long-tailed (paper §VI).
  double pareto(double x_m, double alpha) {
    double u = uniform(0.0, 1.0);
    // Guard against u == 0 which would yield infinity.
    if (u <= 1e-12) u = 1e-12;
    return x_m / std::pow(u, 1.0 / alpha);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Sample an index according to non-negative weights (roulette wheel).
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace score::util
