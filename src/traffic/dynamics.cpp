#include "traffic/dynamics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "traffic/ingest.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace score::traffic {

TrafficDynamics::TrafficDynamics(const GeneratorConfig& base,
                                 const DynamicsConfig& dynamics)
    : gen_(base), dyn_(dynamics), base_(generate_traffic(base)) {
  cache_.push_back(base_);
}

std::vector<std::pair<VmId, VmId>> TrafficDynamics::elephant_pairs(
    const TrafficMatrix& tm) const {
  std::vector<double> rates;
  for (const auto& [u, v, r] : tm.pairs()) {
    (void)u;
    (void)v;
    rates.push_back(r);
  }
  if (rates.empty()) return {};
  const double threshold = util::percentile(rates, dyn_.elephant_percentile);
  std::vector<std::pair<VmId, VmId>> elephants;
  for (const auto& [u, v, r] : tm.pairs()) {
    if (r >= threshold) elephants.emplace_back(u, v);
  }
  return elephants;
}

TrafficMatrix TrafficDynamics::advance(const TrafficMatrix& current,
                                       std::uint64_t epoch_seed) {
  util::Rng rng(epoch_seed);
  // The next epoch's rates, keyed by the (min, max) pair: an elephant's rate
  // overwrites its pair, a mouse's rate adds to it. Neighbour order is left
  // to the map because epoch() reads only the result's pairs().
  std::map<std::pair<VmId, VmId>, double> next;

  const auto elephants = elephant_pairs(current);
  std::set<std::pair<VmId, VmId>> elephant_set(elephants.begin(), elephants.end());

  for (const auto& [u, v, rate] : current.pairs()) {
    const bool is_elephant = elephant_set.count({u, v}) > 0;
    const double jitter = std::exp(rng.normal(0.0, dyn_.rate_jitter_sigma));
    if (is_elephant) {
      // Hotspots persist (and keep their endpoints); occasionally one dies
      // and a new elephant appears elsewhere.
      if (rng.chance(dyn_.elephant_persistence)) {
        next[std::minmax(u, v)] = rate * jitter;
      } else {
        VmId a = static_cast<VmId>(rng.index(current.num_vms()));
        VmId b = static_cast<VmId>(rng.index(current.num_vms()));
        if (a != b) next[std::minmax(a, b)] = rate * jitter;
      }
    } else {
      // Mice churn: a fraction of pairs is re-drawn with fresh endpoints.
      if (rng.chance(dyn_.mice_churn)) {
        VmId a = static_cast<VmId>(rng.index(current.num_vms()));
        VmId b = static_cast<VmId>(rng.index(current.num_vms()));
        if (a != b) next[std::minmax(a, b)] += rate * jitter;
      } else {
        next[std::minmax(u, v)] += rate * jitter;
      }
    }
  }
  FlowDeltaBatch flows;
  flows.reserve(next.size());
  for (const auto& [pair, rate] : next) flows.push(pair.first, pair.second, rate);
  return TrafficMatrix(current.num_vms(), std::move(flows));
}

const TrafficMatrix& TrafficDynamics::epoch(std::size_t k) {
  while (cache_.size() <= k) {
    const std::uint64_t epoch_seed =
        dyn_.seed * 1000003ull + static_cast<std::uint64_t>(cache_.size());
    // Synthesise the next epoch with the historical RNG stream, then express
    // it as a FlowDeltaBatch and materialise it *through the apply path* —
    // the stored epoch is the delta-reconstructed matrix. diff_batch's
    // ulp-exact deltas make the reconstruction bit-identical to the fresh
    // build, so golden traces cannot move, while streaming consumers get a
    // batch that provably transforms epoch k-1 into epoch k.
    const TrafficMatrix fresh = advance(cache_.back(), epoch_seed);
    FlowDeltaBatch batch = diff_batch(cache_.back(), fresh);
    TrafficMatrix next = cache_.back();
    next.apply(batch);
    deltas_.push_back(std::move(batch));
    cache_.push_back(std::move(next));
  }
  return cache_[k];
}

const FlowDeltaBatch& TrafficDynamics::epoch_delta(std::size_t k) {
  if (k == 0) {
    throw std::invalid_argument("epoch_delta: epoch 0 has no predecessor");
  }
  epoch(k);  // materialises deltas_[k-1] on the way
  return deltas_[k - 1];
}

double TrafficDynamics::elephant_overlap(std::size_t epoch_a, std::size_t epoch_b) {
  const auto ea = elephant_pairs(epoch(epoch_a));
  const auto eb = elephant_pairs(epoch(epoch_b));
  if (ea.empty() && eb.empty()) return 1.0;
  std::set<std::pair<VmId, VmId>> sa(ea.begin(), ea.end());
  std::size_t inter = 0;
  for (const auto& p : eb) inter += sa.count(p);
  const std::size_t uni = sa.size() + eb.size() - inter;
  return uni ? static_cast<double>(inter) / static_cast<double>(uni) : 1.0;
}

TrafficMatrix average_tms(const std::vector<const TrafficMatrix*>& tms) {
  if (tms.empty()) throw std::invalid_argument("average_tms: empty input");
  const std::size_t n = tms.front()->num_vms();
  for (const TrafficMatrix* tm : tms) {
    if (tm->num_vms() != n) throw std::invalid_argument("average_tms: size mismatch");
  }
  FlowDeltaBatch flows;
  const double w = 1.0 / static_cast<double>(tms.size());
  for (const TrafficMatrix* tm : tms) {
    for (const auto& [u, v, rate] : tm->pairs()) flows.push(u, v, rate * w);
  }
  return TrafficMatrix(n, std::move(flows));
}

}  // namespace score::traffic
