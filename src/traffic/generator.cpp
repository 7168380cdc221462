#include "traffic/generator.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace score::traffic {

double intensity_scale(Intensity intensity) {
  switch (intensity) {
    case Intensity::kSparse: return 1.0;
    case Intensity::kMedium: return 10.0;
    case Intensity::kDense: return 50.0;
  }
  throw std::invalid_argument("intensity_scale: unknown intensity");
}

const char* intensity_name(Intensity intensity) {
  switch (intensity) {
    case Intensity::kSparse: return "sparse";
    case Intensity::kMedium: return "medium";
    case Intensity::kDense: return "dense";
  }
  return "unknown";
}

TrafficMatrix generate_traffic(const GeneratorConfig& config) {
  if (config.num_vms < 2) {
    throw std::invalid_argument("generate_traffic: need at least 2 VMs");
  }
  util::Rng rng(config.seed);
  FlowDeltaBatch flows;

  // Partition VMs into services with geometric-ish size variation around the
  // mean: repeatedly carve a chunk of size U[1, 2*mean-1] off the remainder.
  std::vector<std::vector<VmId>> services;
  {
    std::vector<VmId> ids(config.num_vms);
    std::iota(ids.begin(), ids.end(), 0u);
    rng.shuffle(ids);
    std::size_t pos = 0;
    const std::size_t mean = std::max<std::size_t>(2, config.mean_service_size);
    while (pos < ids.size()) {
      auto span = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(2 * mean - 1)));
      span = std::min(span, ids.size() - pos);
      services.emplace_back(ids.begin() + static_cast<std::ptrdiff_t>(pos),
                            ids.begin() + static_cast<std::ptrdiff_t>(pos + span));
      pos += span;
    }
  }

  auto draw_rate = [&rng, &config]() {
    if (rng.chance(config.elephant_fraction)) {
      return rng.pareto(config.elephant_rate_scale, config.elephant_rate_shape);
    }
    return rng.lognormal(config.mice_rate_mu, config.mice_rate_sigma);
  };

  // Intra-service pairs: each VM picks ~intra_service_degree peers within its
  // service, preferring a few "hot" servers of the service (first members
  // after shuffle) so that rack-level hotspots emerge under any allocation
  // that keeps services together.
  for (const auto& svc : services) {
    if (svc.size() < 2) continue;
    for (std::size_t i = 0; i < svc.size(); ++i) {
      // Expected degree; fractional part realised probabilistically.
      double want = config.intra_service_degree;
      while (want > 0.0) {
        if (want < 1.0 && !rng.chance(want)) break;
        want -= 1.0;
        // Bias peer choice toward low indices (service "frontends").
        std::size_t j = rng.chance(0.5) ? rng.index(std::min<std::size_t>(3, svc.size()))
                                        : rng.index(svc.size());
        if (svc[j] == svc[i]) continue;
        flows.push(svc[i], svc[j], draw_rate());
      }
    }
  }

  // Cross-service pairs: sparse background chatter (storage, monitoring, ...).
  for (VmId u = 0; u < config.num_vms; ++u) {
    if (!rng.chance(config.cross_service_prob)) continue;
    VmId v = static_cast<VmId>(rng.index(config.num_vms));
    if (v == u) continue;
    flows.push(u, v, draw_rate());
  }

  // A pair drawn twice sums its draws in draw order.
  return TrafficMatrix(config.num_vms, std::move(flows));
}

TrafficMatrix generate_traffic(const GeneratorConfig& config, Intensity intensity) {
  // Scale the summed rates, not each draw: (r1 + r2) * s and r1 * s + r2 * s
  // can differ in the last bit.
  return generate_traffic(config).scaled(intensity_scale(intensity));
}

double top_pair_byte_share(const TrafficMatrix& tm, double fraction) {
  auto pairs = tm.pairs();
  if (pairs.empty()) return 0.0;
  std::vector<double> rates;
  rates.reserve(pairs.size());
  for (const auto& [u, v, r] : pairs) {
    (void)u;
    (void)v;
    rates.push_back(r);
  }
  std::sort(rates.begin(), rates.end(), std::greater<>());
  const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  if (total <= 0.0) return 0.0;
  auto take = static_cast<std::size_t>(fraction * static_cast<double>(rates.size()));
  take = std::max<std::size_t>(take, 1);
  double top = std::accumulate(rates.begin(),
                               rates.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(take, rates.size())),
                               0.0);
  return top / total;
}

}  // namespace score::traffic
