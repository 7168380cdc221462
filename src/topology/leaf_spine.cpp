#include "topology/leaf_spine.hpp"

namespace score::topo {

namespace {
constexpr std::uint32_t kLeafBase = 1'000'000;
constexpr std::uint32_t kSpineBase = 2'000'000;
}  // namespace

LeafSpine::LeafSpine(const LeafSpineConfig& config) : config_(config) {
  if (config_.leaves == 0 || config_.hosts_per_leaf == 0 || config_.spines == 0) {
    throw std::invalid_argument("LeafSpine: all dimensions must be positive");
  }
  const std::size_t hosts = config_.leaves * config_.hosts_per_leaf;
  host_rack_.resize(hosts);
  rack_pod_.resize(config_.leaves);
  num_pods_ = config_.leaves;  // every leaf is its own "pod" (two tiers only)
  top_level_ = 2;              // so hosts on different leaves meet at the spine
  for (std::size_t r = 0; r < config_.leaves; ++r) rack_pod_[r] = static_cast<int>(r);
  for (std::size_t h = 0; h < hosts; ++h) {
    host_rack_[h] = static_cast<int>(h / config_.hosts_per_leaf);
  }

  host_uplink_.resize(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    host_uplink_[h] = add_link(1, static_cast<std::uint32_t>(h),
                               kLeafBase + static_cast<std::uint32_t>(host_rack_[h]),
                               config_.host_link_bps);
  }
  leaf_spine_link_.resize(config_.leaves * config_.spines);
  for (std::size_t l = 0; l < config_.leaves; ++l) {
    for (std::size_t s = 0; s < config_.spines; ++s) {
      leaf_spine_link_[l * config_.spines + s] =
          add_link(2, kLeafBase + static_cast<std::uint32_t>(l),
                   kSpineBase + static_cast<std::uint32_t>(s),
                   config_.leaf_spine_bps);
    }
  }
}

std::vector<LinkId> LeafSpine::route(HostId a, HostId b,
                                     std::uint64_t flow_hash) const {
  std::vector<LinkId> path;
  const int level = comm_level(a, b);
  if (level == 0) return path;
  path.push_back(host_uplink_[a]);
  if (level == 2) {
    const std::size_t spine = flow_hash % config_.spines;  // ECMP over spines
    path.push_back(leaf_spine_link(static_cast<std::size_t>(rack_of(a)), spine));
    path.push_back(leaf_spine_link(static_cast<std::size_t>(rack_of(b)), spine));
  }
  path.push_back(host_uplink_[b]);
  return path;
}

}  // namespace score::topo
