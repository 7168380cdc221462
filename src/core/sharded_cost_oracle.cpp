#include "core/sharded_cost_oracle.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace score::core {

std::vector<VmRange> partition_vms(std::size_t num_vms, std::size_t shards) {
  if (num_vms == 0) throw std::invalid_argument("partition_vms: no VMs");
  shards = std::max<std::size_t>(1, std::min(shards, num_vms));
  std::vector<VmRange> ranges;
  ranges.reserve(shards);
  const std::size_t base = num_vms / shards;
  const std::size_t extra = num_vms % shards;
  VmId first = 0;
  for (std::size_t t = 0; t < shards; ++t) {
    const auto size = static_cast<VmId>(base + (t < extra ? 1 : 0));
    ranges.push_back({first, static_cast<VmId>(first + size - 1)});
    first += size;
  }
  return ranges;
}

double shard_partial_sum(const CostModel& model, const Allocation& alloc,
                         const traffic::TrafficMatrix& tm,
                         const VmRange& range) {
  double sum = 0.0;
  for (VmId u = range.first; u <= range.last; ++u) {
    sum += model.vm_cost(alloc, tm, u);
  }
  return sum;
}

ShardedCostOracle::ShardedCostOracle(const topo::Topology& topology,
                                     LinkWeights weights,
                                     std::vector<VmRange> partitions)
    : model_(topology, std::move(weights)) {
  if (partitions.empty()) {
    throw std::invalid_argument("ShardedCostOracle: no partitions");
  }
  shards_.reserve(partitions.size());
  for (const VmRange& range : partitions) {
    if (range.last < range.first) {
      throw std::invalid_argument("ShardedCostOracle: empty partition range");
    }
    shards_.push_back({range, std::nullopt});
  }
}

void ShardedCostOracle::begin_pass(const Allocation& master,
                                   const traffic::TrafficMatrix& /*tm*/,
                                   const util::ExecPolicy& policy) {
  util::for_each_shard(policy, shards_.size(),
                       [&](std::size_t t) { shards_[t].snapshot = master; });
}

void ShardedCostOracle::begin_pass(const Allocation& master,
                                   const traffic::TrafficMatrix& /*tm*/,
                                   const util::ExecPolicy& policy,
                                   const std::vector<VmId>& touched) {
  util::for_each_shard(policy, shards_.size(), [&](std::size_t t) {
    std::optional<Allocation>& snap = shards_[t].snapshot;
    if (!snap || snap->num_vms() != master.num_vms()) {
      // No usable snapshot — full copy, exactly the non-incremental path.
      snap = master;
      return;
    }
    // Replay the divergence: every VM that moved anywhere since the
    // previous pass is in `touched`; moving each one whose placement
    // differs makes the snapshot equal to master again.
    for (const VmId u : touched) {
      const ServerId want = master.server_of(u);
      if (snap->server_of(u) != want) snap->migrate_unchecked(u, want);
    }
#ifdef SCORE_CHECK_CACHE
    // The touched-set contract is the driver's to uphold; under the
    // cache cross-check build, verify it — a missed VM here would mean
    // this shard silently optimises against a stale world.
    for (VmId u = 0; u < master.num_vms(); ++u) {
      if (snap->server_of(u) != master.server_of(u)) {
        throw std::logic_error(
            "ShardedCostOracle::begin_pass(touched): snapshot diverges "
            "from master at vm " + std::to_string(u) +
            " — incomplete touched set");
      }
    }
#endif
  });
}

Allocation& ShardedCostOracle::shard_alloc(std::size_t shard) {
  std::optional<Allocation>& snap = shards_.at(shard).snapshot;
  if (!snap) {
    throw std::logic_error("ShardedCostOracle: shard_alloc before begin_pass");
  }
  return *snap;
}

double ShardedCostOracle::reconcile(const Allocation& master,
                                    const traffic::TrafficMatrix& tm,
                                    const util::ExecPolicy& policy) const {
  last_sums_.assign(shards_.size(), 0.0);
  // model_ is a plain CostModel, so each term is the brute-force Eq. (1)
  // walk — pure, hence safe to run concurrently with the other shards' sums.
  util::for_each_shard(policy, shards_.size(), [&](std::size_t t) {
    last_sums_[t] = shard_partial_sum(model_, master, tm, shards_[t].range);
  });
  double total = 0.0;
  for (const double sum : last_sums_) total += sum;  // fixed order: shard 0..k-1
  return 0.5 * total;  // Eq. (2): every unordered pair counted once
}

}  // namespace score::core
