#include "driver/multi_token.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <tuple>

#include "core/sharded_cost_oracle.hpp"
#include "driver/settled_holds.hpp"

namespace score::driver {

namespace {

/// One shard-locally accepted migration, with the token's virtual time at
/// which the transfer would complete (relative to pass start). The source
/// server is not recorded: the merge re-reads it from the live master,
/// which may differ from the snapshot's view by then.
struct LocalMove {
  VmId vm = 0;
  ServerId to = core::kInvalidServer;
  double done_at_s = 0.0;
};

struct ShardPass {
  std::vector<LocalMove> moves;
  double busy_until_s = 0.0;  ///< token's virtual time at end of its walk
  std::size_t evaluations = 0;  ///< holds that ran Theorem 1
};

}  // namespace

SimResult MultiTokenSimulation::run(const MultiTokenConfig& config) {
  config.validate();
  const std::size_t num_vms = tm_->num_vms();
  if (num_vms == 0) throw std::invalid_argument("MultiTokenSimulation: no VMs");
  const core::CostModel& model = engine_->cost_model();
  const auto& topology = model.topology();

  const auto partitions = core::partition_vms(num_vms, config.tokens);
  const std::size_t tokens = partitions.size();
  core::ShardedCostOracle oracle(topology, model.weights(), partitions);

  // Shards that actually take token rounds this run (see restrict_shards).
  std::vector<std::size_t> walk_shards = config.restrict_shards;
  if (walk_shards.empty()) {
    walk_shards.resize(tokens);
    std::iota(walk_shards.begin(), walk_shards.end(), std::size_t{0});
  } else {
    std::sort(walk_shards.begin(), walk_shards.end());
    walk_shards.erase(std::unique(walk_shards.begin(), walk_shards.end()),
                      walk_shards.end());
    if (walk_shards.back() >= tokens) {
      throw std::invalid_argument(
          "MultiTokenSimulation: restrict_shards index out of range");
    }
  }
  std::size_t walked_vms = 0;
  for (const std::size_t t : walk_shards) walked_vms += partitions[t].size();

  SimResult result;
  result.initial_cost = model.total_cost(*alloc_, *tm_);
  double cost = result.initial_cost;
  result.series.push_back({0.0, cost, 0});

  double pass_start_s = 0.0;
  // VMs whose placement may differ between any shard snapshot and the master
  // since the previous pass barrier: the union of all shards' *proposed*
  // local moves (committed or not — a shard's own uncommitted move diverged
  // its snapshot, another shard's committed move diverged the master). This
  // is the incremental begin_pass contract: pass 1 pays the full per-shard
  // snapshot copy, every later barrier costs O(shards × |touched|)
  // instead of O(shards × world).
  std::vector<VmId> touched;
  bool have_snapshots = false;
  // A hold in shard t is judged against t's snapshot: the master at pass
  // start plus t's own earlier moves this pass. A VM's view changes only
  // where a peer (or the VM) moves in it: a local move (unsettled in the
  // walk, inside the walking shard's range) or a touched VM (unsettled at
  // the barrier, committed or not — a rejected proposal still moved a
  // snapshot that later holds in its shard were judged against).
  SettledHolds settled(num_vms);
  for (std::size_t pass = 0; pass < config.iterations; ++pass) {
    // Phase 1 — barrier: private snapshot per token partition (incrementally
    // resynced from the previous pass where possible).
    if (have_snapshots) {
      oracle.begin_pass(*alloc_, *tm_, config.policy, touched);
    } else {
      oracle.begin_pass(*alloc_, *tm_, config.policy);
      have_snapshots = true;
    }

    // Phase 2 — parallel shard walks. Each job touches only shard-t state
    // (its snapshot, its ShardPass slot, the settled flags of its range), so
    // the outcome is a pure function of the pass-start snapshot for any
    // execution policy.
    std::vector<ShardPass> walked(tokens);
    util::for_each_shard(config.policy, walk_shards.size(), [&](std::size_t j) {
      const std::size_t t = walk_shards[j];
      ShardPass& out = walked[t];
      Allocation& snap = oracle.shard_alloc(t);
      const core::VmRange range = oracle.partition(t);

      double busy_until = 0.0;
      std::size_t evaluations = 0;
      for (VmId u = range.first;; ++u) {
        const core::Decision d = settled.hold(*engine_, snap, *tm_, u, evaluations,
                                              "MultiTokenSimulation", pass);
        double busy = config.token_hold_s;
        if (d.migrate) {
          const double bytes = snap.spec(u).ram_mb * 1e6 * config.precopy_factor;
          busy += bytes * 8.0 / config.migration_bandwidth_bps +
                  config.migration_overhead_s;
          snap.migrate(u, d.target);
          settled.unsettle(*tm_, u, range.first, range.last);
          out.moves.push_back({u, d.target, busy_until + busy});
        }
        busy_until += busy;
        if (u == range.last) break;
        busy_until += config.token_pass_per_hop_s *
                      topology.hop_count(snap.server_of(u), snap.server_of(u + 1));
      }
      out.busy_until_s = busy_until;
      out.evaluations = evaluations;
    });

    // Phase 3 — deterministic merge in virtual-completion-time order (the
    // order the old interleaved event queue would have committed in). Each
    // move is revalidated against the live master: capacity may have been
    // taken and deltas shifted by other shards' commits, so Theorem 1 is
    // re-checked with a fresh Lemma-3 delta — commits stay strictly
    // cost-reducing even under cross-shard staleness.
    std::vector<std::tuple<double, std::size_t, std::size_t>> order;
    for (std::size_t t = 0; t < tokens; ++t) {
      for (std::size_t i = 0; i < walked[t].moves.size(); ++i) {
        order.emplace_back(walked[t].moves[i].done_at_s, t, i);
      }
    }
    std::sort(order.begin(), order.end());

    std::size_t pass_migrations = 0;
    for (const auto& [done_at, t, i] : order) {
      const LocalMove& mv = walked[t].moves[i];
      if (!engine_->target_feasible(*alloc_, mv.to, alloc_->spec(mv.vm))) continue;
      const double delta = model.migration_delta(*alloc_, *tm_, mv.vm, mv.to);
      if (delta <= engine_->config().migration_cost) continue;
      result.migration_log.push_back({pass, mv.vm, alloc_->server_of(mv.vm), mv.to});
      model.apply_migration(*alloc_, *tm_, mv.vm, mv.to);
      cost -= delta;
      ++result.total_migrations;
      ++pass_migrations;
      result.series.push_back({pass_start_s + done_at, cost, result.total_migrations});
    }

    // Refresh the touched set for the next barrier from this pass's
    // proposals (see the contract above the loop).
    touched.clear();
    for (const ShardPass& sp : walked) {
      for (const LocalMove& mv : sp.moves) touched.push_back(mv.vm);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const VmId u : touched) settled.unsettle(*tm_, u);

    // Phase 4 — reconcile: true Eq. (2) total from per-shard sums over the
    // merged master, fed back as the authoritative pass cost (kills any
    // accumulated floating-point drift in the running `cost`). A commit-free
    // pass left the master untouched, so the prior cost stands exactly.
    if (pass_migrations > 0) cost = oracle.reconcile(*alloc_, *tm_, config.policy);

    // A pass ends when its *slowest* token finishes, not whichever token
    // happened to report last.
    double max_busy = 0.0;
    for (const ShardPass& sp : walked) max_busy = std::max(max_busy, sp.busy_until_s);

    IterationStats it;
    it.holds = walked_vms;
    for (const ShardPass& sp : walked) it.evaluations += sp.evaluations;
    it.migrations = pass_migrations;
    it.migrated_ratio =
        static_cast<double>(pass_migrations) / static_cast<double>(walked_vms);
    it.cost_at_end = cost;
    it.time_at_end_s = pass_start_s + max_busy;
    result.iterations.push_back(it);
    pass_start_s += max_busy;

    if (config.stop_when_stable && pass_migrations == 0) break;
  }

  result.final_cost = cost;
  result.duration_s = pass_start_s;
  if (result.series.empty() || result.series.back().cost != cost) {
    result.series.push_back({result.duration_s, cost, result.total_migrations});
  }
  return result;
}

}  // namespace score::driver
