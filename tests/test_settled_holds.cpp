// Settled holds: both centralized drivers skip a Theorem-1 hold whose answer
// cannot have changed since it last reported !improvable
// (driver/settled_holds.hpp). This suite keeps the evaluate-every-hold walks
// the drivers used to run — the multi-token phased pass and the
// ScoreSimulation loop on sim::EventQueue — as executable references, and
// demands bit-identical runs: migration log, cost series, iteration stats
// (except `evaluations`), final cost and duration. It sweeps topologies,
// token counts, execution policies, c_m, headroom, candidate caps, rack
// siblings, token policies and tight capacity, runs to stability, and runs
// twice on one simulation object with a traffic change in between. Every
// logged commit is replayed on brute-force Eq. (2) and must strictly lower
// it. Labelled `tokens`, so the sanitizer jobs run its par(2) cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/sharded_cost_oracle.hpp"
#include "core/token_policy.hpp"
#include "driver/multi_token.hpp"
#include "helpers.hpp"
#include "sim/event_queue.hpp"
#include "topology/leaf_spine.hpp"

namespace {

using score::core::Allocation;
using score::core::CostModel;
using score::core::Decision;
using score::core::EngineConfig;
using score::core::LinkWeights;
using score::core::MigrationEngine;
using score::core::partition_vms;
using score::core::ServerId;
using score::core::TokenPolicy;
using score::core::VmId;
using score::core::VmRange;
using score::driver::IterationStats;
using score::driver::kMigrationBandwidthBps;
using score::driver::kMigrationOverheadS;
using score::driver::kPrecopyFactor;
using score::driver::kTokenHoldS;
using score::driver::kTokenPassPerHopS;
using score::driver::MigrationRecord;
using score::driver::MultiTokenConfig;
using score::driver::MultiTokenSimulation;
using score::driver::ScoreSimulation;
using score::driver::SimConfig;
using score::driver::SimResult;
using score::testing::mixed_allocation;
using score::testing::random_tm;
using score::testing::tiny_tree_config;
using score::topo::Topology;
using score::traffic::FlowDeltaBatch;
using score::traffic::TrafficMatrix;
using score::util::ExecPolicy;
using score::util::Rng;

/// What the reference walks saw that the drivers do not report.
struct Observed {
  std::size_t blocked_holds = 0;   ///< improvable, yet no feasible winner
  std::size_t rejected = 0;        ///< merge proposals that did not commit
  std::size_t skipping_passes = 0; ///< driver passes with evaluations < holds
};

/// The multi-token phased pass before holds could settle: every walked VM is
/// evaluated on every pass, against a fresh copy of the master.
SimResult reference_multi_token(const MigrationEngine& engine, Allocation& alloc,
                                const TrafficMatrix& tm,
                                const MultiTokenConfig& config, Observed& seen) {
  const CostModel& model = engine.cost_model();
  const Topology& topology = model.topology();
  const CostModel brute(topology, model.weights());
  const std::vector<VmRange> partitions =
      partition_vms(tm.num_vms(), config.tokens);
  const std::size_t num_vms = tm.num_vms();

  struct Move {
    VmId vm;
    ServerId to;
    double done_at_s;
  };
  SimResult result;
  result.initial_cost = model.total_cost(alloc, tm);
  double cost = result.initial_cost;
  result.series.push_back({0.0, cost, 0});
  double pass_start_s = 0.0;
  for (std::size_t pass = 0; pass < config.iterations; ++pass) {
    std::vector<std::vector<Move>> moves(partitions.size());
    double max_busy = 0.0;
    for (std::size_t t = 0; t < partitions.size(); ++t) {
      Allocation snap = alloc;
      double busy_until = 0.0;
      for (VmId u = partitions[t].first;; ++u) {
        const Decision d = engine.evaluate(snap, tm, u);
        if (d.improvable && !d.migrate) ++seen.blocked_holds;
        double busy = kTokenHoldS;
        if (d.migrate) {
          const double bytes = snap.spec(u).ram_mb * 1e6 * kPrecopyFactor;
          busy += bytes * 8.0 / kMigrationBandwidthBps + kMigrationOverheadS;
          snap.migrate(u, d.target);
          moves[t].push_back({u, d.target, busy_until + busy});
        }
        busy_until += busy;
        if (u == partitions[t].last) break;
        busy_until += kTokenPassPerHopS *
                      topology.hop_count(snap.server_of(u), snap.server_of(u + 1));
      }
      max_busy = std::max(max_busy, busy_until);
    }

    std::vector<std::tuple<double, std::size_t, std::size_t>> order;
    for (std::size_t t = 0; t < moves.size(); ++t) {
      for (std::size_t i = 0; i < moves[t].size(); ++i) {
        order.emplace_back(moves[t][i].done_at_s, t, i);
      }
    }
    std::sort(order.begin(), order.end());
    std::size_t pass_migrations = 0;
    for (const auto& [done_at, t, i] : order) {
      const Move& mv = moves[t][i];
      const double delta = model.migration_delta(alloc, tm, mv.vm, mv.to);
      if (!engine.target_feasible(alloc, mv.to, alloc.spec(mv.vm)) ||
          delta <= engine.config().migration_cost) {
        ++seen.rejected;
        continue;
      }
      result.migration_log.push_back({pass, mv.vm, alloc.server_of(mv.vm), mv.to});
      model.apply_migration(alloc, tm, mv.vm, mv.to);
      cost -= delta;
      ++result.total_migrations;
      ++pass_migrations;
      result.series.push_back({pass_start_s + done_at, cost, result.total_migrations});
    }
    if (pass_migrations > 0) {
      double total = 0.0;
      for (const VmRange& r : partitions) {
        total += score::core::shard_partial_sum(brute, alloc, tm, r);
      }
      cost = 0.5 * total;
    }

    IterationStats it;
    it.holds = num_vms;
    it.migrations = pass_migrations;
    it.migrated_ratio =
        static_cast<double>(pass_migrations) / static_cast<double>(num_vms);
    it.cost_at_end = cost;
    it.time_at_end_s = pass_start_s + max_busy;
    result.iterations.push_back(it);
    pass_start_s += max_busy;
    if (config.stop_when_stable && pass_migrations == 0) break;
  }
  result.final_cost = cost;
  result.duration_s = pass_start_s;
  if (result.series.back().cost != cost) {
    result.series.push_back({result.duration_s, cost, result.total_migrations});
  }
  return result;
}

/// The ScoreSimulation event loop before holds could settle: Theorem 1 runs
/// on every hold.
SimResult reference_score_simulation(const MigrationEngine& engine,
                                     TokenPolicy& policy, Allocation& alloc,
                                     const TrafficMatrix& tm,
                                     const SimConfig& config, Observed& seen) {
  const CostModel& model = engine.cost_model();
  const std::size_t num_vms = tm.num_vms();
  SimResult result;
  result.initial_cost = model.total_cost(alloc, tm);
  double cost = result.initial_cost;
  result.series.push_back({0.0, cost, 0});

  score::sim::EventQueue queue;
  VmId holder = policy.start(num_vms);
  std::size_t iteration_migrations = 0;
  std::size_t iteration_holds = 0;
  bool stopped = false;
  score::sim::EventFn process_hold = [&]() {
    if (stopped) return;
    policy.observe(model, alloc, tm, holder);
    const Decision d = engine.evaluate(alloc, tm, holder);
    if (d.improvable && !d.migrate) ++seen.blocked_holds;
    double busy = kTokenHoldS;
    if (d.migrate) {
      const double bytes = alloc.spec(holder).ram_mb * 1e6 * kPrecopyFactor;
      busy += bytes * 8.0 / kMigrationBandwidthBps + kMigrationOverheadS;
      result.migration_log.push_back(
          {result.iterations.size(), holder, alloc.server_of(holder), d.target});
      model.apply_migration(alloc, tm, holder, d.target);
      cost -= d.delta;
      ++result.total_migrations;
      ++iteration_migrations;
    }
    ++iteration_holds;
    if (d.migrate) {
      result.series.push_back({queue.now() + busy, cost, result.total_migrations});
    }
    if (iteration_holds == num_vms) {
      IterationStats it;
      it.holds = iteration_holds;
      it.migrations = iteration_migrations;
      it.migrated_ratio = static_cast<double>(iteration_migrations) /
                          static_cast<double>(iteration_holds);
      it.cost_at_end = cost;
      it.time_at_end_s = queue.now() + busy;
      result.iterations.push_back(it);
      const bool stable = config.stop_when_stable && iteration_migrations == 0;
      iteration_holds = 0;
      iteration_migrations = 0;
      if (result.iterations.size() >= config.iterations || stable) {
        stopped = true;
        queue.schedule_in(busy, [] {});
        return;
      }
    }
    const VmId next = policy.next(holder);
    const int hops = model.topology().hop_count(alloc.server_of(holder),
                                                alloc.server_of(next));
    holder = next;
    queue.schedule_in(busy + kTokenPassPerHopS * hops, process_hold);
  };
  queue.schedule_at(0.0, process_hold);
  queue.run();

  result.final_cost = cost;
  result.duration_s = queue.now();
  if (result.series.back().cost != cost) {
    result.series.push_back({result.duration_s, cost, result.total_migrations});
  }
  return result;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit-for-bit equality of everything a run reports but `evaluations`.
void expect_same_run(const SimResult& got, const SimResult& want) {
  EXPECT_EQ(bits(got.initial_cost), bits(want.initial_cost));
  EXPECT_EQ(bits(got.final_cost), bits(want.final_cost));
  EXPECT_EQ(got.total_migrations, want.total_migrations);
  EXPECT_EQ(bits(got.duration_s), bits(want.duration_s));
  ASSERT_EQ(got.migration_log.size(), want.migration_log.size());
  for (std::size_t i = 0; i < got.migration_log.size(); ++i) {
    ASSERT_EQ(got.migration_log[i], want.migration_log[i]) << "commit " << i;
  }
  ASSERT_EQ(got.series.size(), want.series.size());
  for (std::size_t i = 0; i < got.series.size(); ++i) {
    EXPECT_EQ(bits(got.series[i].time_s), bits(want.series[i].time_s)) << i;
    EXPECT_EQ(bits(got.series[i].cost), bits(want.series[i].cost)) << i;
    EXPECT_EQ(got.series[i].migrations, want.series[i].migrations) << i;
  }
  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  for (std::size_t i = 0; i < got.iterations.size(); ++i) {
    const IterationStats& a = got.iterations[i];
    const IterationStats& b = want.iterations[i];
    EXPECT_EQ(a.holds, b.holds) << "pass " << i;
    EXPECT_EQ(a.migrations, b.migrations) << "pass " << i;
    EXPECT_EQ(bits(a.migrated_ratio), bits(b.migrated_ratio)) << "pass " << i;
    EXPECT_EQ(bits(a.cost_at_end), bits(b.cost_at_end)) << "pass " << i;
    EXPECT_EQ(bits(a.time_at_end_s), bits(b.time_at_end_s)) << "pass " << i;
  }
}

/// A run starts with every flag clear, so its first pass evaluates every
/// hold; later passes evaluate at most every hold.
void check_evaluations(const SimResult& res, Observed& seen) {
  ASSERT_FALSE(res.iterations.empty());
  EXPECT_EQ(res.iterations.front().evaluations, res.iterations.front().holds);
  for (std::size_t i = 1; i < res.iterations.size(); ++i) {
    const IterationStats& it = res.iterations[i];
    EXPECT_LE(it.evaluations, it.holds) << "pass " << i;
    if (it.evaluations < it.holds) ++seen.skipping_passes;
  }
}

/// Replays `log` from `alloc` on brute-force Eq. (2): each commit starts
/// where the log says and strictly lowers the total.
void expect_commits_lower_eq2(const CostModel& brute, Allocation alloc,
                              const TrafficMatrix& tm,
                              const std::vector<MigrationRecord>& log) {
  double cost = brute.total_cost(alloc, tm);
  for (const MigrationRecord& rec : log) {
    ASSERT_EQ(alloc.server_of(rec.vm), rec.from) << "vm " << rec.vm;
    alloc.migrate(rec.vm, rec.to);
    const double after = brute.total_cost(alloc, tm);
    ASSERT_LT(after, cost) << "vm " << rec.vm << " in pass " << rec.pass;
    cost = after;
  }
}

/// Fat-tree k=4 and k=8, the tiny canonical tree and a leaf-spine.
std::vector<std::unique_ptr<Topology>> topologies() {
  std::vector<std::unique_ptr<Topology>> out;
  for (const std::size_t k : {4u, 8u}) {
    out.push_back(std::make_unique<score::topo::FatTree>(
        score::topo::FatTreeConfig{.k = k}));
  }
  out.push_back(std::make_unique<score::topo::CanonicalTree>(tiny_tree_config()));
  score::topo::LeafSpineConfig leaf;
  leaf.leaves = 6;
  leaf.hosts_per_leaf = 4;
  leaf.spines = 2;
  out.push_back(std::make_unique<score::topo::LeafSpine>(leaf));
  return out;
}

std::unique_ptr<TokenPolicy> make_policy(const std::string& name) {
  return score::core::make_policy(name, 11);
}

const char* const kPolicies[] = {"round-robin", "hlf", "random", "htf"};

// Each world: ~60% slot occupancy by two VM shapes (so holds can be
// improvable but capacity-blocked), degree-6 random traffic, one of the four
// (rack siblings, candidate cap) pairs, c_m in {0, pair_cost(50, 2)} and
// headroom in {0, 0.3 Gb/s}. Every run goes to stability.
TEST(SettledHoldsDifferential, DriversMatchEvaluateEveryHold) {
  Observed seen;
  std::size_t runs = 0;
  std::uint64_t seed = 500;
  for (const auto& topology : topologies()) {
    const CostModel model(*topology,
                          LinkWeights::exponential(topology->max_level()));
    const std::size_t num_vms = topology->num_hosts() * 5 / 2;
    int world = 0;
    for (const double cm : {0.0, model.pair_cost(50.0, 2)}) {
      for (const double headroom : {0.0, 0.3e9}) {
        const bool siblings = world % 2 == 0;
        const std::size_t cap = world / 2 == 0 ? 32 : 3;
        ++world;
        Rng rng(++seed);
        const TrafficMatrix tm = random_tm(num_vms, 6.0, rng);
        const Allocation alloc0 = mixed_allocation(*topology, num_vms, rng);
        EngineConfig ecfg;
        ecfg.migration_cost = cm;
        ecfg.bandwidth_headroom_bps = headroom;
        ecfg.max_candidates = cap;
        ecfg.probe_rack_siblings = siblings;
        const MigrationEngine engine(model, ecfg);
        const std::string where =
            topology->name() + " c_m " + std::to_string(cm) + " headroom " +
            std::to_string(headroom) + " cap " + std::to_string(cap) +
            " siblings " + std::to_string(siblings);

        for (const std::size_t tokens : {1u, 3u, 4u}) {
          MultiTokenConfig cfg;
          cfg.tokens = tokens;
          cfg.iterations = 60;
          Allocation want_alloc = alloc0;
          const SimResult want =
              reference_multi_token(engine, want_alloc, tm, cfg, seen);
          expect_commits_lower_eq2(model, alloc0, tm, want.migration_log);
          ASSERT_EQ(want.iterations.back().migrations, 0u) << where;
          for (const ExecPolicy policy : {ExecPolicy::seq(), ExecPolicy::par(2)}) {
            SCOPED_TRACE(where + " tokens " + std::to_string(tokens) + " " +
                         policy.name());
            cfg.policy = policy;
            Allocation alloc = alloc0;
            const SimResult got = MultiTokenSimulation(engine, alloc, tm).run(cfg);
            expect_same_run(got, want);
            check_evaluations(got, seen);
            for (VmId u = 0; u < num_vms; ++u) {
              ASSERT_EQ(alloc.server_of(u), want_alloc.server_of(u)) << "vm " << u;
            }
            ++runs;
          }
        }

        // Two token policies per world, so each topology runs all four twice.
        for (const int k : {world % 4, (world + 2) % 4}) {
          const char* name = kPolicies[k];
          SCOPED_TRACE(where + " ScoreSimulation " + name);
          SimConfig cfg;
          cfg.iterations = 60;
          Allocation want_alloc = alloc0;
          const auto want_policy = make_policy(name);
          const SimResult want = reference_score_simulation(
              engine, *want_policy, want_alloc, tm, cfg, seen);
          ASSERT_EQ(want.iterations.back().migrations, 0u);
          Allocation alloc = alloc0;
          const auto policy = make_policy(name);
          const SimResult got =
              ScoreSimulation(engine, *policy, alloc, tm).run(cfg);
          expect_same_run(got, want);
          check_evaluations(got, seen);
          expect_commits_lower_eq2(model, alloc0, tm, got.migration_log);
          ++runs;
        }
      }
    }
  }
  // The sweep reached the states it claims to cover.
  EXPECT_EQ(runs, 4u * 4u * (6u + 2u));
  EXPECT_GT(seen.blocked_holds, 0u);
  EXPECT_GT(seen.rejected, 0u);
  EXPECT_GT(seen.skipping_passes, 0u);
}

// The traffic may change between runs (streaming applies a batch before each
// re-opt), so a second run() on the same simulation object must start with
// every flag clear and still match the reference on the new matrix.
TEST(SettledHoldsDifferential, FlagsLastOneRun) {
  std::size_t second_run_migrations[2] = {0, 0};  // multi-token, single-token
  std::uint64_t seed = 900;
  for (const auto& topology : topologies()) {
    const CostModel model(*topology,
                          LinkWeights::exponential(topology->max_level()));
    const std::size_t num_vms = topology->num_hosts() * 5 / 2;
    const MigrationEngine engine(model);
    Rng rng(++seed);
    TrafficMatrix tm = random_tm(num_vms, 6.0, rng);
    const Allocation alloc0 = mixed_allocation(*topology, num_vms, rng);
    FlowDeltaBatch batch;
    for (std::size_t i = 0; i < num_vms / 2; ++i) {
      const auto u = static_cast<VmId>(rng.index(num_vms));
      const auto v = static_cast<VmId>(rng.index(num_vms));
      if (u != v) batch.push(u, v, rng.uniform(50.0, 200.0));
    }

    Observed seen;
    MultiTokenConfig mcfg;
    mcfg.tokens = 3;
    mcfg.iterations = 60;
    mcfg.policy = ExecPolicy::par(2);
    SimConfig scfg;
    scfg.iterations = 60;
    Allocation multi = alloc0;
    Allocation multi_want = alloc0;
    Allocation single = alloc0;
    Allocation single_want = alloc0;
    MultiTokenSimulation multi_sim(engine, multi, tm);
    const auto rr = make_policy("round-robin");
    const auto rr_want = make_policy("round-robin");
    ScoreSimulation single_sim(engine, *rr, single, tm);
    for (int run = 0; run < 2; ++run) {
      SCOPED_TRACE(topology->name() + " run " + std::to_string(run));
      if (run == 1) tm.apply(batch);
      const Allocation multi_start = multi;
      const SimResult multi_got = multi_sim.run(mcfg);
      expect_same_run(multi_got,
                      reference_multi_token(engine, multi_want, tm, mcfg, seen));
      check_evaluations(multi_got, seen);
      expect_commits_lower_eq2(model, multi_start, tm, multi_got.migration_log);

      const Allocation single_start = single;
      const SimResult single_got = single_sim.run(scfg);
      expect_same_run(single_got, reference_score_simulation(
                                      engine, *rr_want, single_want, tm, scfg, seen));
      check_evaluations(single_got, seen);
      expect_commits_lower_eq2(model, single_start, tm, single_got.migration_log);
      if (run == 1) {
        second_run_migrations[0] += multi_got.total_migrations;
        second_run_migrations[1] += single_got.total_migrations;
      }
    }
  }
  // The batch gave VMs that had settled in the first run something to gain.
  EXPECT_GT(second_run_migrations[0], 0u);
  EXPECT_GT(second_run_migrations[1], 0u);
}

}  // namespace
