// Multi-token extension tests: monotone cost under concurrent tokens, the
// k=1 case degenerating to the paper's single-token Round-Robin, wall-clock
// speed-up with more tokens, bookkeeping invariants, and the timing-config
// checks both centralized drivers share.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sharded_cost_oracle.hpp"
#include "driver/multi_token.hpp"
#include "core/token_policy.hpp"
#include "helpers.hpp"

namespace {

using score::core::CostModel;
using score::core::LinkWeights;
using score::core::MigrationEngine;
using score::driver::MultiTokenConfig;
using score::driver::MultiTokenSimulation;
using score::core::RoundRobinPolicy;
using score::driver::ScoreSimulation;
using score::driver::SimConfig;
using score::driver::TokenRoundConfig;
using score::testing::random_allocation;
using score::testing::random_tm;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::util::Rng;

class MultiTokenTest : public ::testing::Test {
 protected:
  MultiTokenTest()
      : topo_(tiny_tree_config()), model_(topo_, LinkWeights::exponential(3)),
        engine_(model_) {}

  CanonicalTree topo_;
  CostModel model_;
  MigrationEngine engine_;
};

TEST_F(MultiTokenTest, SingleTokenMatchesScoreSimulation) {
  Rng rng(50);
  auto tm = random_tm(48, 3.0, rng);
  auto alloc_single = random_allocation(topo_, 48, rng);
  auto alloc_multi = alloc_single;

  RoundRobinPolicy rr;
  ScoreSimulation ref(engine_, rr, alloc_single, tm);
  SimConfig scfg;
  scfg.iterations = 6;
  const auto ref_res = ref.run(scfg);

  MultiTokenConfig mcfg;
  mcfg.tokens = 1;
  mcfg.iterations = 6;
  MultiTokenSimulation multi(engine_, alloc_multi, tm);
  const auto multi_res = multi.run(mcfg);

  // Identical visit order and decision rule -> identical migration log and
  // final allocation.
  // Costs agree only to rounding: the multi-token driver reports the
  // pass-barrier *reconciled* Eq. (2) total, the single-token driver the
  // accumulated cost -= delta running sum.
  EXPECT_NEAR(multi_res.final_cost, ref_res.final_cost,
              1e-9 * (1.0 + std::abs(ref_res.final_cost)));
  EXPECT_EQ(multi_res.total_migrations, ref_res.total_migrations);
  EXPECT_EQ(multi_res.migration_log, ref_res.migration_log);
  for (score::core::VmId u = 0; u < 48; ++u) {
    EXPECT_EQ(alloc_multi.server_of(u), alloc_single.server_of(u));
  }
}

class MultiTokenParam : public MultiTokenTest,
                        public ::testing::WithParamInterface<std::size_t> {};

TEST_P(MultiTokenParam, CostMonotoneAndConsistent) {
  Rng rng(51);
  auto tm = random_tm(64, 3.0, rng);
  auto alloc = random_allocation(topo_, 64, rng);
  MultiTokenConfig cfg;
  cfg.tokens = GetParam();
  MultiTokenSimulation sim(engine_, alloc, tm);
  const auto res = sim.run(cfg);

  for (std::size_t i = 1; i < res.series.size(); ++i) {
    EXPECT_LE(res.series[i].cost, res.series[i - 1].cost + 1e-9);
  }
  EXPECT_NEAR(res.final_cost, model_.total_cost(alloc, tm),
              1e-7 * (1.0 + res.final_cost));
  EXPECT_TRUE(alloc.check_consistency());
  EXPECT_GT(res.reduction(), 0.2);
}

TEST_P(MultiTokenParam, EveryVmHeldOncePerPass) {
  Rng rng(52);
  auto tm = random_tm(40, 2.0, rng);
  auto alloc = random_allocation(topo_, 40, rng);
  MultiTokenConfig cfg;
  cfg.tokens = GetParam();
  cfg.iterations = 3;
  cfg.stop_when_stable = false;
  MultiTokenSimulation sim(engine_, alloc, tm);
  const auto res = sim.run(cfg);
  ASSERT_EQ(res.iterations.size(), 3u);
  for (const auto& it : res.iterations) EXPECT_EQ(it.holds, 40u);
}

INSTANTIATE_TEST_SUITE_P(TokenCounts, MultiTokenParam,
                         ::testing::Values(1, 2, 3, 8));

TEST_F(MultiTokenTest, MoreTokensConvergeFasterInSimulatedTime) {
  Rng rng(53);
  auto tm = random_tm(64, 3.0, rng);
  auto alloc1 = random_allocation(topo_, 64, rng);
  auto alloc8 = alloc1;

  MultiTokenConfig one;
  one.tokens = 1;
  const auto res1 = MultiTokenSimulation(engine_, alloc1, tm).run(one);

  MultiTokenConfig eight;
  eight.tokens = 8;
  const auto res8 = MultiTokenSimulation(engine_, alloc8, tm).run(eight);

  // Wall-clock shrinks substantially (token holds overlap); quality holds.
  EXPECT_LT(res8.duration_s, 0.5 * res1.duration_s);
  EXPECT_NEAR(res8.final_cost, res1.final_cost, 0.35 * res1.final_cost + 1e-9);
}

TEST_F(MultiTokenTest, MoreTokensThanVmsClamped) {
  Rng rng(54);
  auto tm = random_tm(6, 2.0, rng);
  auto alloc = random_allocation(topo_, 6, rng);
  MultiTokenConfig cfg;
  cfg.tokens = 100;
  MultiTokenSimulation sim(engine_, alloc, tm);
  const auto res = sim.run(cfg);
  EXPECT_TRUE(alloc.check_consistency());
  EXPECT_LE(res.final_cost, res.initial_cost + 1e-9);
}

TEST_F(MultiTokenTest, StableStopWorks) {
  Rng rng(55);
  auto tm = random_tm(24, 2.0, rng);
  auto alloc = random_allocation(topo_, 24, rng);
  MultiTokenConfig cfg;
  cfg.tokens = 4;
  cfg.iterations = 50;
  const auto res = MultiTokenSimulation(engine_, alloc, tm).run(cfg);
  EXPECT_LT(res.iterations.size(), 50u);
  EXPECT_EQ(res.iterations.back().migrations, 0u);
}

// ------------------------------------------------- restricted token rounds

TEST_F(MultiTokenTest, RestrictAllShardsMatchesUnrestricted) {
  Rng rng(71);
  auto tm = random_tm(48, 3.0, rng);
  auto alloc_a = random_allocation(topo_, 48, rng);
  auto alloc_b = alloc_a;

  MultiTokenConfig cfg;
  cfg.tokens = 4;
  cfg.iterations = 5;
  const auto res_a = MultiTokenSimulation(engine_, alloc_a, tm).run(cfg);

  cfg.restrict_shards = {3, 1, 0, 2, 2};  // every shard, unsorted, duplicated
  const auto res_b = MultiTokenSimulation(engine_, alloc_b, tm).run(cfg);

  // Naming every shard is the same run as naming none — bit for bit.
  EXPECT_EQ(res_a.final_cost, res_b.final_cost);
  EXPECT_EQ(res_a.migration_log, res_b.migration_log);
  for (score::core::VmId u = 0; u < 48; ++u) {
    EXPECT_EQ(alloc_a.server_of(u), alloc_b.server_of(u));
  }
}

TEST_F(MultiTokenTest, RestrictSubsetOnlyMovesItsVms) {
  Rng rng(72);
  auto tm = random_tm(48, 3.0, rng);
  auto alloc = random_allocation(topo_, 48, rng);
  const auto partitions = score::core::partition_vms(48, 4);

  MultiTokenConfig cfg;
  cfg.tokens = 4;
  cfg.iterations = 5;
  cfg.restrict_shards = {1, 3};
  const auto res = MultiTokenSimulation(engine_, alloc, tm).run(cfg);

  // Only the restricted shards' VM ranges may take token rounds.
  for (const auto& rec : res.migration_log) {
    const bool in_shard1 = rec.vm >= partitions[1].first &&
                           rec.vm <= partitions[1].last;
    const bool in_shard3 = rec.vm >= partitions[3].first &&
                           rec.vm <= partitions[3].last;
    EXPECT_TRUE(in_shard1 || in_shard3) << "vm " << rec.vm;
  }
  // Commits stay strictly cost-reducing under restriction, and holds count
  // only the walked ranges.
  EXPECT_LE(res.final_cost, res.initial_cost + 1e-9);
  ASSERT_FALSE(res.iterations.empty());
  EXPECT_EQ(res.iterations.front().holds,
            partitions[1].size() + partitions[3].size());
  EXPECT_TRUE(alloc.check_consistency());
}

TEST_F(MultiTokenTest, RestrictOutOfRangeThrows) {
  Rng rng(73);
  auto tm = random_tm(24, 2.0, rng);
  auto alloc = random_allocation(topo_, 24, rng);
  MultiTokenConfig cfg;
  cfg.tokens = 4;
  cfg.restrict_shards = {4};  // shards are 0..3
  EXPECT_THROW(MultiTokenSimulation(engine_, alloc, tm).run(cfg),
               std::invalid_argument);
}

/// `run` must throw TokenRoundConfig's std::invalid_argument for `field`
/// (EventQueue throws the same type for a time in the past, so the message
/// is matched too).
void expect_rejected(const std::function<void()>& run, const std::string& field) {
  try {
    run();
    ADD_FAILURE() << field << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("TokenRoundConfig: " + field),
              std::string::npos)
        << e.what();
  }
}

// A NaN or negative time, factor or bandwidth used to cancel a
// ScoreSimulation run silently (NaN per-hop latency: 0 passes, no error) or
// reorder the multi-token merge by corrupted completion times. Both drivers
// now reject the same configs before touching the allocation.
TEST_F(MultiTokenTest, BothDriversRejectInvalidTimingConfigs) {
  Rng rng(77);
  auto tm = random_tm(32, 3.0, rng);
  const auto alloc0 = random_allocation(topo_, 32, rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    const char* field;
    double TokenRoundConfig::*member;
    std::vector<double> values;
  };
  const Bad cases[] = {
      {"token_hold_s", &TokenRoundConfig::token_hold_s, {nan, -1.0, inf}},
      {"token_pass_per_hop_s", &TokenRoundConfig::token_pass_per_hop_s,
       {nan, -1e-3, inf}},
      {"migration_bandwidth_bps", &TokenRoundConfig::migration_bandwidth_bps,
       {nan, 0.0, -1e9, inf}},
      {"precopy_factor", &TokenRoundConfig::precopy_factor, {nan, -1.0, inf}},
      {"migration_overhead_s", &TokenRoundConfig::migration_overhead_s,
       {nan, -0.1, inf}},
  };
  for (const Bad& c : cases) {
    for (const double v : c.values) {
      SCOPED_TRACE(std::string(c.field) + " = " + std::to_string(v));
      auto alloc = alloc0;
      MultiTokenConfig mcfg;
      mcfg.tokens = 2;
      mcfg.*c.member = v;
      expect_rejected([&] { MultiTokenSimulation(engine_, alloc, tm).run(mcfg); },
                      c.field);
      SimConfig scfg;
      scfg.*c.member = v;
      RoundRobinPolicy rr;
      expect_rejected([&] { ScoreSimulation(engine_, rr, alloc, tm).run(scfg); },
                      c.field);
      bool untouched = true;
      for (score::core::VmId u = 0; u < 32; ++u) {
        untouched = untouched && alloc.server_of(u) == alloc0.server_of(u);
      }
      EXPECT_TRUE(untouched);
    }
  }

  // Zero holds, latencies, overheads and pre-copy stay legal.
  auto alloc_multi = alloc0;
  auto alloc_single = alloc0;
  MultiTokenConfig mcfg;
  SimConfig scfg;
  for (TokenRoundConfig* cfg : {static_cast<TokenRoundConfig*>(&mcfg),
                                static_cast<TokenRoundConfig*>(&scfg)}) {
    cfg->token_hold_s = 0.0;
    cfg->token_pass_per_hop_s = 0.0;
    cfg->precopy_factor = 0.0;
    cfg->migration_overhead_s = 0.0;
  }
  RoundRobinPolicy rr;
  EXPECT_GT(MultiTokenSimulation(engine_, alloc_multi, tm).run(mcfg).total_migrations, 0u);
  EXPECT_GT(ScoreSimulation(engine_, rr, alloc_single, tm).run(scfg).total_migrations, 0u);
}

}  // namespace
