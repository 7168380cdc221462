// Multi-token extension tests: monotone cost under concurrent tokens, the
// k=1 case degenerating to the paper's single-token Round-Robin, wall-clock
// speed-up with more tokens, bookkeeping invariants, the round-budget
// check both centralized drivers share, and metamorphic relations every
// driver must satisfy (no traffic is a fixed point; scaling every rate and
// c_m by a power of two scales every reported cost exactly).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "driver/multi_token.hpp"
#include "core/token_policy.hpp"
#include "helpers.hpp"
#include "hypervisor/distributed_runtime.hpp"

namespace {

using score::core::CostModel;
using score::core::LinkWeights;
using score::core::EngineConfig;
using score::core::MigrationEngine;
using score::driver::MultiTokenConfig;
using score::driver::MultiTokenSimulation;
using score::core::RoundRobinPolicy;
using score::driver::ScoreSimulation;
using score::driver::SimResult;
using score::driver::SimConfig;
using score::testing::random_allocation;
using score::testing::random_tm;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::util::ExecPolicy;
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

/// `run` must throw TokenRoundConfig's std::invalid_argument for `field`
/// (the drivers throw the same type for other inputs, so the message is
/// matched too).
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

// A zero round budget ran one single-token round and no multi-token one.
// Both drivers now reject it before touching the allocation.
TEST_F(MultiTokenTest, BothDriversRejectAZeroRoundBudget) {
  Rng rng(77);
  auto tm = random_tm(32, 3.0, rng);
  const auto alloc0 = random_allocation(topo_, 32, rng);
  auto alloc = alloc0;
  MultiTokenConfig mcfg;
  mcfg.tokens = 2;
  mcfg.iterations = 0;
  expect_rejected([&] { MultiTokenSimulation(engine_, alloc, tm).run(mcfg); },
                  "iterations");
  SimConfig scfg;
  scfg.iterations = 0;
  RoundRobinPolicy rr;
  expect_rejected([&] { ScoreSimulation(engine_, rr, alloc, tm).run(scfg); },
                  "iterations");
  for (score::core::VmId u = 0; u < 32; ++u) {
    EXPECT_EQ(alloc.server_of(u), alloc0.server_of(u));
  }
}

// ------------------------------------------------------ metamorphic relations

/// Every centralized run the relations below cover: ScoreSimulation under
/// Round-Robin and HLF, MultiTokenSimulation at 4 tokens under seq and
/// par(2).
std::vector<std::pair<std::string, SimResult>> centralized_runs(
    const MigrationEngine& engine, const score::core::Allocation& alloc0,
    const score::traffic::TrafficMatrix& tm) {
  std::vector<std::pair<std::string, SimResult>> runs;
  for (const char* name : {"round-robin", "hlf"}) {
    auto alloc = alloc0;
    const auto policy = score::core::make_policy(name);
    SimConfig cfg;
    cfg.iterations = 8;
    runs.emplace_back(name,
                      ScoreSimulation(engine, *policy, alloc, tm).run(cfg));
  }
  for (const ExecPolicy& exec : {ExecPolicy::seq(), ExecPolicy::par(2)}) {
    auto alloc = alloc0;
    MultiTokenConfig cfg;
    cfg.tokens = 4;
    cfg.iterations = 8;
    cfg.policy = exec;
    runs.emplace_back("tokens4 " + exec.name(),
                      MultiTokenSimulation(engine, alloc, tm).run(cfg));
  }
  return runs;
}

TEST_F(MultiTokenTest, NoTrafficIsAFixedPoint) {
  Rng rng(81);
  const score::traffic::TrafficMatrix tm(48);
  const auto alloc0 = random_allocation(topo_, 48, rng);
  for (const auto& [name, res] : centralized_runs(engine_, alloc0, tm)) {
    SCOPED_TRACE(name);
    EXPECT_EQ(res.total_migrations, 0u);
    EXPECT_TRUE(res.migration_log.empty());
    EXPECT_EQ(res.initial_cost, 0.0);
    EXPECT_EQ(res.final_cost, 0.0);
    for (const auto& pt : res.series) EXPECT_EQ(pt.cost, 0.0);
    for (const auto& it : res.iterations) EXPECT_EQ(it.cost_at_end, 0.0);
  }

  auto alloc = alloc0;
  score::hypervisor::RuntimeConfig rcfg;
  rcfg.message_loss_rate = 0.0;
  const auto res =
      score::hypervisor::DistributedScoreRuntime(model_, alloc, tm, rcfg).run();
  EXPECT_EQ(res.total_migrations, 0u);
  EXPECT_EQ(res.initial_cost, 0.0);
  EXPECT_EQ(res.final_cost, 0.0);
  for (const auto& it : res.iterations) EXPECT_EQ(it.cost_at_end, 0.0);
  for (score::core::VmId u = 0; u < 48; ++u) {
    EXPECT_EQ(alloc.server_of(u), alloc0.server_of(u));
  }
}

// Scaling every rate and c_m by 2^k scales each Lemma-3 product, delta and
// sum exactly, and feasibility reads only VM specs, so no comparison can
// flip: the decisions are identical and every reported cost is exactly 2^k
// times the original. The distributed runtime is left out: its agents
// quantise measured rates to whole bytes.
TEST_F(MultiTokenTest, PowerOfTwoScalingScalesCostsExactly) {
  Rng rng(82);
  const auto tm = random_tm(48, 3.0, rng);
  const auto alloc0 = random_allocation(topo_, 48, rng);
  EngineConfig ecfg;
  ecfg.migration_cost = 40.0;  // binds: some positive deltas stay put
  const MigrationEngine engine(model_, ecfg);
  const auto base = centralized_runs(engine, alloc0, tm);
  for (const auto& [name, res] : base) {
    EXPECT_GT(res.total_migrations, 0u) << name;
  }

  for (const int k : {-4, 3}) {
    const double f = std::ldexp(1.0, k);
    EngineConfig scaled_cfg = ecfg;
    scaled_cfg.migration_cost = ecfg.migration_cost * f;
    const MigrationEngine scaled_engine(model_, scaled_cfg);
    const auto scaled = centralized_runs(scaled_engine, alloc0, tm.scaled(f));
    ASSERT_EQ(scaled.size(), base.size());
    for (std::size_t r = 0; r < base.size(); ++r) {
      const SimResult& want = base[r].second;
      const SimResult& got = scaled[r].second;
      SCOPED_TRACE(base[r].first + " k = " + std::to_string(k));
      EXPECT_EQ(got.migration_log, want.migration_log);
      EXPECT_EQ(got.initial_cost, f * want.initial_cost);
      EXPECT_EQ(got.final_cost, f * want.final_cost);
      EXPECT_EQ(got.duration_s, want.duration_s);
      ASSERT_EQ(got.series.size(), want.series.size());
      for (std::size_t i = 0; i < got.series.size(); ++i) {
        EXPECT_EQ(got.series[i].time_s, want.series[i].time_s);
        EXPECT_EQ(got.series[i].cost, f * want.series[i].cost);
        EXPECT_EQ(got.series[i].migrations, want.series[i].migrations);
      }
      ASSERT_EQ(got.iterations.size(), want.iterations.size());
      for (std::size_t i = 0; i < got.iterations.size(); ++i) {
        EXPECT_EQ(got.iterations[i].evaluations,
                  want.iterations[i].evaluations);
        EXPECT_EQ(got.iterations[i].migrations, want.iterations[i].migrations);
        EXPECT_EQ(got.iterations[i].cost_at_end,
                  f * want.iterations[i].cost_at_end);
        EXPECT_EQ(got.iterations[i].time_at_end_s,
                  want.iterations[i].time_at_end_s);
      }
    }
  }
}

}  // namespace
