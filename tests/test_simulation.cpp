// Event-queue substrate tests and ScoreSimulation behaviour: cost
// monotonicity, convergence within a few iterations (Fig. 2's claim), time
// accounting, and policy-agnostic invariants.
#include <gtest/gtest.h>

#include "driver/simulation.hpp"
#include "helpers.hpp"
#include "sim/event_queue.hpp"

namespace {

using score::core::CostModel;
using score::core::LinkWeights;
using score::core::MigrationEngine;
using score::core::RoundRobinPolicy;
using score::driver::ScoreSimulation;
using score::driver::SimConfig;
using score::driver::SimResult;
using score::sim::EventQueue;
using score::testing::random_allocation;
using score::testing::random_tm;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::util::Rng;

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, FifoAmongEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule_at(5.0, [&] {
    q.schedule_in(2.5, [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.schedule_at(1.0, [] {});
  q.step();
  EXPECT_THROW(q.schedule_at(0.5, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilLeavesLaterEventsPending) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(10.0, [&] { ++fired; });
  q.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) q.schedule_in(1.0, chain);
  };
  q.schedule_at(0.0, chain);
  q.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(q.now(), 9.0);
}

// -------------------------------------------------------- ScoreSimulation

class SimulationTest : public ::testing::Test {
 protected:
  SimulationTest()
      : topo_(tiny_tree_config()),
        model_(topo_, LinkWeights::exponential(3)),
        engine_(model_) {}

  CanonicalTree topo_;
  CostModel model_;
  MigrationEngine engine_;
};

TEST_F(SimulationTest, CostNeverIncreasesAlongSeries) {
  Rng rng(3);
  auto tm = random_tm(48, 3.0, rng);
  auto alloc = random_allocation(topo_, 48, rng);
  RoundRobinPolicy rr;
  ScoreSimulation sim(engine_, rr, alloc, tm);
  const SimResult res = sim.run();
  ASSERT_GT(res.series.size(), 2u);
  for (std::size_t i = 1; i < res.series.size(); ++i) {
    EXPECT_LE(res.series[i].cost, res.series[i - 1].cost + 1e-9);
    EXPECT_GE(res.series[i].time_s, res.series[i - 1].time_s);
  }
}

TEST_F(SimulationTest, FinalCostMatchesRecomputation) {
  Rng rng(4);
  auto tm = random_tm(48, 3.0, rng);
  auto alloc = random_allocation(topo_, 48, rng);
  RoundRobinPolicy rr;
  ScoreSimulation sim(engine_, rr, alloc, tm);
  const SimResult res = sim.run();
  // The incrementally tracked cost must agree with Eq. (2) recomputed on the
  // final allocation — validates the delta bookkeeping end to end.
  EXPECT_NEAR(res.final_cost, model_.total_cost(alloc, tm),
              1e-7 * (1.0 + res.final_cost));
  EXPECT_TRUE(alloc.check_consistency());
}

TEST_F(SimulationTest, ReducesCostSubstantially) {
  Rng rng(5);
  auto tm = random_tm(64, 3.0, rng);
  auto alloc = random_allocation(topo_, 64, rng);
  RoundRobinPolicy rr;
  ScoreSimulation sim(engine_, rr, alloc, tm);
  const SimResult res = sim.run();
  EXPECT_GT(res.reduction(), 0.3);  // random placement leaves a lot on the table
  EXPECT_GT(res.total_migrations, 0u);
}

TEST_F(SimulationTest, MigrationRatioPlummetsAfterFirstIterations) {
  // Fig. 2: the ratio of migrated VMs plummets after the second iteration.
  Rng rng(6);
  auto tm = random_tm(64, 3.0, rng);
  auto alloc = random_allocation(topo_, 64, rng);
  RoundRobinPolicy rr;
  ScoreSimulation sim(engine_, rr, alloc, tm);
  SimConfig cfg;
  cfg.iterations = 5;
  cfg.stop_when_stable = false;
  const SimResult res = sim.run(cfg);
  ASSERT_EQ(res.iterations.size(), 5u);
  const double first = res.iterations[0].migrated_ratio;
  const double third = res.iterations[2].migrated_ratio;
  EXPECT_GT(first, 0.0);
  EXPECT_LT(third, 0.5 * first + 1e-12);
  // Holds per iteration == |V|.
  for (const auto& it : res.iterations) EXPECT_EQ(it.holds, 64u);
}

TEST_F(SimulationTest, StableStopEndsEarly) {
  Rng rng(7);
  auto tm = random_tm(32, 2.0, rng);
  auto alloc = random_allocation(topo_, 32, rng);
  RoundRobinPolicy rr;
  ScoreSimulation sim(engine_, rr, alloc, tm);
  SimConfig cfg;
  cfg.iterations = 50;
  cfg.stop_when_stable = true;
  const SimResult res = sim.run(cfg);
  EXPECT_LT(res.iterations.size(), 50u);
  EXPECT_EQ(res.iterations.back().migrations, 0u);
}

TEST_F(SimulationTest, TimeAdvancesWithMigrationsAndHolds) {
  Rng rng(8);
  auto tm = random_tm(32, 2.0, rng);
  auto alloc = random_allocation(topo_, 32, rng);
  RoundRobinPolicy rr;
  ScoreSimulation sim(engine_, rr, alloc, tm);
  const SimResult res = sim.run();
  // At least one full iteration of holds plus migration transfer times.
  const double min_time =
      32 * score::driver::kTokenHoldS +
      static_cast<double>(res.total_migrations) *
          (196.0 * 1e6 * score::driver::kPrecopyFactor * 8.0 /
           score::driver::kMigrationBandwidthBps);
  EXPECT_GE(res.duration_s, min_time * 0.99);
}

TEST_F(SimulationTest, ZeroTrafficMakesNoMigrations) {
  Rng rng(9);
  score::traffic::TrafficMatrix tm(16);
  auto alloc = random_allocation(topo_, 16, rng);
  RoundRobinPolicy rr;
  ScoreSimulation sim(engine_, rr, alloc, tm);
  const SimResult res = sim.run();
  EXPECT_EQ(res.total_migrations, 0u);
  EXPECT_DOUBLE_EQ(res.initial_cost, 0.0);
  EXPECT_DOUBLE_EQ(res.final_cost, 0.0);
}

TEST_F(SimulationTest, HlfReachesComparableCostToRoundRobin) {
  Rng rng(10);
  auto tm = random_tm(64, 3.0, rng);
  auto alloc_rr = random_allocation(topo_, 64, rng);
  auto alloc_hlf = alloc_rr;  // identical start

  RoundRobinPolicy rr;
  ScoreSimulation sim_rr(engine_, rr, alloc_rr, tm);
  const SimResult res_rr = sim_rr.run();

  score::core::HighestLevelFirstPolicy hlf;
  ScoreSimulation sim_hlf(engine_, hlf, alloc_hlf, tm);
  const SimResult res_hlf = sim_hlf.run();

  // Both policies drive the system to a comparable stable cost (the paper's
  // difference is in *speed*, not the final allocation quality).
  EXPECT_NEAR(res_hlf.final_cost, res_rr.final_cost,
              0.35 * res_rr.final_cost + 1e-9);
  EXPECT_GT(res_hlf.reduction(), 0.2);
}

}  // namespace
