// Migration-engine tests: Theorem 1 (migrate iff ΔC > c_m), candidate
// generation order, capacity/bandwidth feasibility, and the global-cost
// monotonicity property under repeated engine decisions.
#include <gtest/gtest.h>

#include "helpers.hpp"

namespace {

using score::core::Allocation;
using score::core::CostModel;
using score::core::Decision;
using score::core::EngineConfig;
using score::core::kInvalidServer;
using score::core::LinkWeights;
using score::core::MigrationEngine;
using score::core::ServerCapacity;
using score::core::ServerId;
using score::core::VmId;
using score::core::VmSpec;
using score::testing::random_allocation;
using score::testing::random_tm;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::traffic::TrafficMatrix;
using score::util::Rng;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : topo_(tiny_tree_config()), model_(topo_, LinkWeights::exponential(3)) {}

  CanonicalTree topo_;
  CostModel model_;
};

TEST_F(EngineTest, MigratesTowardHeavyPeer) {
  Allocation alloc(topo_.num_hosts(), ServerCapacity{});
  const VmId u = alloc.add_vm(VmSpec{}, 0);
  const VmId v = alloc.add_vm(VmSpec{}, static_cast<ServerId>(topo_.num_hosts() - 1));
  TrafficMatrix tm(2, {{u, v, 100.0}});

  MigrationEngine engine(model_);
  const Decision d = engine.evaluate(alloc, tm, u);
  ASSERT_TRUE(d.migrate);
  EXPECT_EQ(d.target, alloc.server_of(v));
  EXPECT_DOUBLE_EQ(d.delta, model_.pair_cost(100.0, 3));
}

TEST_F(EngineTest, NoMigrationWhenAlreadyColocated) {
  Allocation alloc(topo_.num_hosts(), ServerCapacity{});
  const VmId u = alloc.add_vm(VmSpec{}, 3);
  const VmId v = alloc.add_vm(VmSpec{}, 3);
  TrafficMatrix tm(2, {{u, v, 100.0}});
  MigrationEngine engine(model_);
  EXPECT_FALSE(engine.evaluate(alloc, tm, u).migrate);
}

TEST_F(EngineTest, Theorem1MigrationCostGate) {
  Allocation alloc(topo_.num_hosts(), ServerCapacity{});
  const VmId u = alloc.add_vm(VmSpec{}, 0);
  const VmId v = alloc.add_vm(VmSpec{}, 4);  // same pod, level 2
  TrafficMatrix tm(2, {{u, v, 1.0}});
  const double gain = model_.pair_cost(1.0, 2);  // full delta if colocated

  EngineConfig below;
  below.migration_cost = gain * 0.99;
  EXPECT_TRUE(MigrationEngine(model_, below).evaluate(alloc, tm, u).migrate);

  EngineConfig above;
  above.migration_cost = gain * 1.01;
  EXPECT_FALSE(MigrationEngine(model_, above).evaluate(alloc, tm, u).migrate);

  // Boundary: strict inequality — delta == cm must NOT migrate.
  EngineConfig equal;
  equal.migration_cost = gain;
  EXPECT_FALSE(MigrationEngine(model_, equal).evaluate(alloc, tm, u).migrate);
}

TEST_F(EngineTest, IsolatedVmNeverMigrates) {
  Rng rng(2);
  auto alloc = random_allocation(topo_, 8, rng);
  TrafficMatrix tm(8);  // empty: no neighbours
  MigrationEngine engine(model_);
  for (VmId u = 0; u < 8; ++u) {
    const Decision d = engine.evaluate(alloc, tm, u);
    EXPECT_FALSE(d.migrate);
    EXPECT_EQ(d.candidates_probed, 0u);
  }
}

TEST_F(EngineTest, RespectsSlotCapacity) {
  ServerCapacity one_slot;
  one_slot.vm_slots = 1;
  Allocation alloc(topo_.num_hosts(), one_slot);
  const VmId u = alloc.add_vm(VmSpec{}, 0);
  const VmId v = alloc.add_vm(VmSpec{}, static_cast<ServerId>(topo_.num_hosts() - 1));
  TrafficMatrix tm(2, {{u, v, 100.0}});

  EngineConfig cfg;
  cfg.probe_rack_siblings = true;
  MigrationEngine engine(model_, cfg);
  const Decision d = engine.evaluate(alloc, tm, u);
  // v's server is full; the engine must fall back to a rack sibling.
  ASSERT_TRUE(d.migrate);
  EXPECT_NE(d.target, alloc.server_of(v));
  EXPECT_EQ(topo_.rack_of(d.target), topo_.rack_of(alloc.server_of(v)));
}

TEST_F(EngineTest, NoFeasibleTargetMeansNoMigration) {
  ServerCapacity one_slot;
  one_slot.vm_slots = 1;
  Allocation alloc(topo_.num_hosts(), one_slot);
  const VmId u = alloc.add_vm(VmSpec{}, 0);
  // Fill the entire destination rack (rack of last host).
  const std::size_t rack_first = (topo_.num_racks() - 1) * 4;
  VmId v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v = alloc.add_vm(VmSpec{}, static_cast<ServerId>(rack_first + i));
  }
  TrafficMatrix tm(alloc.num_vms(), {{u, v, 100.0}});

  EngineConfig cfg;
  cfg.max_candidates = 5;  // only the full rack is probed
  cfg.probe_rack_siblings = true;
  MigrationEngine engine(model_, cfg);
  EXPECT_FALSE(engine.evaluate(alloc, tm, u).migrate);
}

TEST_F(EngineTest, BandwidthHeadroomBlocksBusyTargets) {
  ServerCapacity cap;
  cap.net_bps = 1e9;
  Allocation alloc(topo_.num_hosts(), cap);
  VmSpec chatty;
  chatty.net_bps = 0.5e9;
  const VmId u = alloc.add_vm(chatty, 0);
  const VmId v = alloc.add_vm(chatty, static_cast<ServerId>(topo_.num_hosts() - 1));
  TrafficMatrix tm(2, {{u, v, 100.0}});

  EngineConfig cfg;
  cfg.bandwidth_headroom_bps = 0.2e9;  // 0.5 used + 0.5 vm + 0.2 headroom > 1.0
  cfg.probe_rack_siblings = false;
  MigrationEngine engine(model_, cfg);
  EXPECT_FALSE(engine.evaluate(alloc, tm, u).migrate);

  cfg.probe_rack_siblings = true;  // empty sibling hosts satisfy the headroom
  MigrationEngine engine2(model_, cfg);
  const Decision d = engine2.evaluate(alloc, tm, u);
  ASSERT_TRUE(d.migrate);
  EXPECT_NE(d.target, alloc.server_of(v));
}

TEST_F(EngineTest, CandidateOrderPrefersHighestLevelHeaviestPeers) {
  Allocation alloc(topo_.num_hosts(), ServerCapacity{});
  const VmId u = alloc.add_vm(VmSpec{}, 0);
  const VmId rackmate = alloc.add_vm(VmSpec{}, 1);     // level 1
  const VmId podmate = alloc.add_vm(VmSpec{}, 4);      // level 2
  const VmId far_light = alloc.add_vm(VmSpec{}, 28);   // level 3
  const VmId far_heavy = alloc.add_vm(VmSpec{}, 31);   // level 3
  TrafficMatrix tm(5, {{u, rackmate, 50.0},
                       {u, podmate, 10.0},
                       {u, far_light, 1.0},
                       {u, far_heavy, 5.0}});

  EngineConfig cfg;
  cfg.probe_rack_siblings = false;
  MigrationEngine engine(model_, cfg);
  const auto candidates = engine.candidate_servers(alloc, tm, u);
  ASSERT_EQ(candidates.size(), 4u);
  EXPECT_EQ(candidates[0], alloc.server_of(far_heavy));
  EXPECT_EQ(candidates[1], alloc.server_of(far_light));
  EXPECT_EQ(candidates[2], alloc.server_of(podmate));
  EXPECT_EQ(candidates[3], alloc.server_of(rackmate));
}

TEST_F(EngineTest, MaxCandidatesCapsProbes) {
  Rng rng(4);
  auto tm = random_tm(32, 6.0, rng);
  auto alloc = random_allocation(topo_, 32, rng);
  EngineConfig cfg;
  cfg.max_candidates = 3;
  MigrationEngine engine(model_, cfg);
  for (VmId u = 0; u < 32; ++u) {
    EXPECT_LE(engine.evaluate(alloc, tm, u).candidates_probed, 3u);
  }
}

TEST_F(EngineTest, EvaluateAndApplyReducesGlobalCostByDelta) {
  Rng rng(6);
  auto tm = random_tm(40, 3.0, rng);
  auto alloc = random_allocation(topo_, 40, rng);
  MigrationEngine engine(model_);

  double cost = model_.total_cost(alloc, tm);
  int migrations = 0;
  for (int round = 0; round < 3; ++round) {
    for (VmId u = 0; u < 40; ++u) {
      const Decision d = engine.evaluate_and_apply(alloc, tm, u);
      if (d.migrate) {
        ++migrations;
        const double new_cost = model_.total_cost(alloc, tm);
        EXPECT_NEAR(new_cost, cost - d.delta, 1e-7 * (1.0 + cost));
        EXPECT_LT(new_cost, cost);  // c_m = 0: any accepted move helps
        cost = new_cost;
      }
    }
  }
  EXPECT_GT(migrations, 0);
  EXPECT_TRUE(alloc.check_consistency());
}

TEST_F(EngineTest, ConvergesToStableAllocation) {
  // After enough rounds with c_m = 0 the engine must reach a fixed point
  // (no VM wants to move) — S-CORE's stability claim (§VI-B).
  Rng rng(8);
  auto tm = random_tm(24, 2.0, rng);
  auto alloc = random_allocation(topo_, 24, rng);
  MigrationEngine engine(model_);

  int last_round_migrations = -1;
  for (int round = 0; round < 20; ++round) {
    last_round_migrations = 0;
    for (VmId u = 0; u < 24; ++u) {
      if (engine.evaluate_and_apply(alloc, tm, u).migrate) ++last_round_migrations;
    }
    if (last_round_migrations == 0) break;
  }
  EXPECT_EQ(last_round_migrations, 0);
}

}  // namespace
