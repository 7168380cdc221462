// core/sharded_cost_oracle: partition carve-up, per-shard snapshot
// isolation, incremental resync, and pass-barrier reconciliation against
// brute-force Eq. (2). (Under -DSCORE_CHECK_CACHE=ON the incremental barrier
// additionally full-scans every snapshot against the master — the dedicated
// CI job runs this suite in that mode.)
#include <gtest/gtest.h>

#include <cmath>

#include "core/migration_engine.hpp"
#include "core/sharded_cost_oracle.hpp"
#include "helpers.hpp"

namespace {

using score::core::CostModel;
using score::core::LinkWeights;
using score::core::MigrationEngine;
using score::core::partition_vms;
using score::core::ShardedCostOracle;
using score::core::VmRange;
using score::testing::random_allocation;
using score::testing::random_tm;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::util::ExecPolicy;
using score::util::Rng;

TEST(PartitionVms, CoversDisjointContiguousBalanced) {
  for (const std::size_t num_vms : {1u, 7u, 64u, 65u}) {
    for (const std::size_t shards : {1u, 2u, 5u, 64u, 200u}) {
      const auto ranges = partition_vms(num_vms, shards);
      ASSERT_EQ(ranges.size(), std::min(shards, num_vms));
      std::size_t covered = 0;
      score::core::VmId expect_first = 0;
      for (const VmRange& r : ranges) {
        EXPECT_EQ(r.first, expect_first);  // contiguous + disjoint
        EXPECT_LE(r.first, r.last);
        covered += r.size();
        expect_first = r.last + 1;
        // Sizes differ by at most one.
        EXPECT_LE(ranges.front().size() - r.size(), 1u);
      }
      EXPECT_EQ(covered, num_vms);
    }
  }
  EXPECT_THROW(partition_vms(0, 4), std::invalid_argument);
}

class ShardedOracleTest : public ::testing::Test {
 protected:
  ShardedOracleTest()
      : topo_(tiny_tree_config()),
        weights_(LinkWeights::exponential(3)),
        brute_(topo_, weights_) {}

  CanonicalTree topo_;
  LinkWeights weights_;
  CostModel brute_;
};

TEST_F(ShardedOracleTest, ReconcileMatchesBruteForceEq2) {
  Rng rng(70);
  const std::size_t num_vms = 96;
  auto tm = random_tm(num_vms, 3.0, rng);
  auto master = random_allocation(topo_, num_vms, rng);

  for (const std::size_t shards : {1u, 3u, 8u}) {
    ShardedCostOracle oracle(topo_, weights_, partition_vms(num_vms, shards));
    for (const ExecPolicy policy : {ExecPolicy::seq(), ExecPolicy::par(4)}) {
      const double reconciled = oracle.reconcile(master, tm, policy);
      const double expected = brute_.total_cost(master, tm);
      EXPECT_NEAR(reconciled, expected, 1e-7 * (1.0 + std::abs(expected)))
          << shards << " shards, " << policy.name();
      ASSERT_EQ(oracle.last_shard_sums().size(), shards);
    }
  }
}

TEST_F(ShardedOracleTest, ReconcileIsPolicyInvariantBitwise) {
  Rng rng(71);
  const std::size_t num_vms = 80;
  auto tm = random_tm(num_vms, 4.0, rng);
  auto master = random_allocation(topo_, num_vms, rng);

  ShardedCostOracle oracle(topo_, weights_, partition_vms(num_vms, 5));
  const double seq = oracle.reconcile(master, tm, ExecPolicy::seq());
  const double par1 = oracle.reconcile(master, tm, ExecPolicy::par(1));
  const double par4 = oracle.reconcile(master, tm, ExecPolicy::par(4));
  // Identical per-shard sums in identical order -> bit-identical totals.
  EXPECT_EQ(seq, par1);
  EXPECT_EQ(seq, par4);
}

TEST_F(ShardedOracleTest, ShardWalksAreIsolatedAndReconcileTracksMerge) {
  Rng rng(72);
  const std::size_t num_vms = 64;
  auto tm = random_tm(num_vms, 3.0, rng);
  auto master = random_allocation(topo_, num_vms, rng);

  const auto partitions = partition_vms(num_vms, 4);
  ShardedCostOracle oracle(topo_, weights_, partitions);
  oracle.begin_pass(master, tm, ExecPolicy::par(2));

  // Each shard migrates one of its own VMs on its private snapshot; the
  // master and the other shards' snapshots keep their placements.
  const MigrationEngine engine(brute_);
  const auto master0 = master;
  std::vector<std::size_t> moved_shard(num_vms, oracle.num_shards());
  for (std::size_t t = 0; t < oracle.num_shards(); ++t) {
    auto& snap = oracle.shard_alloc(t);
    const auto d = engine.evaluate(snap, tm, partitions[t].first);
    if (d.migrate) {
      snap.migrate(partitions[t].first, d.target);
      moved_shard[partitions[t].first] = t;
    }
    EXPECT_TRUE(master.check_consistency());
  }
  for (std::size_t t = 0; t < oracle.num_shards(); ++t) {
    const auto& snap = oracle.shard_alloc(t);
    EXPECT_TRUE(snap.check_consistency());
    for (score::core::VmId u = 0; u < num_vms; ++u) {
      ASSERT_EQ(master.server_of(u), master0.server_of(u)) << "vm " << u;
      if (moved_shard[u] != t) {
        ASSERT_EQ(snap.server_of(u), master0.server_of(u))
            << "shard " << t << " vm " << u;
      }
    }
  }

  // Commit one real migration on the master; reconcile must track the
  // merged state, not any snapshot.
  MigrationEngine master_engine(brute_);
  const auto d = master_engine.evaluate(master, tm, 0);
  if (d.migrate) brute_.apply_migration(master, tm, 0, d.target);
  EXPECT_NEAR(oracle.reconcile(master, tm, ExecPolicy::par(4)),
              brute_.total_cost(master, tm),
              1e-7 * (1.0 + std::abs(brute_.total_cost(master, tm))));
}

TEST_F(ShardedOracleTest, IncrementalBeginPassResyncsSnapshotsToMaster) {
  Rng rng(73);
  const std::size_t num_vms = 64;
  auto tm = random_tm(num_vms, 3.0, rng);
  auto master = random_allocation(topo_, num_vms, rng);

  const auto partitions = partition_vms(num_vms, 4);
  ShardedCostOracle oracle(topo_, weights_, partitions);
  oracle.begin_pass(master, tm, ExecPolicy::par(2));

  // Walk phase: each shard commits a local move on its private snapshot.
  std::vector<score::core::VmId> touched;
  const MigrationEngine engine(brute_);
  for (std::size_t t = 0; t < oracle.num_shards(); ++t) {
    auto& snap = oracle.shard_alloc(t);
    const auto d = engine.evaluate(snap, tm, partitions[t].first);
    if (d.migrate) {
      snap.migrate(partitions[t].first, d.target);
      touched.push_back(partitions[t].first);
    }
  }
  ASSERT_GE(touched.size(), 2u);  // so the merge below commits a strict subset
  // Merge phase: commit a subset (every other proposal) on the master.
  for (std::size_t i = 0; i < touched.size(); i += 2) {
    const auto vm = touched[i];
    const MigrationEngine master_engine(brute_);
    const auto d = master_engine.evaluate(master, tm, vm);
    if (d.migrate) brute_.apply_migration(master, tm, vm, d.target);
  }

  // Incremental barrier: every snapshot must equal the master again, and
  // reconcile must equal brute-force Eq. (2) on the merged master.
  for (const ExecPolicy policy : {ExecPolicy::seq(), ExecPolicy::par(3)}) {
    oracle.begin_pass(master, tm, policy, touched);
    for (std::size_t t = 0; t < oracle.num_shards(); ++t) {
      const auto& snap = oracle.shard_alloc(t);
      ASSERT_TRUE(snap.check_consistency());
      for (score::core::VmId u = 0; u < num_vms; ++u) {
        ASSERT_EQ(snap.server_of(u), master.server_of(u))
            << "shard " << t << " vm " << u << " under " << policy.name();
      }
    }
    const double expected = brute_.total_cost(master, tm);
    EXPECT_NEAR(oracle.reconcile(master, tm, policy), expected,
                1e-7 * (1.0 + std::abs(expected)));
  }

  // An incomplete-snapshot oracle (fresh instance) silently falls back to
  // the full-copy path on the touched overload.
  ShardedCostOracle fresh(topo_, weights_, partitions);
  fresh.begin_pass(master, tm, ExecPolicy::seq(), touched);
  for (std::size_t t = 0; t < fresh.num_shards(); ++t) {
    for (score::core::VmId u = 0; u < num_vms; ++u) {
      ASSERT_EQ(fresh.shard_alloc(t).server_of(u), master.server_of(u));
    }
  }
}

TEST_F(ShardedOracleTest, ShardAllocBeforeBeginPassThrows) {
  ShardedCostOracle oracle(topo_, weights_, partition_vms(16, 2));
  EXPECT_THROW(oracle.shard_alloc(0), std::logic_error);
  EXPECT_THROW(ShardedCostOracle(topo_, weights_, {}), std::invalid_argument);
}

}  // namespace
