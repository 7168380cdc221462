// Cost-model tests: link-weight schemes, Eq. (1)/(2) consistency, pair-cost
// arithmetic, and the paper's central correctness claim — the Lemma 3
// migration delta equals the brute-force difference of Eq. (2) — verified as
// a property over random instances on both topologies. CachedCostModel must
// agree with the brute-force model everywhere, including the self-migration
// and zero-traffic edge cases.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cached_cost_model.hpp"
#include "helpers.hpp"

namespace {

using score::core::Allocation;
using score::core::CachedCostModel;
using score::core::CostModel;
using score::core::LinkWeights;
using score::core::ServerCapacity;
using score::core::ServerId;
using score::core::VmId;
using score::core::VmSpec;
using score::testing::random_allocation;
using score::testing::random_tm;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::topo::FatTree;
using score::topo::FatTreeConfig;
using score::traffic::FlowDelta;
using score::traffic::TrafficMatrix;
using score::util::Rng;

// ---------------------------------------------------------------- weights

TEST(LinkWeights, ExponentialMatchesPaper) {
  auto w = LinkWeights::exponential(3);
  EXPECT_DOUBLE_EQ(w.weight(1), 1.0);               // e^0
  EXPECT_DOUBLE_EQ(w.weight(2), std::exp(1.0));     // e^1
  EXPECT_DOUBLE_EQ(w.weight(3), std::exp(2.0));     // e^2
  EXPECT_DOUBLE_EQ(w.prefix(0), 0.0);
  EXPECT_DOUBLE_EQ(w.prefix(2), 1.0 + std::exp(1.0));
}

TEST(LinkWeights, WeightsStrictlyIncreaseAcrossLayers) {
  // Paper §II: c1 < c2 < c3.
  for (const auto& w : {LinkWeights::exponential(3), LinkWeights::linear(3)}) {
    EXPECT_LT(w.weight(1), w.weight(2));
    EXPECT_LT(w.weight(2), w.weight(3));
  }
}

TEST(LinkWeights, PrefixIsCumulative) {
  auto w = LinkWeights::linear(3);
  EXPECT_DOUBLE_EQ(w.prefix(1), 1.0);
  EXPECT_DOUBLE_EQ(w.prefix(2), 3.0);
  EXPECT_DOUBLE_EQ(w.prefix(3), 6.0);
}

TEST(LinkWeights, UniformIsHopCount) {
  auto w = LinkWeights::uniform(3);
  for (int l = 0; l <= 3; ++l) EXPECT_DOUBLE_EQ(w.prefix(l), l);
}

TEST(LinkWeights, RejectsBadInput) {
  EXPECT_THROW(LinkWeights({}), std::invalid_argument);
  EXPECT_THROW(LinkWeights({1.0, 0.0}), std::invalid_argument);
  auto w = LinkWeights::exponential(3);
  EXPECT_THROW(w.weight(0), std::out_of_range);
  EXPECT_THROW(w.weight(4), std::out_of_range);
  EXPECT_THROW(w.prefix(-1), std::out_of_range);
  EXPECT_THROW(w.prefix(4), std::out_of_range);
}

// ---------------------------------------------------------------- fixtures

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest()
      : topo_(tiny_tree_config()),
        model_(topo_, LinkWeights::exponential(3)) {}

  CanonicalTree topo_;
  CostModel model_;
};

TEST_F(CostModelTest, PairCostFormula) {
  // Level 1: 2 links of weight c1 -> 2·λ·c1.
  EXPECT_DOUBLE_EQ(model_.pair_cost(3.0, 1), 2.0 * 3.0 * 1.0);
  // Level 2: 2·λ·(c1 + c2).
  EXPECT_DOUBLE_EQ(model_.pair_cost(3.0, 2), 2.0 * 3.0 * (1.0 + std::exp(1.0)));
  // Level 0 (colocated): free.
  EXPECT_DOUBLE_EQ(model_.pair_cost(3.0, 0), 0.0);
}

TEST_F(CostModelTest, LevelTracksAllocation) {
  Allocation alloc(topo_.num_hosts(), ServerCapacity{});
  const VmId a = alloc.add_vm(VmSpec{}, 0);
  const VmId b = alloc.add_vm(VmSpec{}, 0);
  const TrafficMatrix tm(2, {{a, b, 1.0}});
  EXPECT_EQ(model_.level(alloc, a, b), 0);
  alloc.migrate(b, 1);  // same rack
  EXPECT_EQ(model_.level(alloc, a, b), 1);
  alloc.migrate(b, 4);  // rack 1, same pod
  EXPECT_EQ(model_.level(alloc, a, b), 2);
  alloc.migrate(b, static_cast<ServerId>(topo_.num_hosts() - 1));
  EXPECT_EQ(model_.level(alloc, a, b), 3);
}

TEST_F(CostModelTest, VmCostMatchesEq1) {
  Allocation alloc(topo_.num_hosts(), ServerCapacity{});
  const VmId u = alloc.add_vm(VmSpec{}, 0);
  const VmId v = alloc.add_vm(VmSpec{}, 1);   // level 1
  const VmId w = alloc.add_vm(VmSpec{}, 31);  // level 3 (last host)
  const TrafficMatrix tm(3, {{u, v, 2.0}, {u, w, 5.0}});
  const auto& lw = model_.weights();
  const double expected = 2.0 * 2.0 * lw.prefix(1) + 2.0 * 5.0 * lw.prefix(3);
  EXPECT_DOUBLE_EQ(model_.vm_cost(alloc, tm, u), expected);
}

TEST_F(CostModelTest, HighestLevelOverNeighbors) {
  Allocation alloc(topo_.num_hosts(), ServerCapacity{});
  const VmId u = alloc.add_vm(VmSpec{}, 0);
  const VmId v = alloc.add_vm(VmSpec{}, 1);
  const VmId w = alloc.add_vm(VmSpec{}, 5);
  const TrafficMatrix tm(3, {{u, v, 1.0}, {u, w, 1.0}});
  EXPECT_EQ(model_.highest_level(alloc, tm, u), 2);
  EXPECT_EQ(model_.highest_level(alloc, tm, v), 1);
  TrafficMatrix empty(3);
  EXPECT_EQ(model_.highest_level(alloc, empty, u), 0);
}

TEST_F(CostModelTest, TotalCostEqualsHalfSumOfVmCosts) {
  // Eq. (2) == ½ Σ_u Eq. (1) — the paper's double-counting identity.
  Rng rng(5);
  auto tm = random_tm(48, 3.0, rng);
  auto alloc = random_allocation(topo_, 48, rng);
  double half_sum = 0.0;
  for (VmId u = 0; u < tm.num_vms(); ++u) half_sum += model_.vm_cost(alloc, tm, u);
  half_sum /= 2.0;
  EXPECT_NEAR(model_.total_cost(alloc, tm), half_sum, 1e-9 * half_sum);
}

TEST_F(CostModelTest, ColocatedEverythingIsFree) {
  Allocation alloc(topo_.num_hosts(), ServerCapacity{});
  const TrafficMatrix tm(4, {{0, 1, 10.0}, {2, 3, 20.0}});
  for (VmId i = 0; i < 4; ++i) alloc.add_vm(VmSpec{}, 7);
  EXPECT_DOUBLE_EQ(model_.total_cost(alloc, tm), 0.0);
}

TEST_F(CostModelTest, SingleRackAllocationIsOptimal) {
  // Paper §III: if all active VMs fit within one rack, that allocation
  // minimises the overall cost. Compare against many random allocations.
  Rng rng(9);
  const std::size_t n = 8;  // fits in one rack (4 hosts x 4 slots... 2 hosts)
  auto tm = random_tm(n, 2.0, rng);

  Allocation racked(topo_.num_hosts(), ServerCapacity{});
  for (VmId i = 0; i < n; ++i) {
    racked.add_vm(VmSpec{}, static_cast<ServerId>(i % 4));  // all in rack 0
  }
  const double rack_cost = model_.total_cost(racked, tm);

  for (int trial = 0; trial < 25; ++trial) {
    auto alloc = random_allocation(topo_, n, rng);
    EXPECT_GE(model_.total_cost(alloc, tm), rack_cost - 1e-9);
  }
}

TEST_F(CostModelTest, MigrationDeltaZeroForSameServer) {
  Rng rng(1);
  auto tm = random_tm(16, 2.0, rng);
  auto alloc = random_allocation(topo_, 16, rng);
  EXPECT_DOUBLE_EQ(
      model_.migration_delta(alloc, tm, 0, alloc.server_of(0)), 0.0);
}

TEST_F(CostModelTest, MigrationDeltaPositiveWhenLocalizing) {
  Allocation alloc(topo_.num_hosts(), ServerCapacity{});
  const VmId u = alloc.add_vm(VmSpec{}, 0);
  const VmId v = alloc.add_vm(VmSpec{}, static_cast<ServerId>(topo_.num_hosts() - 1));
  const TrafficMatrix tm(2, {{u, v, 10.0}});
  // Moving u next to v removes a level-3 pair entirely.
  const double delta = model_.migration_delta(alloc, tm, u, alloc.server_of(v));
  EXPECT_DOUBLE_EQ(delta, model_.pair_cost(10.0, 3));
}

// The core property: Lemma 3's local delta equals the brute-force global
// difference C^A − C^A', for random VMs/targets on both topologies and all
// weight schemes.
struct DeltaCase {
  const char* topo;
  const char* weights;
};

class MigrationDeltaProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MigrationDeltaProperty, LocalDeltaEqualsGlobalDifference) {
  const auto [topo_kind, weight_kind] = GetParam();
  std::unique_ptr<score::topo::Topology> topo;
  if (topo_kind == 0) {
    topo = std::make_unique<CanonicalTree>(tiny_tree_config());
  } else {
    topo = std::make_unique<FatTree>(FatTreeConfig{.k = 4});
  }
  LinkWeights weights = weight_kind == 0   ? LinkWeights::exponential(3)
                        : weight_kind == 1 ? LinkWeights::linear(3)
                                           : LinkWeights::uniform(3);
  CostModel model(*topo, weights);

  Rng rng(static_cast<std::uint64_t>(1000 + topo_kind * 10 + weight_kind));
  const std::size_t n = 24;
  auto tm = random_tm(n, 3.0, rng);
  auto alloc = random_allocation(*topo, n, rng);

  for (int trial = 0; trial < 200; ++trial) {
    const auto u = static_cast<VmId>(rng.index(n));
    const auto target = static_cast<ServerId>(rng.index(topo->num_hosts()));
    if (!alloc.can_host(target, alloc.spec(u))) continue;

    const double before = model.total_cost(alloc, tm);
    const double delta = model.migration_delta(alloc, tm, u, target);
    Allocation moved = alloc;
    moved.migrate(u, target);
    const double after = model.total_cost(moved, tm);
    EXPECT_NEAR(delta, before - after, 1e-7 * (1.0 + std::abs(before)))
        << "vm=" << u << " target=" << target;

    // Occasionally commit the move so the walk explores many allocations.
    if (trial % 3 == 0) alloc = std::move(moved);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndWeights, MigrationDeltaProperty,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0, 1, 2)));

// ----------------------------------------------------------- cached model

class CachedCostModelTest : public ::testing::Test {
 protected:
  CachedCostModelTest()
      : topo_(tiny_tree_config()),
        brute_(topo_, LinkWeights::exponential(3)),
        cached_(topo_, LinkWeights::exponential(3)) {}

  CanonicalTree topo_;
  CostModel brute_;
  CachedCostModel cached_;
};

TEST_F(CachedCostModelTest, BoundTotalMatchesBruteForceExactly) {
  Rng rng(21);
  auto tm = random_tm(32, 3.0, rng);
  auto alloc = random_allocation(topo_, 32, rng);
  cached_.bind(alloc, tm);
  // Freshly bound: bit-identical accumulation order, so exact equality.
  EXPECT_EQ(cached_.total_cost(alloc, tm), brute_.total_cost(alloc, tm));
}

TEST_F(CachedCostModelTest, ApplyMigrationFoldsDeltaIncrementally) {
  Rng rng(22);
  auto tm = random_tm(32, 3.0, rng);
  auto alloc = random_allocation(topo_, 32, rng);
  cached_.bind(alloc, tm);
  const auto rebuilds_before = cached_.rebuilds();
  for (int trial = 0; trial < 100; ++trial) {
    const auto u = static_cast<VmId>(rng.index(32));
    const auto target = static_cast<ServerId>(rng.index(topo_.num_hosts()));
    if (!alloc.can_host(target, alloc.spec(u)) &&
        target != alloc.server_of(u)) {
      continue;
    }
    const double before = cached_.total_cost(alloc, tm);
    const double delta = cached_.migration_delta(alloc, tm, u, target);
    cached_.apply_migration(alloc, tm, u, target);
    const double after = cached_.total_cost(alloc, tm);
    EXPECT_NEAR(after, before - delta, 1e-7 * (1.0 + std::abs(before)));
    EXPECT_NEAR(after, brute_.total_cost(alloc, tm),
                1e-7 * (1.0 + std::abs(after)));
  }
  // All updates went through the O(degree) path, not rebuilds.
  EXPECT_EQ(cached_.rebuilds(), rebuilds_before);
}

TEST_F(CachedCostModelTest, SelfMigrationAgreesWithMigrationDelta) {
  // Edge case: target == current server. migration_delta returns exactly 0
  // and apply_migration must leave the cached total untouched.
  Rng rng(23);
  auto tm = random_tm(16, 2.0, rng);
  auto alloc = random_allocation(topo_, 16, rng);
  cached_.bind(alloc, tm);
  for (VmId u = 0; u < tm.num_vms(); ++u) {
    const ServerId home = alloc.server_of(u);
    EXPECT_DOUBLE_EQ(cached_.migration_delta(alloc, tm, u, home), 0.0);
    const double before = cached_.total_cost(alloc, tm);
    const auto updates = cached_.incremental_updates();
    cached_.apply_migration(alloc, tm, u, home);
    EXPECT_EQ(cached_.total_cost(alloc, tm), before);
    EXPECT_EQ(cached_.incremental_updates(), updates);  // no-op, not an update
    EXPECT_EQ(alloc.server_of(u), home);
  }
}

TEST_F(CachedCostModelTest, ZeroTrafficVmAgreesWithMigrationDelta) {
  // Edge case: a VM with no communicating peers. Its migration changes no
  // pair level, so delta is 0 and the cached total must not move.
  Allocation alloc(topo_.num_hosts(), ServerCapacity{});
  const VmId a = alloc.add_vm(VmSpec{}, 0);
  const VmId b = alloc.add_vm(VmSpec{}, 1);
  const VmId quiet = alloc.add_vm(VmSpec{}, 2);
  TrafficMatrix tm(3, {{a, b, 5.0}});  // `quiet` has an empty neighbour set
  cached_.bind(alloc, tm);
  const double before = cached_.total_cost(alloc, tm);
  const auto far = static_cast<ServerId>(topo_.num_hosts() - 1);
  EXPECT_DOUBLE_EQ(cached_.migration_delta(alloc, tm, quiet, far), 0.0);
  EXPECT_DOUBLE_EQ(brute_.migration_delta(alloc, tm, quiet, far), 0.0);
  cached_.apply_migration(alloc, tm, quiet, far);
  EXPECT_EQ(alloc.server_of(quiet), far);
  EXPECT_EQ(cached_.total_cost(alloc, tm), before);
  EXPECT_EQ(cached_.total_cost(alloc, tm), brute_.total_cost(alloc, tm));

  // A zero-rate entry is removed from the TM entirely; the pair then behaves
  // exactly like no traffic.
  tm.apply(FlowDelta{a, b, -5.0});
  EXPECT_DOUBLE_EQ(cached_.migration_delta(alloc, tm, a, far), 0.0);
  EXPECT_DOUBLE_EQ(cached_.total_cost(alloc, tm), 0.0);
}

TEST_F(CachedCostModelTest, OutOfBandMutationsTriggerRebuild) {
  Rng rng(24);
  auto tm = random_tm(24, 3.0, rng);
  auto alloc = random_allocation(topo_, 24, rng);
  cached_.bind(alloc, tm);
  ASSERT_EQ(cached_.total_cost(alloc, tm), brute_.total_cost(alloc, tm));

  // Bypass the cache: mutate the allocation directly.
  for (int trial = 0; trial < 10; ++trial) {
    const auto u = static_cast<VmId>(rng.index(24));
    const auto target = static_cast<ServerId>(rng.index(topo_.num_hosts()));
    if (alloc.can_host(target, alloc.spec(u))) alloc.migrate(u, target);
  }
  EXPECT_NEAR(cached_.total_cost(alloc, tm), brute_.total_cost(alloc, tm),
              1e-9);

  // Bypass the cache: mutate the traffic matrix (dynamics).
  tm.apply(FlowDelta{0, 1, 7.5});
  tm = tm.scaled(1.5);
  EXPECT_NEAR(cached_.total_cost(alloc, tm), brute_.total_cost(alloc, tm),
              1e-9);
}

TEST_F(CachedCostModelTest, ForeignAllocationFallsBackToBruteForce) {
  Rng rng(25);
  auto tm = random_tm(16, 2.0, rng);
  auto alloc = random_allocation(topo_, 16, rng);
  cached_.bind(alloc, tm);
  // A copied allocation is a different object: queries about it must not be
  // answered from the cache (GA populations, exact-solver probes do this).
  Allocation copy = alloc;
  ServerId target = score::core::kInvalidServer;
  for (ServerId s = 0; s < topo_.num_hosts(); ++s) {
    if (s != copy.server_of(0) && copy.can_host(s, copy.spec(0))) {
      target = s;
      break;
    }
  }
  ASSERT_NE(target, score::core::kInvalidServer);
  copy.migrate(0, target);
  EXPECT_EQ(cached_.total_cost(copy, tm), brute_.total_cost(copy, tm));
  // The bound pair is unaffected by the foreign query.
  EXPECT_EQ(cached_.total_cost(alloc, tm), brute_.total_cost(alloc, tm));
  // And committing through the cache for a foreign pair degrades gracefully.
  Allocation copy2 = alloc;
  cached_.apply_migration(copy2, tm, 0, target);
  EXPECT_EQ(copy2.server_of(0), target);
}

}  // namespace
