// Baseline tests: initial placement strategies, the GA approximate-optimal
// search (validated against brute force on small instances), and Remedy's
// balance-oriented controller.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "baselines/ga_optimizer.hpp"
#include "baselines/placement.hpp"
#include "baselines/remedy.hpp"
#include "helpers.hpp"

namespace {

using score::baselines::GaConfig;
using score::baselines::GaOptimizer;
using score::baselines::make_allocation;
using score::baselines::pair_flow_hash;
using score::baselines::PlacementStrategy;
using score::baselines::Remedy;
using score::baselines::RemedyConfig;
using score::core::Allocation;
using score::core::CostModel;
using score::core::LinkWeights;
using score::core::ServerCapacity;
using score::core::ServerId;
using score::core::VmId;
using score::core::VmSpec;
using score::testing::random_tm;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::traffic::FlowDelta;
using score::traffic::TrafficMatrix;
using score::util::Rng;

ServerCapacity cap4() {
  ServerCapacity cap;
  cap.vm_slots = 4;
  cap.ram_mb = 1024.0;
  cap.cpu_cores = 4.0;
  return cap;
}

// ----------------------------------------------------------------- placement

TEST(Placement, PackedFillsServersInOrder) {
  CanonicalTree topo(tiny_tree_config());
  Rng rng(1);
  auto alloc = make_allocation(topo, cap4(), 10, VmSpec{}, PlacementStrategy::kPacked, rng);
  EXPECT_EQ(alloc.used_slots(0), 4u);
  EXPECT_EQ(alloc.used_slots(1), 4u);
  EXPECT_EQ(alloc.used_slots(2), 2u);
  EXPECT_EQ(alloc.used_slots(3), 0u);
}

TEST(Placement, RoundRobinSpreads) {
  CanonicalTree topo(tiny_tree_config());
  Rng rng(1);
  auto alloc = make_allocation(topo, cap4(), 32, VmSpec{},
                               PlacementStrategy::kRoundRobin, rng);
  for (ServerId s = 0; s < 32; ++s) EXPECT_EQ(alloc.used_slots(s), 1u);
}

TEST(Placement, RandomIsFeasibleAndComplete) {
  CanonicalTree topo(tiny_tree_config());
  Rng rng(2);
  auto alloc = make_allocation(topo, cap4(), 100, VmSpec{},
                               PlacementStrategy::kRandom, rng);
  EXPECT_EQ(alloc.num_vms(), 100u);
  EXPECT_TRUE(alloc.check_consistency());
}

TEST(Placement, RandomIsDeterministicGivenRng) {
  CanonicalTree topo(tiny_tree_config());
  Rng a(3), b(3);
  auto alloc_a = make_allocation(topo, cap4(), 50, VmSpec{},
                                 PlacementStrategy::kRandom, a);
  auto alloc_b = make_allocation(topo, cap4(), 50, VmSpec{},
                                 PlacementStrategy::kRandom, b);
  for (VmId vm = 0; vm < 50; ++vm) {
    EXPECT_EQ(alloc_a.server_of(vm), alloc_b.server_of(vm));
  }
}

TEST(Placement, ThrowsWhenFleetDoesNotFit) {
  CanonicalTree topo(tiny_tree_config());  // 32 hosts x 4 slots = 128 slots
  Rng rng(4);
  for (auto strategy : {PlacementStrategy::kRandom, PlacementStrategy::kRoundRobin,
                        PlacementStrategy::kPacked}) {
    Rng r(4);
    EXPECT_THROW(make_allocation(topo, cap4(), 129, VmSpec{}, strategy, r),
                 std::runtime_error)
        << placement_name(strategy);
  }
  (void)rng;
}

TEST(Placement, FullFleetExactlyFits) {
  CanonicalTree topo(tiny_tree_config());
  Rng rng(5);
  auto alloc = make_allocation(topo, cap4(), 128, VmSpec{},
                               PlacementStrategy::kRandom, rng);
  EXPECT_EQ(alloc.num_vms(), 128u);
  EXPECT_TRUE(alloc.check_consistency());
}

// ------------------------------------------------------------------------ GA

class GaTest : public ::testing::Test {
 protected:
  GaTest() : topo_(tiny_tree_config()), model_(topo_, LinkWeights::exponential(3)) {}

  CanonicalTree topo_;
  CostModel model_;
};

TEST_F(GaTest, ImprovesOverRandomInitial) {
  Rng rng(10);
  auto tm = random_tm(48, 3.0, rng);
  auto initial = score::testing::random_allocation(topo_, 48, rng);
  const double before = model_.total_cost(initial, tm);

  GaConfig cfg;
  cfg.population = 24;
  cfg.max_generations = 60;
  GaOptimizer ga(model_, cfg);
  const auto res = ga.optimize(initial, tm);
  EXPECT_LT(res.best_cost, before);
  EXPECT_GT(res.generations_run, 0u);
}

TEST_F(GaTest, BestCostHistoryMonotone) {
  Rng rng(11);
  auto tm = random_tm(32, 2.0, rng);
  auto initial = score::testing::random_allocation(topo_, 32, rng);
  GaConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 40;
  const auto res = GaOptimizer(model_, cfg).optimize(initial, tm);
  for (std::size_t i = 1; i < res.best_cost_history.size(); ++i) {
    EXPECT_LE(res.best_cost_history[i], res.best_cost_history[i - 1] + 1e-9);
  }
}

TEST_F(GaTest, ResultRespectsCapacity) {
  Rng rng(12);
  auto tm = random_tm(64, 3.0, rng);
  auto initial = score::testing::random_allocation(topo_, 64, rng);
  GaConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 30;
  const auto res = GaOptimizer(model_, cfg).optimize(initial, tm);
  Allocation rebuilt = res.build_allocation(initial);
  EXPECT_TRUE(rebuilt.check_consistency());
  EXPECT_NEAR(model_.total_cost(rebuilt, tm), res.best_cost,
              1e-7 * (1.0 + res.best_cost));
}

TEST_F(GaTest, FindsExactOptimumOnTinyInstance) {
  // Two 2-VM services far apart; optimal = colocate each pair, cost 0.
  Allocation initial(topo_.num_hosts(), cap4());
  initial.add_vm(VmSpec{}, 0);
  initial.add_vm(VmSpec{}, 31);
  initial.add_vm(VmSpec{}, 5);
  initial.add_vm(VmSpec{}, 27);
  TrafficMatrix tm(4, {{0, 1, 10.0}, {2, 3, 10.0}});

  GaConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 60;
  const auto res = GaOptimizer(model_, cfg).optimize(initial, tm);
  EXPECT_DOUBLE_EQ(res.best_cost, 0.0);
}

TEST_F(GaTest, MatchesBruteForceOnSmallInstance) {
  // 5 VMs on a 4-host sub-fleet: enumerate all 4^5 = 1024 assignments.
  score::topo::CanonicalTreeConfig tiny;
  tiny.racks = 2;
  tiny.hosts_per_rack = 2;
  tiny.racks_per_pod = 1;
  tiny.cores = 1;
  CanonicalTree topo(tiny);
  CostModel model(topo, LinkWeights::exponential(3));

  ServerCapacity cap;
  cap.vm_slots = 3;
  cap.ram_mb = 4096;
  cap.cpu_cores = 8;
  Allocation initial(topo.num_hosts(), cap);
  for (int i = 0; i < 5; ++i) {
    initial.add_vm(VmSpec{}, static_cast<ServerId>(i % 4));
  }
  Rng rng(13);
  auto tm = random_tm(5, 2.0, rng);

  double brute_best = std::numeric_limits<double>::infinity();
  GaOptimizer ga_probe(model, GaConfig{});
  for (int code = 0; code < 1024; ++code) {
    std::vector<ServerId> assign(5);
    int c = code;
    std::vector<int> used(4, 0);
    bool feasible = true;
    for (int i = 0; i < 5; ++i) {
      assign[static_cast<std::size_t>(i)] = static_cast<ServerId>(c % 4);
      if (++used[c % 4] > 3) feasible = false;
      c /= 4;
    }
    if (!feasible) continue;
    brute_best = std::min(brute_best, ga_probe.assignment_cost(assign, tm));
  }

  GaConfig cfg;
  cfg.population = 32;
  cfg.max_generations = 80;
  const auto res = GaOptimizer(model, cfg).optimize(initial, tm);
  EXPECT_NEAR(res.best_cost, brute_best, 1e-9 + 1e-7 * brute_best);
}

TEST_F(GaTest, StopsOnConvergenceWindow) {
  Rng rng(14);
  auto tm = random_tm(24, 2.0, rng);
  auto initial = score::testing::random_allocation(topo_, 24, rng);
  GaConfig cfg;
  cfg.population = 16;
  cfg.max_generations = 500;
  cfg.stop_window = 5;
  const auto res = GaOptimizer(model_, cfg).optimize(initial, tm);
  EXPECT_LT(res.generations_run, 500u);  // early stop triggered
}

TEST_F(GaTest, RejectsSizeMismatch) {
  Rng rng(15);
  auto initial = score::testing::random_allocation(topo_, 8, rng);
  TrafficMatrix tm(9);
  EXPECT_THROW(GaOptimizer(model_, GaConfig{}).optimize(initial, tm),
               std::invalid_argument);
}

// ---------------------------------------------------------------------- Remedy

class RemedyTest : public ::testing::Test {
 protected:
  RemedyTest() : topo_(tiny_tree_config()), model_(topo_, LinkWeights::exponential(3)) {}

  CanonicalTree topo_;
  CostModel model_;
};

TEST_F(RemedyTest, PairFlowHashSymmetricAndSpread) {
  EXPECT_EQ(pair_flow_hash(3, 9), pair_flow_hash(9, 3));
  std::set<std::uint64_t> values;
  for (std::uint32_t i = 0; i < 100; ++i) values.insert(pair_flow_hash(i, i + 1));
  EXPECT_GT(values.size(), 95u);
}

TEST_F(RemedyTest, MigratedBytesModel) {
  RemedyConfig cfg;
  cfg.page_dirty_rate_MBps = 4.0;
  cfg.migration_bandwidth_MBps = 40.0;
  Remedy remedy(model_, cfg);
  // ram·bw/(bw−d) = 196·40/36 ≈ 217.8 MB.
  EXPECT_NEAR(remedy.estimate_migrated_mb(196.0), 217.78, 0.1);
  // Dirty rate is clamped below bandwidth — no division blow-up.
  RemedyConfig hot = cfg;
  hot.page_dirty_rate_MBps = 1000.0;
  EXPECT_GT(Remedy(model_, hot).estimate_migrated_mb(196.0), 0.0);
}

TEST_F(RemedyTest, ReducesMaxUtilizationUnderHotspot) {
  // Build a hotspot: many heavy pairs crossing the core.
  Allocation alloc(topo_.num_hosts(), cap4());
  TrafficMatrix tm(16);
  for (VmId i = 0; i < 8; ++i) {
    alloc.add_vm(VmSpec{}, static_cast<ServerId>(i % 2));  // rack 0
  }
  for (VmId i = 8; i < 16; ++i) {
    alloc.add_vm(VmSpec{}, static_cast<ServerId>(28 + i % 2));  // rack 7
  }
  // Cross-core elephants.
  for (VmId i = 0; i < 8; ++i) tm.apply(FlowDelta{i, i + 8, 3e8});

  RemedyConfig cfg;
  cfg.congestion_threshold = 0.3;
  cfg.rounds = 10;
  cfg.max_migrations_per_round = 4;
  cfg.target_samples = 48;
  Remedy remedy(model_, cfg);
  const double before = remedy.link_loads(alloc, tm).max_utilization();
  const auto res = remedy.run(alloc, tm);
  const double after = remedy.link_loads(alloc, tm).max_utilization();
  EXPECT_GT(res.total_migrations, 0u);
  EXPECT_LT(after, before);
  EXPECT_TRUE(alloc.check_consistency());
}

TEST_F(RemedyTest, QuietNetworkNeedsNoMigrations) {
  Rng rng(20);
  const auto tm = random_tm(16, 2.0, rng).scaled(1e-6);  // negligible load
  auto alloc = score::testing::random_allocation(topo_, 16, rng);
  RemedyConfig cfg;
  cfg.rounds = 5;
  Remedy remedy(model_, cfg);
  const auto res = remedy.run(alloc, tm);
  EXPECT_EQ(res.total_migrations, 0u);
  EXPECT_DOUBLE_EQ(res.final_cost, res.initial_cost);
}

TEST_F(RemedyTest, SeriesHasOnePointPerRoundPlusStart) {
  Rng rng(21);
  auto tm = random_tm(16, 2.0, rng);
  auto alloc = score::testing::random_allocation(topo_, 16, rng);
  RemedyConfig cfg;
  cfg.rounds = 7;
  const auto res = Remedy(model_, cfg).run(alloc, tm);
  EXPECT_EQ(res.series.size(), 8u);
  for (std::size_t i = 1; i < res.series.size(); ++i) {
    EXPECT_GT(res.series[i].time_s, res.series[i - 1].time_s);
  }
}

TEST_F(RemedyTest, AccountsMigrationBytes) {
  Allocation alloc(topo_.num_hosts(), cap4());
  alloc.add_vm(VmSpec{}, 0);
  alloc.add_vm(VmSpec{}, 31);
  TrafficMatrix tm(2, {{0, 1, 9e8}});  // saturates the core path
  RemedyConfig cfg;
  cfg.congestion_threshold = 0.3;
  cfg.rounds = 3;
  cfg.target_samples = 64;
  const auto res = Remedy(model_, cfg).run(alloc, tm);
  if (res.total_migrations > 0) {
    EXPECT_GT(res.migrated_bytes_mb,
              190.0 * static_cast<double>(res.total_migrations));
  }
}

}  // namespace
