// Remedy-internals tests beyond the Fig. 4 behaviour: the dirty-rate
// migration-byte model, congestion-threshold gating, per-round migration
// caps, benefit thresholds, and the balance-vs-localise contrast measured
// directly on link-utilisation spread.
#include <gtest/gtest.h>

#include "baselines/remedy.hpp"
#include "core/metrics.hpp"
#include "helpers.hpp"

namespace {

using score::baselines::Remedy;
using score::baselines::RemedyConfig;
using score::core::Allocation;
using score::core::CostModel;
using score::core::LinkWeights;
using score::core::ServerCapacity;
using score::core::ServerId;
using score::core::VmId;
using score::core::VmSpec;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::traffic::FlowDelta;
using score::traffic::TrafficMatrix;

ServerCapacity cap4() {
  ServerCapacity cap;
  cap.vm_slots = 4;
  cap.ram_mb = 1024.0;
  cap.cpu_cores = 4.0;
  return cap;
}

class RemedyDetail : public ::testing::Test {
 protected:
  RemedyDetail()
      : topo_(tiny_tree_config()), model_(topo_, LinkWeights::exponential(3)) {}

  // A hotspot: heavy pairs spanning racks 0 and 7 from stacked hosts.
  void build_hotspot(Allocation& alloc, TrafficMatrix& tm, double rate) {
    for (VmId i = 0; i < 8; ++i) {
      alloc.add_vm(VmSpec{}, static_cast<ServerId>(i % 2));
    }
    for (VmId i = 8; i < 16; ++i) {
      alloc.add_vm(VmSpec{}, static_cast<ServerId>(28 + i % 2));
    }
    for (VmId i = 0; i < 8; ++i) tm.apply(FlowDelta{i, i + 8, rate});
  }

  CanonicalTree topo_;
  CostModel model_;
};

TEST_F(RemedyDetail, MigratedBytesGrowWithDirtyRate) {
  RemedyConfig slow, fast;
  slow.page_dirty_rate_MBps = 1.0;
  fast.page_dirty_rate_MBps = 20.0;
  EXPECT_LT(Remedy(model_, slow).estimate_migrated_mb(196.0),
            Remedy(model_, fast).estimate_migrated_mb(196.0));
  // Zero dirty rate degenerates to plain RAM size.
  RemedyConfig idle;
  idle.page_dirty_rate_MBps = 0.0;
  EXPECT_DOUBLE_EQ(Remedy(model_, idle).estimate_migrated_mb(196.0), 196.0);
}

TEST_F(RemedyDetail, ThresholdGatesAction) {
  Allocation alloc(topo_.num_hosts(), cap4());
  TrafficMatrix tm(16);
  build_hotspot(alloc, tm, 3e8);  // host uplinks at 1.2 utilisation

  RemedyConfig lazy;
  lazy.congestion_threshold = 1.5;  // nothing qualifies
  lazy.rounds = 5;
  const auto res_lazy = Remedy(model_, lazy).run(alloc, tm);
  EXPECT_EQ(res_lazy.total_migrations, 0u);

  Allocation alloc2(topo_.num_hosts(), cap4());
  TrafficMatrix tm2(16);
  build_hotspot(alloc2, tm2, 3e8);
  RemedyConfig eager;
  eager.congestion_threshold = 0.3;
  eager.rounds = 5;
  eager.target_samples = 48;
  const auto res_eager = Remedy(model_, eager).run(alloc2, tm2);
  EXPECT_GT(res_eager.total_migrations, 0u);
}

TEST_F(RemedyDetail, PerRoundMigrationCapHonored) {
  Allocation alloc(topo_.num_hosts(), cap4());
  TrafficMatrix tm(16);
  build_hotspot(alloc, tm, 3e8);
  RemedyConfig cfg;
  cfg.congestion_threshold = 0.3;
  cfg.rounds = 1;
  cfg.max_migrations_per_round = 2;
  cfg.target_samples = 48;
  const auto res = Remedy(model_, cfg).run(alloc, tm);
  EXPECT_LE(res.total_migrations, 2u);
}

TEST_F(RemedyDetail, ReducesUtilizationSpreadNotCost) {
  // Remedy's objective is balance: after it runs, the *maximum* utilisation
  // falls markedly while the communication cost barely moves (it has no
  // topology-localisation objective). S-CORE's complement is tested in
  // test_integration.
  Allocation alloc(topo_.num_hosts(), cap4());
  TrafficMatrix tm(16);
  build_hotspot(alloc, tm, 3e8);

  const double cost_before = model_.total_cost(alloc, tm);
  const double max_before =
      score::core::link_loads_for(topo_, alloc, tm).max_utilization();

  RemedyConfig cfg;
  cfg.congestion_threshold = 0.3;
  cfg.rounds = 10;
  cfg.max_migrations_per_round = 4;
  cfg.target_samples = 64;
  const auto res = Remedy(model_, cfg).run(alloc, tm);
  ASSERT_GT(res.total_migrations, 0u);

  const double max_after =
      score::core::link_loads_for(topo_, alloc, tm).max_utilization();
  // Substantial balance relief...
  EXPECT_LT(max_after, 0.75 * max_before);
  // ...without ever *worsening* the communication cost (the cost-aware
  // tie-break guards the downside; the S-CORE contrast lives in
  // test_integration's head-to-head).
  const double cost_after = model_.total_cost(alloc, tm);
  EXPECT_LE(cost_after, cost_before * 1.05);
}

TEST_F(RemedyDetail, SeriesTracksCumulativeMigrations) {
  Allocation alloc(topo_.num_hosts(), cap4());
  TrafficMatrix tm(16);
  build_hotspot(alloc, tm, 3e8);
  RemedyConfig cfg;
  cfg.congestion_threshold = 0.3;
  cfg.rounds = 6;
  cfg.target_samples = 48;
  const auto res = Remedy(model_, cfg).run(alloc, tm);
  for (std::size_t i = 1; i < res.series.size(); ++i) {
    EXPECT_GE(res.series[i].migrations, res.series[i - 1].migrations);
  }
  EXPECT_EQ(res.series.back().migrations, res.total_migrations);
}

TEST_F(RemedyDetail, MigratedBytesAccumulatePerMove) {
  Allocation alloc(topo_.num_hosts(), cap4());
  TrafficMatrix tm(16);
  build_hotspot(alloc, tm, 3e8);
  RemedyConfig cfg;
  cfg.congestion_threshold = 0.3;
  cfg.rounds = 8;
  cfg.target_samples = 48;
  Remedy remedy(model_, cfg);
  const auto res = remedy.run(alloc, tm);
  if (res.total_migrations > 0) {
    EXPECT_NEAR(res.migrated_bytes_mb,
                static_cast<double>(res.total_migrations) *
                    remedy.estimate_migrated_mb(196.0),
                1e-6);
  }
}

}  // namespace
