// Hypervisor-substrate tests: flow table CRUD and throughput (paper §V-B.1)
// and the pre-copy live-migration model (Fig. 5b-d quantities). The token
// wire codec has its own suite, test_token_codec.
#include <gtest/gtest.h>

#include "hypervisor/flow_table.hpp"
#include "hypervisor/live_migration.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using score::hypervisor::FlowKey;
using score::hypervisor::FlowTable;
using score::hypervisor::MigrationModelConfig;
using score::hypervisor::MigrationOutcome;
using score::hypervisor::PreCopyMigrationModel;
using score::util::Rng;

FlowKey key(std::uint32_t src, std::uint32_t dst, std::uint16_t sport = 1000,
            std::uint16_t dport = 80) {
  FlowKey k;
  k.src_ip = src;
  k.dst_ip = dst;
  k.src_port = sport;
  k.dst_port = dport;
  return k;
}

// ------------------------------------------------------------------ FlowTable

TEST(FlowTable, AddAndLookup) {
  FlowTable table;
  table.update(key(1, 2), 100, 1, 0.0);
  const auto* rec = table.lookup(key(1, 2));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->bytes, 100u);
  EXPECT_EQ(rec->packets, 1u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(key(2, 1)), nullptr);  // direction matters per flow
}

TEST(FlowTable, UpdateAccumulatesCounters) {
  FlowTable table;
  table.update(key(1, 2), 100, 1, 0.0);
  table.update(key(1, 2), 50, 2, 1.0);
  const auto* rec = table.lookup(key(1, 2));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->bytes, 150u);
  EXPECT_EQ(rec->packets, 3u);
  EXPECT_DOUBLE_EQ(rec->first_seen_s, 0.0);
  EXPECT_DOUBLE_EQ(rec->last_seen_s, 1.0);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, ThroughputFromDuration) {
  FlowTable table;
  table.update(key(1, 2), 1000, 1, 0.0);
  table.update(key(1, 2), 1000, 1, 2.0);
  EXPECT_DOUBLE_EQ(table.lookup(key(1, 2))->throughput_Bps(), 1000.0);
}

TEST(FlowTable, RemoveFlow) {
  FlowTable table;
  table.update(key(1, 2), 10, 1, 0.0);
  EXPECT_TRUE(table.remove(key(1, 2)));
  EXPECT_FALSE(table.remove(key(1, 2)));
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(table.flows_for_ip(1).empty());
}

TEST(FlowTable, FlowsForIpCoversBothDirections) {
  FlowTable table;
  table.update(key(1, 2), 10, 1, 0.0);
  table.update(key(3, 1), 10, 1, 0.0);
  table.update(key(2, 3), 10, 1, 0.0);
  EXPECT_EQ(table.flows_for_ip(1).size(), 2u);
  EXPECT_EQ(table.flows_for_ip(2).size(), 2u);
  EXPECT_EQ(table.flows_for_ip(3).size(), 2u);
  EXPECT_TRUE(table.flows_for_ip(99).empty());
}

TEST(FlowTable, DistinctFiveTuplesAreDistinctFlows) {
  FlowTable table;
  table.update(key(1, 2, 1000, 80), 10, 1, 0.0);
  table.update(key(1, 2, 1001, 80), 20, 1, 0.0);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.flows_for_ip(1).size(), 2u);
  EXPECT_EQ(table.bytes_between(1, 2), 30u);
}

TEST(FlowTable, BytesBetweenSumsBothDirections) {
  FlowTable table;
  table.update(key(1, 2), 100, 1, 0.0);
  table.update(key(2, 1), 40, 1, 0.0);
  table.update(key(1, 3), 999, 1, 0.0);
  EXPECT_EQ(table.bytes_between(1, 2), 140u);
  EXPECT_EQ(table.bytes_between(2, 1), 140u);
  EXPECT_EQ(table.bytes_between(1, 99), 0u);
}

TEST(FlowTable, AggregateRateBetweenEndpoints) {
  FlowTable table;
  table.update(key(1, 2), 1000, 1, 0.0);   // 1000 B over 10 s -> 100 B/s
  table.update(key(2, 1), 500, 1, 5.0);    // 500 B over 5 s -> 100 B/s
  EXPECT_DOUBLE_EQ(table.aggregate_rate_Bps(1, 2, 10.0), 200.0);
}

TEST(FlowTable, PeerRatesGroupsByPeer) {
  FlowTable table;
  table.update(key(1, 2), 1000, 1, 0.0);
  table.update(key(1, 2, 1001), 1000, 1, 0.0);
  table.update(key(3, 1), 500, 1, 0.0);
  auto peers = table.peer_rates_Bps(1, 10.0);
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0].first, 2u);
  EXPECT_DOUBLE_EQ(peers[0].second, 200.0);
  EXPECT_EQ(peers[1].first, 3u);
  EXPECT_DOUBLE_EQ(peers[1].second, 50.0);
}

TEST(FlowTable, ClearIpRemovesAllTouchingFlows) {
  FlowTable table;
  table.update(key(1, 2), 10, 1, 0.0);
  table.update(key(3, 1), 10, 1, 0.0);
  table.update(key(2, 3), 10, 1, 0.0);
  EXPECT_EQ(table.clear_ip(1), 2u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_NE(table.lookup(key(2, 3)), nullptr);
}

TEST(FlowTable, ClearEmptiesEverything) {
  FlowTable table;
  for (std::uint32_t i = 0; i < 100; ++i) table.update(key(i, i + 1), 1, 1, 0.0);
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(table.flows_for_ip(5).empty());
}

TEST(FlowTable, EvictIdleRemovesOnlyStaleFlows) {
  FlowTable table;
  table.update(key(1, 2), 100, 1, 0.0);   // idle since t=0
  table.update(key(1, 3), 100, 1, 5.0);   // refreshed at t=5
  table.update(key(4, 1), 100, 1, 9.0);   // fresh
  EXPECT_EQ(table.evict_idle(5.0), 1u);   // strictly-before cutoff
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.lookup(key(1, 2)), nullptr);
  EXPECT_NE(table.lookup(key(1, 3)), nullptr);
  EXPECT_NE(table.lookup(key(4, 1)), nullptr);
  EXPECT_EQ(table.evict_idle(5.0), 0u);  // idempotent
}

TEST(FlowTable, EvictIdleKeepsIpIndexConsistent) {
  FlowTable table;
  table.update(key(1, 2), 80, 1, 0.0);
  table.update(key(1, 3), 80, 1, 0.0);
  table.update(key(1, 3, 1001), 80, 1, 10.0);
  EXPECT_EQ(table.evict_idle(1.0), 2u);
  // The per-IP index must shrink with the table: only the refreshed flow
  // remains visible through every lookup path.
  EXPECT_EQ(table.flows_for_ip(1).size(), 1u);
  EXPECT_TRUE(table.flows_for_ip(2).empty());
  EXPECT_EQ(table.flows_for_ip(3).size(), 1u);
  EXPECT_EQ(table.bytes_between(1, 3), 80u);
  const auto peers = table.peer_rates_Bps(1, 20.0);
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0].first, 3u);
}

TEST(FlowTable, EvictIdleUpdateAfterEvictionStartsFresh) {
  FlowTable table;
  table.update(key(1, 2), 1000, 1, 0.0);
  table.update(key(1, 2), 1000, 1, 10.0);
  table.evict_idle(20.0);  // everything idle
  EXPECT_TRUE(table.empty());
  // Re-adding the same 5-tuple starts a new record (fresh first_seen).
  table.update(key(1, 2), 500, 1, 30.0);
  const auto* rec = table.lookup(key(1, 2));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->bytes, 500u);
  EXPECT_DOUBLE_EQ(rec->first_seen_s, 30.0);
}

TEST(FlowTable, EvictIdleScalesOverHubIps) {
  // A hub IP shared by many flows (the Fig. 5a Type-2 shape): evicting the
  // stale half must leave the hub's index exact.
  FlowTable table;
  const std::uint32_t hub = 1u << 30;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    table.update(key(i, hub), 10, 1, i < 500 ? 0.0 : 50.0);
  }
  EXPECT_EQ(table.evict_idle(25.0), 500u);
  EXPECT_EQ(table.size(), 500u);
  EXPECT_EQ(table.flows_for_ip(hub).size(), 500u);
  EXPECT_TRUE(table.flows_for_ip(7).empty());      // evicted spoke
  EXPECT_EQ(table.flows_for_ip(700).size(), 1u);   // surviving spoke
}

TEST(FlowTable, Type1AndType2Populations) {
  // Fig. 5a's two stress populations, scaled down: Type 1 all-unique source
  // IPs; Type 2 groups of 100 flows sharing a source IP.
  FlowTable type1, type2;
  const std::uint32_t n = 10'000;
  for (std::uint32_t i = 0; i < n; ++i) {
    type1.update(key(i, 1u << 30), 10, 1, 0.0);
    type2.update(key(i / 100, 1u << 30, static_cast<std::uint16_t>(i % 100),
                     static_cast<std::uint16_t>(i / 100 % 65535)),
                 10, 1, 0.0);
  }
  EXPECT_EQ(type1.size(), n);
  EXPECT_EQ(type2.size(), n);
  EXPECT_EQ(type1.flows_for_ip(42).size(), 1u);
  EXPECT_EQ(type2.flows_for_ip(42).size(), 100u);
}

// ------------------------------------------------------------ MigrationModel

TEST(MigrationModel, DowntimeBelowTotalTime) {
  PreCopyMigrationModel model;
  Rng rng(1);
  for (double bg : {0.0, 0.3, 0.7, 1.0}) {
    const MigrationOutcome out = model.simulate(rng, bg);
    EXPECT_LT(out.downtime_ms / 1e3, out.total_time_s);
    EXPECT_GE(out.precopy_rounds, 1);
  }
}

TEST(MigrationModel, MigratedBytesAtLeastWorkingSetBelowRamPlusRecopies) {
  PreCopyMigrationModel model;
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const MigrationOutcome out = model.simulate(rng, 0.0);
    EXPECT_GT(out.migrated_mb, 50.0);
    // Testbed observation: transfers stay below 150 MB for 196 MB guests.
    EXPECT_LT(out.migrated_mb, 160.0);
  }
}

TEST(MigrationModel, MeanMigratedBytesNearPaper) {
  // Fig. 5b: mean 127 MB, stddev 11 MB.
  PreCopyMigrationModel model;
  Rng rng(3);
  score::util::RunningStats stats;
  for (int i = 0; i < 2000; ++i) stats.add(model.simulate(rng, 0.0).migrated_mb);
  EXPECT_NEAR(stats.mean(), 127.0, 8.0);
  EXPECT_NEAR(stats.stddev(), 11.0, 5.0);
}

TEST(MigrationModel, TotalTimeMonotoneInBackgroundLoad) {
  PreCopyMigrationModel model;
  double prev = 0.0;
  for (double bg : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    Rng rng(4);  // same randomness: isolate the load effect
    const double t = model.simulate(rng, bg).total_time_s;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(MigrationModel, TimesMatchPaperEndpoints) {
  // Fig. 5c: ≈2.94 s at idle, ≈9.34 s at full background load.
  PreCopyMigrationModel model;
  score::util::RunningStats idle, full;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    idle.add(model.simulate(rng, 0.0).total_time_s);
    full.add(model.simulate(rng, 1.0).total_time_s);
  }
  EXPECT_NEAR(idle.mean(), 2.94, 0.6);
  EXPECT_NEAR(full.mean(), 9.34, 2.0);
}

TEST(MigrationModel, DowntimeStaysBelow50ms) {
  // Fig. 5d: downtime stays well below 50 ms even at ~100% link load.
  PreCopyMigrationModel model;
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LT(model.simulate(rng, 1.0).downtime_ms, 50.0);
  }
}

TEST(MigrationModel, DowntimeMonotoneInBackgroundLoad) {
  PreCopyMigrationModel model;
  double prev = 0.0;
  for (double bg : {0.0, 0.5, 1.0}) {
    Rng rng(7);
    const double d = model.simulate(rng, bg).downtime_ms;
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(MigrationModel, BandwidthDegradesWithLoad) {
  PreCopyMigrationModel model;
  EXPECT_GT(model.effective_bandwidth_MBps(0.0),
            model.effective_bandwidth_MBps(0.5));
  EXPECT_GT(model.effective_bandwidth_MBps(0.5),
            model.effective_bandwidth_MBps(1.0));
  // Loads outside [0,1] are clamped.
  EXPECT_DOUBLE_EQ(model.effective_bandwidth_MBps(-1.0),
                   model.effective_bandwidth_MBps(0.0));
  EXPECT_DOUBLE_EQ(model.effective_bandwidth_MBps(2.0),
                   model.effective_bandwidth_MBps(1.0));
}

TEST(MigrationModel, RejectsBadConfig) {
  MigrationModelConfig cfg;
  cfg.vm_ram_mb = 0.0;
  EXPECT_THROW(PreCopyMigrationModel{cfg}, std::invalid_argument);
  cfg = MigrationModelConfig{};
  cfg.max_rounds = 0;
  EXPECT_THROW(PreCopyMigrationModel{cfg}, std::invalid_argument);
}

TEST(MigrationModel, RoundsCappedByConfig) {
  MigrationModelConfig cfg;
  cfg.dirty_rate_min_mbps = 1000.0;  // dirtier than the link can drain
  cfg.dirty_rate_max_mbps = 1001.0;
  cfg.max_rounds = 5;
  PreCopyMigrationModel model(cfg);
  Rng rng(8);
  const MigrationOutcome out = model.simulate(rng, 0.0);
  EXPECT_EQ(out.precopy_rounds, 5);
}

}  // namespace
