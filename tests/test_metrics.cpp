// Metrics-module tests: rack(ToR)-level matrices (Fig. 3a data), their
// summary statistics, and the harness-wide link-load builder.
#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "helpers.hpp"

namespace {

using score::core::Allocation;
using score::core::link_loads_for;
using score::core::ServerCapacity;
using score::core::ServerId;
using score::core::tor_level_matrix;
using score::core::tor_matrix_fill;
using score::core::tor_matrix_peak;
using score::core::VmSpec;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::traffic::TrafficMatrix;

class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest() : topo_(tiny_tree_config()), alloc_(topo_.num_hosts(), ServerCapacity{}) {}

  CanonicalTree topo_;  // 8 racks x 4 hosts
  Allocation alloc_;
};

TEST_F(MetricsTest, TorMatrixAggregatesByRack) {
  alloc_.add_vm(VmSpec{}, 0);   // rack 0
  alloc_.add_vm(VmSpec{}, 5);   // rack 1
  alloc_.add_vm(VmSpec{}, 6);   // rack 1
  TrafficMatrix tm(3, {{0, 1, 10.0}, {0, 2, 5.0}});
  const auto m = tor_level_matrix(topo_, alloc_, tm);
  ASSERT_EQ(m.size(), 8u);
  EXPECT_DOUBLE_EQ(m[0][1], 15.0);  // both pairs aggregate into (rack0, rack1)
  EXPECT_DOUBLE_EQ(m[1][0], 15.0);  // symmetric
  EXPECT_DOUBLE_EQ(m[0][2], 0.0);
}

TEST_F(MetricsTest, IntraRackTrafficExcluded) {
  alloc_.add_vm(VmSpec{}, 0);
  alloc_.add_vm(VmSpec{}, 1);  // same rack
  TrafficMatrix tm(2, {{0, 1, 100.0}});
  const auto m = tor_level_matrix(topo_, alloc_, tm);
  EXPECT_DOUBLE_EQ(tor_matrix_peak(m), 0.0);
  EXPECT_DOUBLE_EQ(tor_matrix_fill(m), 0.0);
}

TEST_F(MetricsTest, PeakAndFill) {
  alloc_.add_vm(VmSpec{}, 0);    // rack 0
  alloc_.add_vm(VmSpec{}, 4);    // rack 1
  alloc_.add_vm(VmSpec{}, 8);    // rack 2
  TrafficMatrix tm(3, {{0, 1, 4.0}, {1, 2, 12.0}});
  const auto m = tor_level_matrix(topo_, alloc_, tm);
  EXPECT_DOUBLE_EQ(tor_matrix_peak(m), 12.0);
  // 2 non-zero unordered rack pairs out of 8*7/2 = 28 -> counted directed/total.
  EXPECT_NEAR(tor_matrix_fill(m), 2.0 / 28.0, 1e-12);
}

TEST_F(MetricsTest, LinkLoadsMatchManualAccumulation) {
  alloc_.add_vm(VmSpec{}, 0);
  alloc_.add_vm(VmSpec{}, 1);
  TrafficMatrix tm(2, {{0, 1, 3e8}});
  const auto loads = link_loads_for(topo_, alloc_, tm);
  EXPECT_DOUBLE_EQ(loads.load_bps(topo_.host_uplink(0)), 3e8);
  EXPECT_DOUBLE_EQ(loads.load_bps(topo_.host_uplink(1)), 3e8);
  EXPECT_DOUBLE_EQ(loads.max_utilization(2), 0.0);  // rack-local only
}

TEST_F(MetricsTest, LinkLoadsUseConsistentEcmpHash) {
  // Same allocation + TM -> identical loads on repeated computation (the
  // per-pair hash pins ECMP paths deterministically).
  alloc_.add_vm(VmSpec{}, 0);
  alloc_.add_vm(VmSpec{}, 31);
  TrafficMatrix tm(2, {{0, 1, 1e9}});
  const auto a = link_loads_for(topo_, alloc_, tm);
  const auto b = link_loads_for(topo_, alloc_, tm);
  for (const auto& link : topo_.links()) {
    EXPECT_DOUBLE_EQ(a.load_bps(link.id), b.load_bps(link.id));
  }
}

TEST_F(MetricsTest, EmptyTrafficYieldsZeroEverything) {
  alloc_.add_vm(VmSpec{}, 0);
  TrafficMatrix tm(1);
  const auto m = tor_level_matrix(topo_, alloc_, tm);
  EXPECT_DOUBLE_EQ(tor_matrix_peak(m), 0.0);
  const auto loads = link_loads_for(topo_, alloc_, tm);
  EXPECT_DOUBLE_EQ(loads.max_utilization(), 0.0);
}

}  // namespace
