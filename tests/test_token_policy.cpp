// Token-policy tests: Round-Robin ordering (paper §V-A.1), the HLF gossip and
// scheduling rules (Algorithm 1), and the extension policies' iteration
// invariants (every VM visited once per iteration).
#include <gtest/gtest.h>

#include <set>

#include "core/token_policy.hpp"
#include "helpers.hpp"

namespace {

using score::core::Allocation;
using score::core::CostModel;
using score::core::HighestLevelFirstPolicy;
using score::core::HighestTrafficFirstPolicy;
using score::core::LinkWeights;
using score::core::make_policy;
using score::core::RandomPolicy;
using score::core::RoundRobinPolicy;
using score::core::ServerCapacity;
using score::core::ServerId;
using score::core::TokenPolicy;
using score::core::VmId;
using score::core::VmSpec;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::traffic::TrafficMatrix;

TEST(RoundRobin, StartsAtLowestIdAndWraps) {
  RoundRobinPolicy rr;
  EXPECT_EQ(rr.start(4), 0u);
  EXPECT_EQ(rr.next(0), 1u);
  EXPECT_EQ(rr.next(1), 2u);
  EXPECT_EQ(rr.next(2), 3u);
  EXPECT_EQ(rr.next(3), 0u);  // wrap
}

TEST(RoundRobin, VisitsEveryVmOncePerIteration) {
  RoundRobinPolicy rr;
  VmId holder = rr.start(10);
  std::set<VmId> seen{holder};
  for (int i = 1; i < 10; ++i) {
    holder = rr.next(holder);
    seen.insert(holder);
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(rr.next(holder), 0u);
}

TEST(RoundRobin, RejectsEmptyFleet) {
  RoundRobinPolicy rr;
  EXPECT_THROW(rr.start(0), std::invalid_argument);
}

class HlfTest : public ::testing::Test {
 protected:
  HlfTest()
      : topo_(tiny_tree_config()),
        model_(topo_, LinkWeights::exponential(3)),
        alloc_(topo_.num_hosts(), ServerCapacity{}),
        tm_(4, {{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}}) {
    // VM 0 on host 0; VM 1 on host 1 (level 1); VM 2 on host 4 (level 2);
    // VM 3 on the last host (level 3 from host 0).
    alloc_.add_vm(VmSpec{}, 0);
    alloc_.add_vm(VmSpec{}, 1);
    alloc_.add_vm(VmSpec{}, 4);
    alloc_.add_vm(VmSpec{}, static_cast<ServerId>(topo_.num_hosts() - 1));
  }

  CanonicalTree topo_;
  CostModel model_;
  Allocation alloc_;
  TrafficMatrix tm_;
};

TEST_F(HlfTest, LevelsInitializedToZero) {
  HighestLevelFirstPolicy hlf;
  hlf.start(4);
  for (VmId v = 0; v < 4; ++v) EXPECT_EQ(hlf.token_level(v), 0);
}

TEST_F(HlfTest, ObserveSetsOwnLevelExactly) {
  HighestLevelFirstPolicy hlf;
  hlf.start(4);
  hlf.observe(model_, alloc_, tm_, 0);
  EXPECT_EQ(hlf.token_level(0), 3);  // max over neighbours 1,2,3
}

TEST_F(HlfTest, ObserveRaisesNeighborEntries) {
  HighestLevelFirstPolicy hlf;
  hlf.start(4);
  hlf.observe(model_, alloc_, tm_, 0);
  EXPECT_EQ(hlf.token_level(1), 1);
  EXPECT_EQ(hlf.token_level(2), 2);
  EXPECT_EQ(hlf.token_level(3), 3);
}

TEST_F(HlfTest, ObserveNeverLowersNeighborEntries) {
  HighestLevelFirstPolicy hlf;
  hlf.start(4);
  hlf.observe(model_, alloc_, tm_, 0);
  ASSERT_EQ(hlf.token_level(3), 3);
  // Colocate VM 3 with VM 0 — the *neighbour* entry must not drop when
  // observed from VM 0 (only VM 3's own observation rewrites it).
  alloc_.migrate(3, 0);
  hlf.observe(model_, alloc_, tm_, 0);
  EXPECT_EQ(hlf.token_level(3), 3);
  // But VM 3's own hold rewrites it exactly.
  hlf.observe(model_, alloc_, tm_, 3);
  EXPECT_EQ(hlf.token_level(3), 0);
}

TEST_F(HlfTest, NextPrefersHolderLevelThenDescends) {
  HighestLevelFirstPolicy hlf;
  hlf.start(4);
  hlf.observe(model_, alloc_, tm_, 0);
  // Holder 0 has level 3; the next VM at level 3 (cyclically after 0) is 3.
  EXPECT_EQ(hlf.next(0), 3u);
  // From holder 3 (level 3): 0 is checked, so the token descends to the
  // unchecked level-2 VM.
  EXPECT_EQ(hlf.next(3), 2u);
}

TEST_F(HlfTest, DescendsWhenLevelEmpty) {
  HighestLevelFirstPolicy hlf;
  hlf.start(4);
  hlf.observe(model_, alloc_, tm_, 1);  // holder 1: own level 1; raises l_0 to 1
  // Holder 1 at level 1 -> next at level 1 cyclically after 1 is VM 0.
  EXPECT_EQ(hlf.next(1), 0u);
}

TEST_F(HlfTest, NeverReturnsHolderWhenOthersExist) {
  HighestLevelFirstPolicy hlf;
  hlf.start(4);
  for (VmId u = 0; u < 4; ++u) {
    hlf.observe(model_, alloc_, tm_, u);
    EXPECT_NE(hlf.next(u), u);
  }
}

TEST_F(HlfTest, SingleVmFleet) {
  HighestLevelFirstPolicy hlf;
  EXPECT_EQ(hlf.start(1), 0u);
  EXPECT_EQ(hlf.next(0), 0u);
}

TEST_F(HlfTest, HigherLevelVmsVisitedBeforeLowerOnes) {
  // Gossip in all VMs' info, then check the policy never jumps to a
  // lower-level VM while an unvisited higher-level one remains.
  HighestLevelFirstPolicy hlf;
  VmId holder = hlf.start(4);
  for (VmId u = 0; u < 4; ++u) hlf.observe(model_, alloc_, tm_, u);
  // levels now: l0=3, l1=1, l2=2, l3=3.
  std::vector<VmId> visit_order;
  std::set<VmId> seen{holder};
  for (int i = 0; i < 3; ++i) {
    holder = hlf.next(holder);
    if (seen.count(holder)) break;
    seen.insert(holder);
    visit_order.push_back(holder);
  }
  ASSERT_GE(visit_order.size(), 2u);
  // First hop from 0 must be the other level-3 VM (id 3), then level-2 (id 2).
  EXPECT_EQ(visit_order[0], 3u);
  EXPECT_EQ(visit_order[1], 2u);
}

TEST(RandomPolicy, PermutationPerIteration) {
  RandomPolicy rp(123);
  VmId holder = rp.start(8);
  std::set<VmId> seen{holder};
  for (int i = 1; i < 8; ++i) {
    holder = rp.next(holder);
    seen.insert(holder);
  }
  EXPECT_EQ(seen.size(), 8u);  // every VM exactly once per iteration
}

TEST(RandomPolicy, DeterministicForSeed) {
  RandomPolicy a(5), b(5);
  VmId ha = a.start(16), hb = b.start(16);
  EXPECT_EQ(ha, hb);
  for (int i = 0; i < 40; ++i) {
    ha = a.next(ha);
    hb = b.next(hb);
    EXPECT_EQ(ha, hb);
  }
}

TEST(HighestTrafficFirst, OrdersByObservedVolume) {
  CanonicalTree topo(tiny_tree_config());
  CostModel model(topo, LinkWeights::exponential(3));
  Allocation alloc(topo.num_hosts(), ServerCapacity{});
  for (int i = 0; i < 3; ++i) alloc.add_vm(VmSpec{}, static_cast<ServerId>(i));
  TrafficMatrix tm(3, {{0, 1, 1.0}, {1, 2, 10.0}});

  HighestTrafficFirstPolicy htf;
  VmId holder = htf.start(3);
  std::set<VmId> seen{holder};
  // Complete iteration 1 while gossiping volumes.
  for (int i = 1; i < 3; ++i) {
    htf.observe(model, alloc, tm, holder);
    holder = htf.next(holder);
    seen.insert(holder);
  }
  htf.observe(model, alloc, tm, holder);
  EXPECT_EQ(seen.size(), 3u);
  // Iteration 2 starts with the heaviest VM: VM 1 (volume 11).
  holder = htf.next(holder);
  EXPECT_EQ(holder, 1u);
}

TEST(PolicyFactory, KnownNamesAndAliases) {
  EXPECT_EQ(make_policy("rr")->name(), "round-robin");
  EXPECT_EQ(make_policy("round-robin")->name(), "round-robin");
  EXPECT_EQ(make_policy("hlf")->name(), "highest-level-first");
  EXPECT_EQ(make_policy("random")->name(), "random");
  EXPECT_EQ(make_policy("htf")->name(), "highest-traffic-first");
  EXPECT_THROW(make_policy("bogus"), std::invalid_argument);
}

}  // namespace
