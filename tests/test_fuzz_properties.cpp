// Randomized property tests against reference oracles:
//  * the flow table vs. a simple std::map model under random CRUD traffic,
//  * CachedCostModel vs. brute-force Eq. (2) under random migration
//    sequences interleaved with out-of-band allocation/TM mutations,
//  * paper-scale topology construction invariants (2560-host canonical tree,
//    k = 16 fat-tree) — cheap to build, worth pinning down.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "core/allocation.hpp"
#include "core/cached_cost_model.hpp"
#include "helpers.hpp"
#include "hypervisor/flow_table.hpp"
#include "topology/canonical_tree.hpp"
#include "topology/fat_tree.hpp"
#include "util/rng.hpp"

namespace {

using score::hypervisor::FlowKey;
using score::hypervisor::FlowTable;
using score::util::Rng;

struct KeyLess {
  bool operator()(const FlowKey& a, const FlowKey& b) const {
    return std::tie(a.src_ip, a.dst_ip, a.src_port, a.dst_port, a.proto) <
           std::tie(b.src_ip, b.dst_ip, b.src_port, b.dst_port, b.proto);
  }
};

class FlowTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableFuzz, MatchesMapOracleUnderRandomOps) {
  Rng rng(GetParam());
  FlowTable table;
  std::map<FlowKey, std::uint64_t, KeyLess> oracle;  // key -> bytes

  auto random_key = [&rng]() {
    FlowKey k;
    k.src_ip = static_cast<std::uint32_t>(rng.index(12));  // small space: collisions
    k.dst_ip = static_cast<std::uint32_t>(100 + rng.index(12));
    k.src_port = static_cast<std::uint16_t>(rng.index(4));
    k.dst_port = static_cast<std::uint16_t>(rng.index(4));
    return k;
  };

  double now = 0.0;
  for (int op = 0; op < 4000; ++op) {
    now += 0.001;
    const int action = static_cast<int>(rng.index(10));
    const FlowKey key = random_key();
    if (action < 5) {  // update
      const auto bytes = static_cast<std::uint64_t>(rng.index(10'000));
      table.update(key, bytes, 1, now);
      oracle[key] += bytes;
    } else if (action < 7) {  // remove
      const bool existed = oracle.erase(key) > 0;
      EXPECT_EQ(table.remove(key), existed);
    } else if (action < 9) {  // lookup
      const auto* rec = table.lookup(key);
      const auto it = oracle.find(key);
      if (it == oracle.end()) {
        EXPECT_EQ(rec, nullptr);
      } else {
        ASSERT_NE(rec, nullptr);
        EXPECT_EQ(rec->bytes, it->second);
      }
    } else {  // flows_for_ip vs oracle scan
      const auto ip = key.src_ip;
      std::set<FlowKey, KeyLess> expected;
      for (const auto& [k, bytes] : oracle) {
        (void)bytes;
        if (k.src_ip == ip || k.dst_ip == ip) expected.insert(k);
      }
      const auto got_vec = table.flows_for_ip(ip);
      std::set<FlowKey, KeyLess> got(got_vec.begin(), got_vec.end());
      EXPECT_EQ(got, expected);
    }
  }
  EXPECT_EQ(table.size(), oracle.size());

  // Final: bytes_between must match a full oracle scan for a few pairs.
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = 100; b < 104; ++b) {
      std::uint64_t expected = 0;
      for (const auto& [k, bytes] : oracle) {
        if ((k.src_ip == a && k.dst_ip == b) || (k.src_ip == b && k.dst_ip == a)) {
          expected += bytes;
        }
      }
      EXPECT_EQ(table.bytes_between(a, b), expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableFuzz,
                         ::testing::Values(101, 202, 303, 404));

// ------------------------------------------------------- cached cost model

// Property: across a long randomized migration sequence, the incrementally
// maintained CachedCostModel total always equals brute-force
// CostModel::total_cost — including when migrations bypass apply_migration
// (direct Allocation::migrate), the TM drifts through apply or is replaced
// by a rescaled copy; the cache folds the drift and absorbs the rest via
// version-triggered rebuilds. Runs on both topologies.
class CachedCostFuzz
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(CachedCostFuzz, TotalAlwaysMatchesBruteForce) {
  const auto [topo_kind, seed] = GetParam();
  std::unique_ptr<score::topo::Topology> topo;
  if (topo_kind == 0) {
    topo = std::make_unique<score::topo::CanonicalTree>(
        score::testing::tiny_tree_config());
  } else {
    topo = std::make_unique<score::topo::FatTree>(
        score::topo::FatTreeConfig{.k = 4});
  }
  score::core::CostModel brute(*topo, score::core::LinkWeights::exponential(3));
  score::core::CachedCostModel cached(*topo,
                                      score::core::LinkWeights::exponential(3));

  Rng rng(seed);
  const std::size_t n = 32;
  auto tm = score::testing::random_tm(n, 3.0, rng);
  auto alloc = score::testing::random_allocation(*topo, n, rng);
  cached.bind(alloc, tm);

  for (int op = 0; op < 600; ++op) {
    const auto u = static_cast<score::core::VmId>(rng.index(n));
    const auto target =
        static_cast<score::core::ServerId>(rng.index(topo->num_hosts()));
    const int action = static_cast<int>(rng.index(10));
    if (action < 6) {  // the hot path: committed via the cache
      if (target == alloc.server_of(u) || alloc.can_host(target, alloc.spec(u))) {
        cached.apply_migration(alloc, tm, u, target);
      }
    } else if (action < 8) {  // out-of-band allocation mutation
      if (alloc.can_host(target, alloc.spec(u))) alloc.migrate(u, target);
    } else if (action < 9) {  // traffic drift
      const auto v = static_cast<score::traffic::VmId>(rng.index(n));
      if (v != u) {
        tm.apply({u, v, rng.uniform(0.0, 50.0) - tm.rate(u, v)});
      }
    } else {  // whole-matrix rescale: a bulk update
      tm = tm.scaled(rng.uniform(0.5, 1.5));
    }
    const double expect = brute.total_cost(alloc, tm);
    EXPECT_NEAR(cached.total_cost(alloc, tm), expect,
                1e-7 * (1.0 + std::abs(expect)))
        << "op=" << op;
  }
  // The sequence must have exercised both the incremental path and rebuilds.
  EXPECT_GT(cached.incremental_updates(), 0u);
  EXPECT_GT(cached.rebuilds(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndSeeds, CachedCostFuzz,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(7u, 77u)));

// ------------------------------------------------------------ paper scale

TEST(PaperScale, CanonicalTree2560Hosts) {
  score::topo::CanonicalTree topo(score::topo::CanonicalTreeConfig::paper_scale());
  ASSERT_EQ(topo.num_hosts(), 2560u);
  // Every host routable to a far host with a valid 6-hop path.
  const auto path = topo.route(0, 2559, 99);
  EXPECT_EQ(path.size(), 6u);
  EXPECT_EQ(topo.comm_level(0, 2559), 3);
  // Link inventory: 2560 + 128 + 16*8.
  EXPECT_EQ(topo.links().size(), 2560u + 128u + 16u * 8u);
}

TEST(PaperScale, FatTreeK16) {
  score::topo::FatTree topo(score::topo::FatTreeConfig::paper_scale());
  ASSERT_EQ(topo.num_hosts(), 1024u);
  EXPECT_EQ(topo.num_cores(), 64u);
  // ECMP can reach all 64 cores for an inter-pod pair.
  std::set<std::vector<score::topo::LinkId>> paths;
  for (std::uint64_t h = 0; h < 512; ++h) paths.insert(topo.route(0, 1023, h));
  EXPECT_EQ(paths.size(), 64u);
}

TEST(PaperScale, SixteenVmSlotsPerHostFitFleet) {
  // Paper §VI: each host accommodates up to 16 VMs -> 40960 VM slots.
  score::topo::CanonicalTree topo(score::topo::CanonicalTreeConfig::paper_scale());
  score::core::ServerCapacity cap;  // defaults: 16 slots
  score::core::Allocation alloc(topo.num_hosts(), cap);
  EXPECT_EQ(cap.vm_slots * topo.num_hosts(), 40960u);
  // Spot-check adding a full host's worth.
  for (int i = 0; i < 16; ++i) alloc.add_vm(score::core::VmSpec{}, 0);
  EXPECT_FALSE(alloc.can_host(0, score::core::VmSpec{}));
}

}  // namespace
