// Distributed control-plane tests: IP address management (rack subnets,
// §IV/§V-B.4), the message fabric, and the full dom0-agent runtime —
// including the key property that the message-passing protocol reaches the
// same quality of allocation as the centralized evaluation loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "driver/simulation.hpp"
#include "core/token_policy.hpp"
#include "helpers.hpp"
#include "hypervisor/agent.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "hypervisor/ipam.hpp"
#include "hypervisor/token_codec.hpp"
#include "hypervisor/wire.hpp"
#include "sim/network.hpp"

namespace {

using score::core::Allocation;
using score::core::CostModel;
using score::core::LinkWeights;
using score::core::MigrationEngine;
using score::core::RoundRobinPolicy;
using score::driver::ScoreSimulation;
using score::driver::SimConfig;
using score::core::VmId;
using score::hypervisor::CtrlMsg;
using score::hypervisor::Dom0Agent;
using score::hypervisor::DistributedScoreRuntime;
using score::hypervisor::format_ipv4;
using score::hypervisor::Ipam;
using score::hypervisor::RuntimeConfig;
using score::hypervisor::wire::get_u32;
using score::hypervisor::wire::put_u32;
using score::sim::EventQueue;
using score::sim::Message;
using score::sim::Network;
using score::testing::random_allocation;
using score::testing::random_tm;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::util::Rng;

// -------------------------------------------------------------------- Ipam

TEST(Ipam, RackSubnetAddressing) {
  CanonicalTree topo(tiny_tree_config());  // 8 racks x 4 hosts
  Ipam ipam(topo);
  // Host 0: rack 0, first host -> 10.0.0.1.
  EXPECT_EQ(format_ipv4(ipam.host_address(0)), "10.0.0.1");
  // Host 5: rack 1, second host -> 10.0.1.2.
  EXPECT_EQ(format_ipv4(ipam.host_address(5)), "10.0.1.2");
  // Last host: rack 7, fourth host -> 10.0.7.4.
  EXPECT_EQ(format_ipv4(ipam.host_address(31)), "10.0.7.4");
}

TEST(Ipam, AddressRoundTrip) {
  CanonicalTree topo(tiny_tree_config());
  Ipam ipam(topo);
  for (score::topo::HostId h = 0; h < topo.num_hosts(); ++h) {
    EXPECT_EQ(ipam.host_of_address(ipam.host_address(h)), h);
  }
}

TEST(Ipam, RejectsForeignAddresses) {
  CanonicalTree topo(tiny_tree_config());
  Ipam ipam(topo);
  EXPECT_THROW(ipam.host_of_address(0xC0A80001), std::out_of_range);  // 192.168
  EXPECT_THROW(ipam.host_of_address((10u << 24) | 0xFF01), std::out_of_range);
}

TEST(Ipam, VmDirectory) {
  CanonicalTree topo(tiny_tree_config());
  Ipam ipam(topo);
  const auto vm0 = ipam.allocate_vm(3);
  const auto vm1 = ipam.allocate_vm(7);
  EXPECT_EQ(vm0, Ipam::kVmBase);
  EXPECT_EQ(vm1, Ipam::kVmBase + 1);  // sequential, totally ordered ids
  EXPECT_EQ(ipam.vm_host(vm0), 3u);
  ipam.move_vm(vm0, 9);
  EXPECT_EQ(ipam.vm_host(vm0), 9u);
  EXPECT_THROW(ipam.vm_host(Ipam::kVmBase + 99), std::out_of_range);
  EXPECT_THROW(ipam.move_vm(vm1, 1000), std::out_of_range);
}

TEST(Ipam, FormatIpv4) {
  EXPECT_EQ(format_ipv4(0x0A000001), "10.0.0.1");
  EXPECT_EQ(format_ipv4(0xFFFFFFFF), "255.255.255.255");
  EXPECT_EQ(format_ipv4(0), "0.0.0.0");
}

// ----------------------------------------------------------------- Network

TEST(Network, DeliversToHandlerWithLatency) {
  CanonicalTree topo(tiny_tree_config());
  EventQueue queue;
  Network net(queue, topo);
  double delivered_at = -1.0;
  int got_type = 0;
  net.attach(31, [&](const Message& m) {
    delivered_at = queue.now();
    got_type = m.type;
  });
  net.send(Message{0, 31, 7, {1, 2, 3}});
  queue.run();
  // Hosts 0 and 31 are cross-core: 6 hops.
  EXPECT_DOUBLE_EQ(delivered_at, 6 * score::sim::kPerHopLatencyS);
  EXPECT_EQ(got_type, 7);
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.bytes_sent(), 3u);
}

TEST(Network, LoopbackLatencyForSameHost) {
  CanonicalTree topo(tiny_tree_config());
  EventQueue queue;
  Network net(queue, topo);
  double delivered_at = -1.0;
  net.attach(4, [&](const Message&) { delivered_at = queue.now(); });
  net.send(Message{4, 4, 1, {}});
  queue.run();
  EXPECT_DOUBLE_EQ(delivered_at, score::sim::kLoopbackLatencyS);
}

TEST(Network, DropsWithoutHandler) {
  CanonicalTree topo(tiny_tree_config());
  EventQueue queue;
  Network net(queue, topo);
  net.send(Message{0, 1, 1, {}});
  queue.run();
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(Network, FifoBetweenSamePair) {
  CanonicalTree topo(tiny_tree_config());
  EventQueue queue;
  Network net(queue, topo);
  std::vector<int> order;
  net.attach(1, [&](const Message& m) { order.push_back(m.type); });
  for (int i = 0; i < 5; ++i) net.send(Message{0, 1, i, {}});
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// In-flight messages wait in a slot pool. A handler that sends grows the pool
// while a delivery is under way, and a handler that takes the payload empties
// the message it was handed; every message must still arrive exactly once,
// in (time, send order), with its own bytes.
TEST(Network, PooledSlotsDeliverEachMessageOnceInOrder) {
  CanonicalTree topo(tiny_tree_config());
  EventQueue queue;
  Network net(queue, topo);
  const auto bytes_of = [](int id) {
    return std::vector<std::uint8_t>(static_cast<std::size_t>(id % 5 + 1),
                                     static_cast<std::uint8_t>(id));
  };
  struct Sent {
    int id;
    double due;  ///< send time + path latency
    std::size_t bytes;
  };
  std::vector<Sent> sent;
  net.set_observer([&](const Message& m, bool lost) {
    EXPECT_FALSE(lost);
    const int hops = topo.hop_count(m.src, m.dst);
    const double latency = hops == 0 ? score::sim::kLoopbackLatencyS
                                     : score::sim::kPerHopLatencyS * hops;
    sent.push_back({m.type, queue.now() + latency, m.payload.size()});
  });
  struct Got {
    int id;
    double at;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Got> got;
  // Host 1 reads each message; each of the first ones makes it send three
  // more (one to itself, two to host 2) from inside the delivery.
  int next_id = 100;
  net.attach(1, [&](const Message& m) {
    got.push_back({m.type, queue.now(), m.payload});
    if (m.type >= 100) return;
    for (int k = 0; k < 3; ++k) {
      const int id = next_id++;
      net.send(Message{1, k == 0 ? 1u : 2u, id, bytes_of(id)});
    }
  });
  // Host 2 takes each payload.
  net.attach(2, [&](const Message& m) {
    got.push_back({m.type, queue.now(), std::move(m.payload)});
  });
  for (int id = 0; id < 6; ++id) {
    net.send(Message{0, id % 2 == 0 ? 1u : 2u, id, bytes_of(id)});
  }
  queue.run();

  ASSERT_EQ(sent.size(), 15u);
  ASSERT_EQ(got.size(), sent.size());
  std::vector<Sent> expected = sent;  // send order
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Sent& a, const Sent& b) { return a.due < b.due; });
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id) << "delivery " << i;
    EXPECT_EQ(got[i].at, expected[i].due) << "delivery " << i;
    EXPECT_EQ(got[i].payload, bytes_of(got[i].id)) << "delivery " << i;
    EXPECT_EQ(expected[i].bytes, bytes_of(expected[i].id).size());
  }
  EXPECT_EQ(net.messages_dropped(), 0u);
}

// ------------------------------------------------------ DistributedRuntime

class DistributedTest : public ::testing::Test {
 protected:
  DistributedTest()
      : topo_(tiny_tree_config()), model_(topo_, LinkWeights::exponential(3)) {}

  CanonicalTree topo_;
  CostModel model_;
};

TEST_F(DistributedTest, ReducesCostAndStaysConsistent) {
  Rng rng(31);
  auto tm = random_tm(40, 3.0, rng);
  auto alloc = random_allocation(topo_, 40, rng);
  DistributedScoreRuntime runtime(model_, alloc, tm);
  const auto res = runtime.run();
  EXPECT_LT(res.final_cost, res.initial_cost);
  EXPECT_GT(res.total_migrations, 0u);
  EXPECT_TRUE(alloc.check_consistency());
  EXPECT_NEAR(res.final_cost, model_.total_cost(alloc, tm), 1e-6 * res.final_cost);
}

TEST_F(DistributedTest, MatchesCentralizedEngineQuality) {
  // The message-passing protocol must land within a whisker of the
  // centralized loop driven by the same policy and candidate rules (small
  // differences can come from the agents' byte-counter rounding).
  Rng rng(32);
  auto tm = random_tm(48, 3.0, rng);
  auto alloc_central = random_allocation(topo_, 48, rng);
  auto alloc_dist = alloc_central;

  MigrationEngine engine(model_);
  RoundRobinPolicy rr;
  ScoreSimulation central(engine, rr, alloc_central, tm);
  SimConfig scfg;
  scfg.iterations = 5;
  const auto central_res = central.run(scfg);

  RuntimeConfig rcfg;
  rcfg.iterations = 5;
  DistributedScoreRuntime runtime(model_, alloc_dist, tm, rcfg);
  const auto dist_res = runtime.run();

  EXPECT_NEAR(dist_res.final_cost, central_res.final_cost,
              0.05 * central_res.final_cost + 1e-9);
}

TEST_F(DistributedTest, TokenMessagesCountHoldsPlusOne) {
  Rng rng(33);
  auto tm = random_tm(24, 2.0, rng);
  auto alloc = random_allocation(topo_, 24, rng);
  RuntimeConfig cfg;
  cfg.iterations = 3;
  cfg.stop_when_stable = false;
  DistributedScoreRuntime runtime(model_, alloc, tm, cfg);
  const auto res = runtime.run();
  ASSERT_EQ(res.iterations.size(), 3u);
  // One token message injects the run; each hold forwards exactly once,
  // except the final hold which ends the run.
  EXPECT_EQ(res.token_messages, 3u * 24u);
}

TEST_F(DistributedTest, LocationProbesPairPerNeighbor) {
  Rng rng(34);
  auto tm = random_tm(24, 2.0, rng);
  auto alloc = random_allocation(topo_, 24, rng);
  RuntimeConfig cfg;
  cfg.iterations = 1;
  cfg.stop_when_stable = false;
  DistributedScoreRuntime runtime(model_, alloc, tm, cfg);
  const auto res = runtime.run();
  std::size_t neighbor_links = 0;
  for (VmId u = 0; u < 24; ++u) neighbor_links += tm.neighbors(u).size();
  // One request + one response per (holder, peer) incidence.
  EXPECT_EQ(res.location_messages, 2 * neighbor_links);
}

TEST_F(DistributedTest, HlfPolicyRuns) {
  Rng rng(35);
  auto tm = random_tm(32, 3.0, rng);
  auto alloc = random_allocation(topo_, 32, rng);
  RuntimeConfig cfg;
  cfg.policy = "highest-level-first";
  DistributedScoreRuntime runtime(model_, alloc, tm, cfg);
  const auto res = runtime.run();
  EXPECT_LT(res.final_cost, res.initial_cost);
  EXPECT_TRUE(alloc.check_consistency());
}

TEST_F(DistributedTest, MigrationCostGateHonored) {
  Rng rng(36);
  auto tm = random_tm(24, 2.0, rng);
  auto alloc0 = random_allocation(topo_, 24, rng);
  auto alloc1 = alloc0;

  RuntimeConfig cheap;
  const auto res0 = DistributedScoreRuntime(model_, alloc0, tm, cheap).run();

  RuntimeConfig priced;
  priced.engine.migration_cost = 1e12;  // prohibitive
  const auto res1 = DistributedScoreRuntime(model_, alloc1, tm, priced).run();

  EXPECT_GT(res0.total_migrations, 0u);
  EXPECT_EQ(res1.total_migrations, 0u);
  EXPECT_DOUBLE_EQ(res1.final_cost, res1.initial_cost);
  // Theorem 1 cannot pass anywhere under the prohibitive c_m, so no holder
  // probes capacity; at c_m = 0 some do.
  EXPECT_GT(res0.capacity_messages, 0u);
  EXPECT_EQ(res1.capacity_messages, 0u);
  EXPECT_GT(res1.location_messages, 0u);
}

TEST_F(DistributedTest, StableStopEndsRunEarly) {
  Rng rng(37);
  auto tm = random_tm(16, 2.0, rng);
  auto alloc = random_allocation(topo_, 16, rng);
  RuntimeConfig cfg;
  cfg.iterations = 40;
  const auto res = DistributedScoreRuntime(model_, alloc, tm, cfg).run();
  EXPECT_LT(res.iterations.size(), 40u);
  EXPECT_EQ(res.iterations.back().migrations, 0u);
}

TEST_F(DistributedTest, ControlBytesScaleWithFleet) {
  Rng rng(38);
  auto tm_small = random_tm(8, 2.0, rng);
  auto tm_large = random_tm(32, 2.0, rng);
  auto alloc_small = random_allocation(topo_, 8, rng);
  auto alloc_large = random_allocation(topo_, 32, rng);
  RuntimeConfig cfg;
  cfg.iterations = 1;
  cfg.stop_when_stable = false;
  const auto small = DistributedScoreRuntime(model_, alloc_small, tm_small, cfg).run();
  const auto large = DistributedScoreRuntime(model_, alloc_large, tm_large, cfg).run();
  // Token size is O(|V|) and each VM holds once per iteration: bytes grow
  // super-linearly in |V| per iteration (paper §V-A notes the O(|V|) token).
  EXPECT_GT(large.control_bytes, small.control_bytes);
}

TEST_F(DistributedTest, RejectsBadConfig) {
  Rng rng(39);
  auto tm = random_tm(8, 2.0, rng);
  auto alloc = random_allocation(topo_, 8, rng);
  RuntimeConfig cfg;
  cfg.policy = "bogus";
  EXPECT_THROW(DistributedScoreRuntime(model_, alloc, tm, cfg),
               std::invalid_argument);
  score::traffic::TrafficMatrix wrong(9);
  EXPECT_THROW(DistributedScoreRuntime(model_, alloc, wrong), std::invalid_argument);

  // Each of these used to hang the run, silently disable it, or throw late
  // from the event queue.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Bad {
    const char* field;
    double RuntimeConfig::*member;
    std::vector<double> values;
  };
  const Bad bad[] = {
      {"message_loss_rate", &RuntimeConfig::message_loss_rate,
       {1.0, 1.5, -0.1, nan, inf}},
      {"retransmit_timeout_s", &RuntimeConfig::retransmit_timeout_s,
       {0.0, -1.0, nan, inf}},
      // A negative or NaN budget used to run with no budget at all.
      {"migration_budget_mb", &RuntimeConfig::migration_budget_mb,
       {-5.0, -1e-300, nan, inf}},
  };
  for (const Bad& b : bad) {
    for (const double v : b.values) {
      RuntimeConfig c;
      c.*b.member = v;
      try {
        DistributedScoreRuntime runtime(model_, alloc, tm, c);
        ADD_FAILURE() << b.field << " = " << v << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(b.field), std::string::npos)
            << e.what();
      }
    }
  }
  // A zero round budget ran one round here and none in the centralized
  // drivers.
  {
    RuntimeConfig c;
    c.iterations = 0;
    try {
      DistributedScoreRuntime runtime(model_, alloc, tm, c);
      ADD_FAILURE() << "iterations = 0 accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("iterations"), std::string::npos)
          << e.what();
    }
  }
  // A NaN churn time used to end the run at once with no round done, and
  // an infinite one never fired.
  for (const double t : {-1.0, nan, inf}) {
    RuntimeConfig c;
    c.churn.push_back({t, 1, true});
    try {
      DistributedScoreRuntime runtime(model_, alloc, tm, c);
      ADD_FAILURE() << "churn time " << t << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("churn"), std::string::npos)
          << e.what();
    }
  }
  // The edges of the legal ranges still run.
  RuntimeConfig edge;
  edge.iterations = 1;
  edge.message_loss_rate = 0.0;
  edge.migration_budget_mb = 0.0;
  edge.churn.push_back({0.0, 1, false});
  EXPECT_NO_THROW(DistributedScoreRuntime(model_, alloc, tm, edge).run());
}

// A NaN c_m disables every migration and a negative one commits moves that
// raise the cost; the engine settings are checked with the runtime's own.
TEST_F(DistributedTest, RejectsEngineConfigsThatBreakTheorem1) {
  Rng rng(41);
  auto tm = random_tm(8, 2.0, rng);
  auto alloc = random_allocation(topo_, 8, rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejected = [&](const RuntimeConfig& c, const std::string& field) {
    try {
      DistributedScoreRuntime runtime(model_, alloc, tm, c);
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  for (const double v : {nan, inf, -1.0, -inf}) {
    RuntimeConfig c;
    c.engine.migration_cost = v;
    rejected(c, "migration_cost");
  }
}

// The handshake proves that the scheduler and every daemon run the same
// world. Every setting that changes what a run does must therefore change
// the fingerprint, and the trace switch, which only records, must not.
TEST_F(DistributedTest, EverySettingMovesTheWorldFingerprint) {
  Rng rng(42);
  auto tm = random_tm(16, 2.0, rng);
  auto alloc = random_allocation(topo_, 16, rng);
  const RuntimeConfig base;
  const auto fingerprint = [&](const RuntimeConfig& c) {
    return score::hypervisor::world_fingerprint(model_, alloc, tm, c);
  };
  std::vector<std::pair<const char*, RuntimeConfig>> changed;
  const auto change = [&](const char* field, auto edit) {
    RuntimeConfig c = base;
    edit(c);
    changed.emplace_back(field, c);
  };
  change("policy", [](RuntimeConfig& c) { c.policy = "highest-level-first"; });
  change("engine.migration_cost",
         [](RuntimeConfig& c) { c.engine.migration_cost = 1.0; });
  change("iterations", [](RuntimeConfig& c) { ++c.iterations; });
  change("stop_when_stable",
         [](RuntimeConfig& c) { c.stop_when_stable = !c.stop_when_stable; });
  change("migration_budget_mb",
         [](RuntimeConfig& c) { c.migration_budget_mb = 64.0; });
  change("message_loss_rate",
         [](RuntimeConfig& c) { c.message_loss_rate = 0.05; });
  change("loss_seed", [](RuntimeConfig& c) { ++c.loss_seed; });
  change("retransmit_timeout_s",
         [](RuntimeConfig& c) { c.retransmit_timeout_s = 2.0; });
  change("churn", [](RuntimeConfig& c) { c.churn.push_back({0.5, 3, true}); });
  // Each field of a churn event counts too.
  change("churn time_s",
         [](RuntimeConfig& c) { c.churn.push_back({0.75, 3, true}); });
  change("churn host",
         [](RuntimeConfig& c) { c.churn.push_back({0.5, 4, true}); });
  change("churn leave",
         [](RuntimeConfig& c) { c.churn.push_back({0.5, 3, false}); });

  std::vector<std::uint64_t> seen = {fingerprint(base)};
  for (const auto& [field, config] : changed) {
    const std::uint64_t fp = fingerprint(config);
    EXPECT_EQ(std::count(seen.begin(), seen.end(), fp), 0)
        << field << " leaves the fingerprint of an earlier config";
    seen.push_back(fp);
  }

  RuntimeConfig traced = base;
  traced.record_trace = true;
  EXPECT_EQ(fingerprint(traced), fingerprint(base));
}

TEST_F(DistributedTest, SimulatedTimeAdvances) {
  Rng rng(40);
  auto tm = random_tm(16, 2.0, rng);
  auto alloc = random_allocation(topo_, 16, rng);
  const auto res = DistributedScoreRuntime(model_, alloc, tm).run();
  EXPECT_GT(res.duration_s, 0.0);
}

// ------------------------------------------------- token telemetry (frame)

TEST_F(DistributedTest, TokenCarriesEpochAndAggregateDelta) {
  Rng rng(41);
  auto tm = random_tm(40, 3.0, rng);
  auto alloc = random_allocation(topo_, 40, rng);
  const auto res = DistributedScoreRuntime(model_, alloc, tm).run();
  // Epoch = committed migrations; ring position = completed holds — both
  // carried on the wire, not observed globally.
  EXPECT_EQ(res.final_epoch, res.total_migrations);
  std::size_t holds = 0;
  for (const auto& it : res.iterations) {
    holds += it.holds;
    EXPECT_EQ(it.evaluations, it.holds);  // agents skip no hold
  }
  EXPECT_EQ(res.final_ring_pos, holds);
  // The token's aggregate Lemma-3 delta tracks the actually realised cost
  // reduction (small divergence from flow-table byte-counter rounding).
  EXPECT_NEAR(res.aggregate_delta, res.initial_cost - res.final_cost,
              0.05 * res.initial_cost);
}

TEST_F(DistributedTest, ReportSummarizesIntoSharedStruct) {
  Rng rng(42);
  auto tm = random_tm(24, 2.0, rng);
  auto alloc = random_allocation(topo_, 24, rng);
  const auto res = DistributedScoreRuntime(model_, alloc, tm).run();
  const score::driver::ConvergenceReport rep = res.report();
  EXPECT_EQ(rep.mode, "distributed");
  EXPECT_DOUBLE_EQ(rep.initial_cost, res.initial_cost);
  EXPECT_DOUBLE_EQ(rep.final_cost, res.final_cost);
  EXPECT_EQ(rep.rounds, res.iterations.size());
  EXPECT_EQ(rep.migrations, res.total_migrations);
  EXPECT_EQ(rep.token_messages, res.token_messages);
  EXPECT_EQ(rep.control_messages,
            res.token_messages + res.location_messages + res.capacity_messages);
  EXPECT_GT(rep.token_bytes, 0u);
  EXPECT_NEAR(rep.reduction(), res.reduction(), 1e-12);
}

// --------------------------------------------------------- determinism seam

TEST_F(DistributedTest, FixedSeedReproducesMessageTrace) {
  Rng rng(43);
  auto tm = random_tm(32, 3.0, rng);
  auto alloc_a = random_allocation(topo_, 32, rng);
  auto alloc_b = alloc_a;

  RuntimeConfig cfg;
  cfg.message_loss_rate = 0.05;
  cfg.retransmit_timeout_s = 2.0;
  cfg.record_trace = true;
  const auto a = DistributedScoreRuntime(model_, alloc_a, tm, cfg).run();
  const auto b = DistributedScoreRuntime(model_, alloc_b, tm, cfg).run();

  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_EQ(a.trace[i], b.trace[i]) << "trace diverges at message " << i;
  }
  EXPECT_DOUBLE_EQ(a.final_cost, b.final_cost);
}

TEST_F(DistributedTest, DifferentLossSeedChangesTrace) {
  Rng rng(44);
  auto tm = random_tm(32, 3.0, rng);
  auto alloc_a = random_allocation(topo_, 32, rng);
  auto alloc_b = alloc_a;

  RuntimeConfig cfg;
  cfg.message_loss_rate = 0.05;
  cfg.retransmit_timeout_s = 2.0;
  const auto a = DistributedScoreRuntime(model_, alloc_a, tm, cfg).run();
  cfg.loss_seed += 1;
  const auto b = DistributedScoreRuntime(model_, alloc_b, tm, cfg).run();
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST_F(DistributedTest, TraceOmittedUnlessRequested) {
  Rng rng(45);
  auto tm = random_tm(16, 2.0, rng);
  auto alloc = random_allocation(topo_, 16, rng);
  const auto res = DistributedScoreRuntime(model_, alloc, tm).run();
  EXPECT_TRUE(res.trace.empty());
  EXPECT_NE(res.trace_hash, 0u);  // the hash is always computed
}

// --------------------------------------------------- live-migration modeling

TEST_F(DistributedTest, MigrationsChargePreCopyTransferTime) {
  Rng rng(47);
  auto tm = random_tm(32, 3.0, rng);
  auto alloc = random_allocation(topo_, 32, rng);
  const auto res = DistributedScoreRuntime(model_, alloc, tm).run();
  ASSERT_GT(res.total_migrations, 0u);
  EXPECT_GT(res.migrated_mb, 0.0);
  EXPECT_GT(res.migration_time_s, 0.0);
  // Every committed migration moved at least the VM's working set once.
  EXPECT_GT(res.migrated_mb, 50.0 * static_cast<double>(res.total_migrations));
  // The token was busy for the transfers, so they bound sim time from below.
  EXPECT_GE(res.duration_s, res.migration_time_s);
}

TEST_F(DistributedTest, MigrationBudgetCapsTotalTransfer) {
  Rng rng(48);
  auto tm = random_tm(32, 3.0, rng);
  auto unlimited_alloc = random_allocation(topo_, 32, rng);
  auto budgeted_alloc = unlimited_alloc;

  const auto unlimited =
      DistributedScoreRuntime(model_, unlimited_alloc, tm).run();
  ASSERT_GT(unlimited.total_migrations, 2u);

  RuntimeConfig cfg;
  cfg.migration_budget_mb = unlimited.migrated_mb / 2.0;
  const auto budgeted =
      DistributedScoreRuntime(model_, budgeted_alloc, tm, cfg).run();
  EXPECT_LE(budgeted.migrated_mb, cfg.migration_budget_mb);
  EXPECT_LT(budgeted.total_migrations, unlimited.total_migrations);
  EXPECT_GT(budgeted.budget_rejected, 0u);
  EXPECT_TRUE(budgeted_alloc.check_consistency());
}

// ------------------------------------------------------------- host churn

TEST_F(DistributedTest, HostLeaveDrainsAndRunConverges) {
  Rng rng(49);
  auto tm = random_tm(40, 3.0, rng);
  auto alloc = random_allocation(topo_, 40, rng);

  RuntimeConfig cfg;
  cfg.retransmit_timeout_s = 2.0;
  // Two hosts leave early in the run.
  cfg.churn.push_back({0.5, 3, true});
  cfg.churn.push_back({1.0, 17, true});
  DistributedScoreRuntime runtime(model_, alloc, tm, cfg);
  const auto res = runtime.run();

  EXPECT_LT(res.final_cost, res.initial_cost);
  EXPECT_TRUE(alloc.check_consistency());
  // The departed hosts are empty: every VM was drained.
  EXPECT_TRUE(alloc.vms_on(3).empty());
  EXPECT_TRUE(alloc.vms_on(17).empty());
  EXPECT_NEAR(res.final_cost, model_.total_cost(alloc, tm),
              1e-6 * (1.0 + res.final_cost));
}

TEST_F(DistributedTest, HostRejoinBecomesMigrationTargetAgain) {
  Rng rng(50);
  auto tm = random_tm(40, 3.0, rng);
  auto alloc = random_allocation(topo_, 40, rng);

  RuntimeConfig cfg;
  cfg.retransmit_timeout_s = 2.0;
  cfg.churn.push_back({0.5, 5, true});
  cfg.churn.push_back({1.5, 5, false});  // rejoin
  DistributedScoreRuntime runtime(model_, alloc, tm, cfg);
  const auto res = runtime.run();
  EXPECT_LT(res.final_cost, res.initial_cost);
  EXPECT_TRUE(alloc.check_consistency());
  EXPECT_GT(res.evacuations, 0u);
}

TEST_F(DistributedTest, StrandedVmsEndRunInsteadOfLivelock) {
  // Fully packed fleet (1 slot per host): a leaving host's VM has no
  // feasible drain target and stays stranded on the departed host. The run
  // must still terminate — the skip path and the watchdog hand the token to
  // reachable holders only, and give up when none remain.
  Rng rng(52);
  auto tm = random_tm(32, 2.0, rng);
  auto alloc = random_allocation(topo_, 32, rng, /*slots_per_server=*/1);

  RuntimeConfig cfg;
  cfg.retransmit_timeout_s = 1.0;
  cfg.iterations = 3;
  cfg.stop_when_stable = false;
  cfg.churn.push_back({0.5, 2, true});
  const auto res = DistributedScoreRuntime(model_, alloc, tm, cfg).run();

  EXPECT_FALSE(alloc.vms_on(2).empty());  // genuinely stranded
  EXPECT_EQ(res.evacuations, 0u);
  EXPECT_TRUE(alloc.check_consistency());
  EXPECT_GE(res.iterations.size(), 1u);
}

// ------------------------------------------------- probe payload validation

/// A world an agent can stand on outside any runtime: its sends are recorded
/// instead of delivered, so one message can be handed to it directly.
class ProbePayloadTest : public DistributedTest,
                         public score::hypervisor::AgentEnv {
 protected:
  struct Sent {
    CtrlMsg type;
    score::topo::HostId to;
    std::vector<std::uint8_t> payload;

    bool operator==(const Sent&) const = default;
  };

  ProbePayloadTest()
      : rng_(53),
        tm_(random_tm(16, 2.0, rng_)),
        alloc_(random_allocation(topo_, 16, rng_)),
        hv_(model_, alloc_, tm_, /*migration_budget_mb=*/0.0) {
    agent_.bind(this, &cfg_, 1);
  }

  /// Deliver one message of `type` with `bytes` payload bytes to host 1.
  void deliver(CtrlMsg type, std::size_t bytes) {
    deliver(static_cast<int>(type), bytes);
  }
  void deliver(int type, std::size_t bytes) {
    Message msg;
    msg.src = 0;
    msg.dst = 1;
    msg.type = type;
    msg.payload.assign(bytes, 0);
    agent_.on_message(msg);
  }

  // AgentEnv
  const score::hypervisor::SimHypervisor& hv() const override { return hv_; }
  score::hypervisor::MigrateStatus migrate(
      VmId vm, score::topo::HostId target,
      score::hypervisor::MigrationOutcome* outcome) override {
    return hv_.migrate(vm, target, outcome);
  }
  double now() const override { return 0.0; }
  void send(CtrlMsg type, score::topo::HostId, score::topo::HostId to,
            std::vector<std::uint8_t> payload) override {
    sent_.emplace_back(type, payload.size());
    log_.push_back({type, to, std::move(payload)});
  }
  void send_after(double, CtrlMsg type, score::topo::HostId from,
                  score::topo::HostId to,
                  std::vector<std::uint8_t> payload) override {
    send(type, from, to, std::move(payload));
  }
  void arm_probe_timer(score::topo::HostId, double, std::uint32_t,
                       int) override {}
  bool stopped() const override { return false; }
  bool hold_complete(bool, std::uint32_t, std::uint32_t, double) override {
    return true;
  }
  void stop_run() override {}
  void note_probe_retransmits(std::size_t) override {}
  void note_probe_timeout() override {}

  /// The VM with the most peers.
  VmId busiest_vm() const {
    VmId u = 0;
    for (VmId v = 1; v < alloc_.num_vms(); ++v) {
      if (tm_.neighbors(v).size() > tm_.neighbors(u).size()) u = v;
    }
    return u;
  }

  /// The message host `request.to`'s agent answers `request` with, sent
  /// back to `from`.
  Message answer(const Sent& request, score::topo::HostId from) {
    Dom0Agent responder;
    responder.bind(this, &cfg_, request.to);
    responder.on_message(
        Message{from, request.to, static_cast<int>(request.type),
                request.payload});
    const Sent response = log_.back();
    log_.pop_back();
    return Message{request.to, from, static_cast<int>(response.type),
                   response.payload};
  }

  /// Hand a fresh agent on `vm`'s host (holder_) the token held by `vm`,
  /// with c_m set to `migration_cost`, and answer every location probe it
  /// sends. A `stray` message, when given, reaches the holder first. Returns
  /// the messages the holder sent after the last location response.
  std::vector<Sent> hold_after_locations(
      VmId vm, double migration_cost,
      const std::optional<Message>& stray = std::nullopt) {
    const score::topo::HostId host = alloc_.server_of(vm);
    cfg_.engine.migration_cost = migration_cost;
    holder_ = Dom0Agent{};
    holder_.bind(this, &cfg_, host);

    score::hypervisor::Token token;
    token.holder = score::hypervisor::addr_of_vm(vm);
    for (VmId v = 0; v < alloc_.num_vms(); ++v) {
      token.entries.push_back({score::hypervisor::addr_of_vm(v), 0, false});
    }
    Message msg;
    msg.src = host;
    msg.dst = host;
    msg.type = static_cast<int>(CtrlMsg::kToken);
    msg.payload = score::hypervisor::encode_token(token);
    log_.clear();
    holder_.on_message(msg);

    const std::vector<Sent> requests = log_;
    EXPECT_EQ(requests.size(), tm_.neighbors(vm).size());
    log_.clear();
    if (stray) holder_.on_message(*stray);
    for (const Sent& req : requests) {
      EXPECT_EQ(req.type, CtrlMsg::kLocationRequest);
      holder_.on_message(answer(req, host));
    }
    return log_;
  }

  Rng rng_;
  score::traffic::TrafficMatrix tm_;
  Allocation alloc_;
  score::hypervisor::SimHypervisor hv_;
  score::hypervisor::AgentConfig cfg_;
  Dom0Agent agent_;
  Dom0Agent holder_;  ///< the agent hold_after_locations drives
  std::vector<std::pair<CtrlMsg, std::size_t>> sent_;
  std::vector<Sent> log_;  ///< every send with its destination and payload
};

TEST_F(ProbePayloadTest, WellFormedRequestsAreAnswered) {
  deliver(CtrlMsg::kLocationRequest, 8);
  deliver(CtrlMsg::kCapacityRequest, 4);
  const std::vector<std::pair<CtrlMsg, std::size_t>> expected = {
      {CtrlMsg::kLocationResponse, 12}, {CtrlMsg::kCapacityResponse, 24}};
  EXPECT_EQ(sent_, expected);
  // Responses nobody asked for are stale, not malformed: dropped silently.
  deliver(CtrlMsg::kLocationResponse, 12);
  deliver(CtrlMsg::kCapacityResponse, 24);
  EXPECT_EQ(sent_, expected);
}

// A score_agent daemon receives probe payloads from its socket; a payload of
// the wrong length must be rejected, never read past its end.
TEST_F(ProbePayloadTest, WrongLengthPayloadsAreRejected) {
  const std::pair<CtrlMsg, std::size_t> probes[] = {
      {CtrlMsg::kLocationRequest, 8},
      {CtrlMsg::kLocationResponse, 12},
      {CtrlMsg::kCapacityRequest, 4},
      {CtrlMsg::kCapacityResponse, 24}};
  for (const auto& [type, bytes] : probes) {
    EXPECT_THROW(deliver(type, bytes - 1), std::invalid_argument)
        << "type " << static_cast<int>(type) << " one byte short";
    EXPECT_THROW(deliver(type, bytes + 1), std::invalid_argument)
        << "type " << static_cast<int>(type) << " one byte long";
  }
  EXPECT_TRUE(sent_.empty());
}

// Theorem 1 moves a VM only when its Lemma-3 delta exceeds c_m, and the delta
// needs only the peers' probed locations: a holder asks for capacity exactly
// at the candidates above c_m, in candidate order, and a hold with none
// forwards the token without a capacity stage.
TEST_F(ProbePayloadTest, CapacityProbesOnlyCandidatesAboveMigrationCost) {
  const VmId u = busiest_vm();
  const Ipam& ipam = hv_.ipam();
  const auto capacity_targets = [](const std::vector<Sent>& sent) {
    std::vector<score::topo::HostId> to;
    for (const Sent& s : sent) {
      if (s.type == CtrlMsg::kCapacityRequest) to.push_back(s.to);
    }
    return to;
  };

  // Under the lowest c_m every candidate is probed, in the order
  // MigrationEngine ranks them. The order does not depend on c_m, and the
  // engine accepts only c_m >= 0.
  const std::vector<score::topo::HostId> candidates = capacity_targets(
      hold_after_locations(u, std::numeric_limits<double>::lowest()));
  score::core::EngineConfig ranking = cfg_.engine;
  ranking.migration_cost = 0.0;
  const MigrationEngine engine(model_, ranking);
  ASSERT_EQ(candidates, engine.candidate_servers(alloc_, tm_, u));
  ASSERT_GE(candidates.size(), 4u);

  // Put c_m in the widest gap between the candidates' deltas, far from the
  // agent's byte-counter rounding of the measured rates.
  std::vector<double> deltas;
  for (const score::topo::HostId c : candidates) {
    deltas.push_back(model_.migration_delta(alloc_, tm_, u, c));
  }
  std::vector<double> sorted = deltas;
  std::sort(sorted.begin(), sorted.end());
  std::size_t gap = 0;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] - sorted[i - 1] > sorted[gap + 1] - sorted[gap]) gap = i - 1;
  }
  ASSERT_GT(sorted[gap + 1] - sorted[gap], 50.0);
  const double c_m = (sorted[gap] + sorted[gap + 1]) / 2.0;
  std::vector<score::topo::HostId> above;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (deltas[i] > c_m) above.push_back(candidates[i]);
  }
  ASSERT_FALSE(above.empty());
  ASSERT_LT(above.size(), candidates.size());

  const std::vector<Sent> sent = hold_after_locations(u, c_m);
  EXPECT_EQ(capacity_targets(sent), above);
  for (const Sent& s : sent) EXPECT_EQ(s.type, CtrlMsg::kCapacityRequest);

  // Above every delta: no capacity request, and the token moves on.
  const std::vector<Sent> none = hold_after_locations(u, sorted.back() + 50.0);
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(none[0].type, CtrlMsg::kToken);
  const score::hypervisor::Token next =
      score::hypervisor::decode_token(none[0].payload);
  EXPECT_EQ(none[0].to, ipam.vm_host(next.holder));
  EXPECT_EQ(next.holder, score::hypervisor::addr_of_vm(
                             static_cast<VmId>((u + 1) % alloc_.num_vms())));
  EXPECT_EQ(next.epoch, 0u);
  EXPECT_EQ(next.ring_pos, 1u);
}

// A location response with the current nonce that names a VM the holder
// never probed is ignored, like a stale one: it neither closes the stage
// early nor reaches the decision. Inside a score_agent daemon it is outside
// input.
TEST_F(ProbePayloadTest, LocationResponseForAnUnprobedVmIsIgnored) {
  const VmId u = busiest_vm();
  const double c_m = std::numeric_limits<double>::lowest();
  const std::vector<Sent> clean = hold_after_locations(u, c_m);
  ASSERT_FALSE(clean.empty());

  VmId stranger = 0;
  const auto is_peer = [&](VmId v) {
    for (const auto& [peer, rate] : tm_.neighbors(u)) {
      if (peer == v) return true;
    }
    return false;
  };
  while (stranger == u || is_peer(stranger)) ++stranger;
  const std::uint32_t nonce = 1;  // a fresh holder's first decision
  Message stray;
  stray.src = 0;
  stray.dst = alloc_.server_of(u);
  stray.type = static_cast<int>(CtrlMsg::kLocationResponse);
  put_u32(stray.payload, score::hypervisor::addr_of_vm(stranger));
  put_u32(stray.payload, hv_.ipam().host_address(0));
  put_u32(stray.payload, nonce);
  EXPECT_EQ(hold_after_locations(u, c_m, stray), clean);
}

// Likewise a capacity response from a host that is not a candidate: the
// stage waits for every probed candidate, and the token moves on only after
// the last one answered.
TEST_F(ProbePayloadTest, CapacityResponseFromAnUnprobedHostIsIgnored) {
  const VmId u = busiest_vm();
  const std::vector<Sent> requests =
      hold_after_locations(u, std::numeric_limits<double>::lowest());
  ASSERT_GE(requests.size(), 2u);
  const score::topo::HostId host = alloc_.server_of(u);
  score::topo::HostId stranger = 0;
  const auto probed = [&](score::topo::HostId h) {
    for (const Sent& req : requests) {
      if (req.to == h) return true;
    }
    return false;
  };
  while (stranger == host || probed(stranger)) ++stranger;
  const Sent stray_request{CtrlMsg::kCapacityRequest, stranger,
                           requests.front().payload};  // the current nonce
  const Message stray = answer(stray_request, host);

  log_.clear();
  holder_.on_message(stray);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(requests[i].type, CtrlMsg::kCapacityRequest);
    EXPECT_TRUE(log_.empty()) << "hold ended before capacity response " << i;
    holder_.on_message(answer(requests[i], host));
  }
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].type, CtrlMsg::kToken);
}

TEST_F(ProbePayloadTest, UnknownMessageTypeIsRejected) {
  for (const int type : {0, 6, 99, -1}) {
    EXPECT_THROW(deliver(type, 8), std::invalid_argument) << "type " << type;
  }
  EXPECT_TRUE(sent_.empty());
}

TEST_F(DistributedTest, ChurnRejectsOutOfRangeHost) {
  Rng rng(51);
  auto tm = random_tm(8, 2.0, rng);
  auto alloc = random_allocation(topo_, 8, rng);
  RuntimeConfig cfg;
  cfg.churn.push_back({0.5, 100000, true});
  EXPECT_THROW(DistributedScoreRuntime(model_, alloc, tm, cfg),
               std::invalid_argument);
}

}  // namespace
