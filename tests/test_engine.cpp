// Migration-engine tests: Theorem 1 (migrate iff ΔC > c_m), candidate
// generation order, capacity/bandwidth feasibility, the global-cost
// monotonicity property under repeated engine decisions, config validation,
// the communication-level rule of every topology, and a differential oracle
// that replays the straightforward evaluate (rank, deduplicate, probe every
// candidate, CostModel::migration_delta per candidate) against the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "topology/leaf_spine.hpp"

namespace {

using score::core::Allocation;
using score::core::CostModel;
using score::core::Decision;
using score::core::EngineConfig;
using score::core::kInvalidServer;
using score::core::kMaxCandidates;
using score::core::LinkWeights;
using score::core::MigrationEngine;
using score::core::ServerCapacity;
using score::core::ServerId;
using score::core::VmId;
using score::core::VmSpec;
using score::testing::mixed_allocation;
using score::testing::random_allocation;
using score::testing::random_tm;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::topo::FatTree;
using score::topo::LeafSpine;
using score::topo::Topology;
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

  MigrationEngine engine(model_);
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

  // v's server and its rack siblings are the only candidates, all full.
  MigrationEngine engine(model_);
  const Decision d = engine.evaluate(alloc, tm, u);
  EXPECT_FALSE(d.migrate);
  EXPECT_EQ(d.candidates_probed, 4u);
}

TEST_F(EngineTest, BusyNicSendsTheVmToARackSibling) {
  ServerCapacity cap;
  cap.net_bps = 1e9;
  Allocation alloc(topo_.num_hosts(), cap);
  VmSpec chatty;
  chatty.net_bps = 0.6e9;
  const VmId u = alloc.add_vm(chatty, 0);
  const VmId v = alloc.add_vm(chatty, static_cast<ServerId>(topo_.num_hosts() - 1));
  TrafficMatrix tm(2, {{u, v, 100.0}});

  // 0.6 Gb/s used + 0.6 Gb/s for u exceeds v's 1 Gb/s host; its empty rack
  // siblings have room.
  MigrationEngine engine(model_);
  EXPECT_FALSE(engine.target_feasible(alloc, alloc.server_of(v), chatty));
  const Decision d = engine.evaluate(alloc, tm, u);
  ASSERT_TRUE(d.migrate);
  EXPECT_NE(d.target, alloc.server_of(v));
  EXPECT_EQ(topo_.rack_of(d.target), topo_.rack_of(alloc.server_of(v)));
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

  // Each peer's host, in (level, rate) order, followed by the rest of its
  // rack: far_light's rack is far_heavy's, and u's own host 0 is skipped.
  MigrationEngine engine(model_);
  EXPECT_EQ(engine.candidate_servers(alloc, tm, u),
            (std::vector<ServerId>{31, 28, 29, 30, 4, 5, 6, 7, 1, 2, 3}));
}

TEST_F(EngineTest, MaxCandidatesCapsProbes) {
  // A hub with one peer in each other rack of fat-tree k=8: 31 racks of 4
  // hosts would list 124 candidates.
  const FatTree fat(score::topo::FatTreeConfig{.k = 8});
  const CostModel model(fat, LinkWeights::exponential(fat.max_level()));
  Allocation alloc(fat.num_hosts(), ServerCapacity{});
  const VmId hub = alloc.add_vm(VmSpec{}, 0);
  score::traffic::FlowDeltaBatch flows;
  for (std::size_t rack = 1; rack < fat.num_racks(); ++rack) {
    const VmId peer =
        alloc.add_vm(VmSpec{}, static_cast<ServerId>(rack * fat.half_k()));
    flows.push(hub, peer, 1.0 + static_cast<double>(rack));
  }
  ASSERT_EQ(alloc.num_vms(), 32u);
  const TrafficMatrix tm(alloc.num_vms(), std::move(flows));
  const MigrationEngine engine(model);
  EXPECT_EQ(engine.candidate_servers(alloc, tm, hub).size(),
            kMaxCandidates);
  EXPECT_EQ(engine.evaluate(alloc, tm, hub).candidates_probed,
            kMaxCandidates);
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

TEST_F(EngineTest, ConfigsThatBreakTheorem1AreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejected = [this](const EngineConfig& cfg,
                               const std::string& field) {
    try {
      MigrationEngine engine(model_, cfg);
      ADD_FAILURE() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  for (const double v : {nan, inf, -inf, -1.0, -1e-300}) {
    EngineConfig cm;
    cm.migration_cost = v;
    rejected(cm, "migration_cost");
  }

  // The edges of the legal range stay legal.
  EngineConfig edge;
  edge.migration_cost = 0.0;
  EXPECT_NO_THROW(MigrationEngine(model_, edge));
  edge.migration_cost = std::numeric_limits<double>::max();
  EXPECT_NO_THROW(MigrationEngine(model_, edge));
}

// ---- the communication-level rule ------------------------------------------

/// The small instance of each topology, with its rack and pod arithmetic
/// written out independently of Topology's tables.
struct LevelCase {
  std::unique_ptr<Topology> topology;
  std::size_t hosts_per_rack;
  std::size_t racks_per_pod;
  int top;
};

std::vector<LevelCase> level_cases() {
  std::vector<LevelCase> cases;
  for (const std::size_t k : {4u, 8u}) {
    cases.push_back(
        {std::make_unique<FatTree>(score::topo::FatTreeConfig{.k = k}), k / 2,
         k / 2, 3});
  }
  const auto tree = tiny_tree_config();
  cases.push_back({std::make_unique<CanonicalTree>(tree), tree.hosts_per_rack,
                   tree.racks_per_pod, 3});
  score::topo::LeafSpineConfig leaf;
  leaf.leaves = 6;
  leaf.hosts_per_leaf = 4;
  leaf.spines = 2;
  cases.push_back(
      {std::make_unique<LeafSpine>(leaf), leaf.hosts_per_leaf, 1, 2});
  return cases;
}

// comm_level is one rule for every topology: 0 on the same host, 1 in the
// same rack, 2 in the same pod, else the topology's top level (3 across a
// tree's core, 2 across leaf-spine's spine, where every leaf is its own pod).
TEST(CommLevel, EveryHostPairFollowsTheDocumentedRule) {
  for (const LevelCase& c : level_cases()) {
    const Topology& topo = *c.topology;
    EXPECT_EQ(topo.max_level(), c.top) << topo.name();
    const auto n = static_cast<score::topo::HostId>(topo.num_hosts());
    for (score::topo::HostId a = 0; a < n; ++a) {
      for (score::topo::HostId b = 0; b < n; ++b) {
        const std::size_t rack_a = a / c.hosts_per_rack;
        const std::size_t rack_b = b / c.hosts_per_rack;
        int expected = c.top;
        if (a == b) {
          expected = 0;
        } else if (rack_a == rack_b) {
          expected = 1;
        } else if (rack_a / c.racks_per_pod == rack_b / c.racks_per_pod) {
          expected = 2;
        }
        ASSERT_EQ(topo.comm_level(a, b), expected)
            << topo.name() << " hosts " << a << ", " << b;
        ASSERT_EQ(topo.hop_count(a, b), 2 * expected);
      }
    }
  }
}

// ---- differential oracle ----------------------------------------------------

/// The straightforward candidate list: rank every off-host peer by (level
/// desc, rate desc), list each peer's server and every other host of its
/// rack, skipping repeats by linear search, and keep the first
/// kMaxCandidates. Counts a list that the cap cut in `cut`.
std::vector<ServerId> reference_candidates(const Topology& topo,
                                           const Allocation& alloc,
                                           const TrafficMatrix& tm, VmId u,
                                           std::size_t* cut = nullptr) {
  const ServerId source = alloc.server_of(u);
  std::vector<std::tuple<int, double, ServerId>> ranked;
  tm.for_each_neighbor(u, [&](VmId z, double rate) {
    const ServerId zs = alloc.server_of(z);
    if (zs != source) {
      ranked.emplace_back(topo.comm_level(source, zs), rate, zs);
    }
  });
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (std::get<0>(a) != std::get<0>(b)) {
      return std::get<0>(a) > std::get<0>(b);
    }
    return std::get<1>(a) > std::get<1>(b);
  });
  std::vector<ServerId> candidates;
  const auto push_unique = [&](ServerId s) {
    if (std::find(candidates.begin(), candidates.end(), s) ==
        candidates.end()) {
      candidates.push_back(s);
    }
  };
  const std::size_t hosts_per_rack = topo.num_hosts() / topo.num_racks();
  for (const auto& [level, rate, zs] : ranked) {
    push_unique(zs);
    const auto first = static_cast<ServerId>(
        static_cast<std::size_t>(topo.rack_of(zs)) * hosts_per_rack);
    for (std::size_t i = 0; i < hosts_per_rack; ++i) {
      const auto sibling = static_cast<ServerId>(first + i);
      if (sibling != source) push_unique(sibling);
    }
  }
  if (candidates.size() > kMaxCandidates) {
    candidates.resize(kMaxCandidates);
    if (cut != nullptr) ++*cut;
  }
  return candidates;
}

/// Score every candidate with CostModel::migration_delta (improvable when
/// any beats c_m), probe every candidate's capacity, keep the first strict
/// maximum among the feasible ones.
Decision reference_evaluate(const MigrationEngine& engine,
                            const Allocation& alloc, const TrafficMatrix& tm,
                            VmId u) {
  Decision best;
  const VmSpec& spec = alloc.spec(u);
  for (const ServerId target : reference_candidates(
           engine.cost_model().topology(), alloc, tm, u)) {
    ++best.candidates_probed;
    const double delta =
        engine.cost_model().migration_delta(alloc, tm, u, target);
    if (delta > engine.config().migration_cost) best.improvable = true;
    if (!engine.target_feasible(alloc, target, spec)) continue;
    if (best.target == kInvalidServer || delta > best.delta) {
      best.target = target;
      best.delta = delta;
    }
  }
  best.migrate = best.target != kInvalidServer &&
                 best.delta > engine.config().migration_cost;
  if (!best.migrate && best.target == kInvalidServer) best.delta = 0.0;
  return best;
}

// The engine gathers u's peers once, builds candidates without repeats by
// skipping expanded racks, and probes capacity only for a candidate that
// would win. Every decision must equal the straightforward algorithm's, to
// the bit, on every topology and c_m, over 20 worlds each whose slot, RAM,
// CPU and NIC pressure leaves improvable holds capacity-blocked and cuts
// long candidate lists at the cap, including states where the walk has
// already converged; `improvable` must be set exactly when some candidate,
// feasible or not, beats c_m.
TEST(EngineOracle, EvaluateMatchesTheStraightforwardAlgorithm) {
  std::size_t decisions = 0;
  std::size_t migrations = 0;
  std::size_t infeasible_probes = 0;
  std::size_t blocked = 0;  // improvable, yet no candidate above c_m fits
  std::size_t capped = 0;   // candidate lists cut at kMaxCandidates
  std::uint64_t seed = 100;
  for (const LevelCase& c : level_cases()) {
    const Topology& topo = *c.topology;
    const CostModel model(topo, LinkWeights::exponential(topo.max_level()));
    const std::size_t num_vms = topo.num_hosts() * 5 / 2;
    for (const double cm : {0.0, model.pair_cost(50.0, 2)}) {
      EngineConfig cfg;
      cfg.migration_cost = cm;
      const MigrationEngine engine(model, cfg);
      for (int world = 0; world < 20; ++world) {
        Rng rng(++seed);
        const TrafficMatrix tm = random_tm(num_vms, 6.0, rng);
        Allocation alloc = mixed_allocation(topo, num_vms, rng);
        const std::string where = topo.name() + " world " +
                                  std::to_string(world) + " c_m " +
                                  std::to_string(cm);
        // Three rounds, committing the reference's moves, so later rounds
        // see near-converged states full of tied deltas.
        for (int round = 0; round < 3; ++round) {
          for (VmId u = 0; u < num_vms; ++u) {
            const std::vector<ServerId> expected_candidates =
                reference_candidates(topo, alloc, tm, u, &capped);
            ASSERT_EQ(engine.candidate_servers(alloc, tm, u),
                      expected_candidates)
                << where << " vm " << u;
            const Decision want = reference_evaluate(engine, alloc, tm, u);
            const Decision got = engine.evaluate(alloc, tm, u);
            ASSERT_EQ(got.target, want.target) << where << " vm " << u;
            ASSERT_EQ(got.migrate, want.migrate) << where << " vm " << u;
            ASSERT_EQ(got.improvable, want.improvable) << where << " vm " << u;
            if (got.improvable && !got.migrate) ++blocked;
            ASSERT_EQ(got.candidates_probed, want.candidates_probed)
                << where << " vm " << u;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got.delta),
                      std::bit_cast<std::uint64_t>(want.delta))
                << where << " vm " << u << ": " << got.delta << " vs "
                << want.delta;
            for (const ServerId s : expected_candidates) {
              if (!engine.target_feasible(alloc, s, alloc.spec(u))) {
                ++infeasible_probes;
              }
            }
            ++decisions;
            if (want.migrate) {
              model.apply_migration(alloc, tm, u, want.target);
              ++migrations;
            }
          }
        }
      }
    }
  }
  // The sweep exercised what it claims to.
  EXPECT_GT(decisions, 50000u);
  EXPECT_GT(migrations, 1000u);
  EXPECT_GT(infeasible_probes, 1000u);
  EXPECT_GT(blocked, 100u);
  EXPECT_GT(capped, 1000u);
}

}  // namespace
