// Exact branch-and-bound solver tests and the appendix's Graph-Partitioning
// to OVMA reduction: solver correctness against exhaustive enumeration, and
// the reduction's decision equivalence on small instances.
#include <gtest/gtest.h>

#include <limits>

#include "baselines/exact_solver.hpp"
#include "baselines/ga_optimizer.hpp"
#include "baselines/graph_partitioning.hpp"
#include "helpers.hpp"

namespace {

using score::baselines::ExactConfig;
using score::baselines::ExactResult;
using score::baselines::ExactSolver;
using score::baselines::GaConfig;
using score::baselines::GaOptimizer;
using score::baselines::gp_cut_weight;
using score::baselines::gp_decide_via_ovma;
using score::baselines::gp_partition_feasible;
using score::baselines::GpInstance;
using score::baselines::reduce_gp_to_ovma;
using score::core::Allocation;
using score::core::CostModel;
using score::core::LinkWeights;
using score::core::ServerCapacity;
using score::core::ServerId;
using score::core::VmId;
using score::core::VmSpec;
using score::testing::random_tm;
using score::topo::CanonicalTree;
using score::topo::CanonicalTreeConfig;
using score::traffic::TrafficMatrix;
using score::util::Rng;

CanonicalTreeConfig four_host_tree() {
  CanonicalTreeConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 2;
  cfg.racks_per_pod = 1;
  cfg.cores = 1;
  return cfg;
}

// ------------------------------------------------------------- ExactSolver

TEST(ExactSolver, TrivialPairColocates) {
  CanonicalTree topo(four_host_tree());
  CostModel model(topo, LinkWeights::exponential(3));
  Allocation alloc(topo.num_hosts(), ServerCapacity{});
  alloc.add_vm(VmSpec{}, 0);
  alloc.add_vm(VmSpec{}, 3);
  TrafficMatrix tm(2, {{0, 1, 5.0}});

  const ExactResult res = ExactSolver(model).solve(alloc, tm);
  EXPECT_TRUE(res.proven_optimal);
  EXPECT_DOUBLE_EQ(res.best_cost, 0.0);
  EXPECT_EQ(res.best_assignment[0], res.best_assignment[1]);
}

TEST(ExactSolver, MatchesExhaustiveEnumerationOnRandomInstances) {
  CanonicalTree topo(four_host_tree());
  CostModel model(topo, LinkWeights::exponential(3));
  GaOptimizer cost_probe(model, GaConfig{});

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    auto tm = random_tm(5, 2.0, rng);
    ServerCapacity cap;
    cap.vm_slots = 3;
    Allocation alloc(topo.num_hosts(), cap);
    for (int i = 0; i < 5; ++i) alloc.add_vm(VmSpec{}, static_cast<ServerId>(i % 4));

    double brute = std::numeric_limits<double>::infinity();
    for (int code = 0; code < 4 * 4 * 4 * 4 * 4; ++code) {
      std::vector<ServerId> assign(5);
      int c = code;
      int used[4] = {0, 0, 0, 0};
      bool ok = true;
      for (int i = 0; i < 5; ++i) {
        assign[static_cast<std::size_t>(i)] = static_cast<ServerId>(c % 4);
        if (++used[c % 4] > 3) ok = false;
        c /= 4;
      }
      if (!ok) continue;
      brute = std::min(brute, cost_probe.assignment_cost(assign, tm));
    }

    const ExactResult res = ExactSolver(model).solve(alloc, tm);
    EXPECT_TRUE(res.proven_optimal);
    EXPECT_NEAR(res.best_cost, brute, 1e-9 + 1e-9 * brute) << "seed " << seed;
  }
}

TEST(ExactSolver, RespectsCapacity) {
  CanonicalTree topo(four_host_tree());
  CostModel model(topo, LinkWeights::exponential(3));
  ServerCapacity one_slot;
  one_slot.vm_slots = 1;
  Allocation alloc(topo.num_hosts(), one_slot);
  for (int i = 0; i < 4; ++i) alloc.add_vm(VmSpec{}, static_cast<ServerId>(i));
  TrafficMatrix tm(4, {{0, 1, 10.0}, {2, 3, 10.0}});

  const ExactResult res = ExactSolver(model).solve(alloc, tm);
  EXPECT_TRUE(res.proven_optimal);
  // Colocation impossible; best is rack-level adjacency (level 1), cost
  // 2·10·c1 per pair.
  EXPECT_GT(res.best_cost, 0.0);
  std::vector<int> count(4, 0);
  for (ServerId s : res.best_assignment) ++count[s];
  for (int c : count) EXPECT_LE(c, 1);
}

TEST(ExactSolver, NodeBudgetTruncates) {
  CanonicalTree topo(four_host_tree());
  CostModel model(topo, LinkWeights::exponential(3));
  Rng rng(3);
  auto tm = random_tm(8, 3.0, rng);
  ServerCapacity cap;
  cap.vm_slots = 4;
  Allocation alloc(topo.num_hosts(), cap);
  for (int i = 0; i < 8; ++i) alloc.add_vm(VmSpec{}, static_cast<ServerId>(i % 4));

  ExactConfig cfg;
  cfg.max_nodes = 10;
  const ExactResult res = ExactSolver(model).solve(alloc, tm, cfg);
  EXPECT_FALSE(res.proven_optimal);
  // Incumbent (initial allocation) is still a valid answer.
  EXPECT_LE(res.best_cost, model.total_cost(alloc, tm) + 1e-9);
}

TEST(ExactSolver, GaNeverBeatsExactOptimum) {
  CanonicalTree topo(four_host_tree());
  CostModel model(topo, LinkWeights::exponential(3));
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    Rng rng(seed);
    auto tm = random_tm(6, 2.0, rng);
    ServerCapacity cap;
    cap.vm_slots = 3;
    Allocation alloc(topo.num_hosts(), cap);
    for (int i = 0; i < 6; ++i) alloc.add_vm(VmSpec{}, static_cast<ServerId>(i % 4));

    const ExactResult exact = ExactSolver(model).solve(alloc, tm);
    ASSERT_TRUE(exact.proven_optimal);
    GaConfig gcfg;
    gcfg.population = 16;
    gcfg.max_generations = 60;
    const auto ga = GaOptimizer(model, gcfg).optimize(alloc, tm);
    EXPECT_GE(ga.best_cost, exact.best_cost - 1e-9);
  }
}

// ------------------------------------------------- Graph Partitioning (GP)

GpInstance triangle_plus_leaf() {
  // Vertices 0-1-2 form a heavy triangle; 3 hangs off 0 with a light edge.
  GpInstance gp;
  gp.num_vertices = 4;
  gp.edges = {{0, 1, 5.0}, {1, 2, 5.0}, {0, 2, 5.0}, {0, 3, 1.0}};
  gp.capacity_k = 3;
  return gp;
}

TEST(GraphPartitioning, CutWeightAndFeasibility) {
  const GpInstance gp = triangle_plus_leaf();
  // Triangle together, leaf alone: cut = the light edge.
  EXPECT_DOUBLE_EQ(gp_cut_weight(gp, {0, 0, 0, 1}), 1.0);
  // Split the triangle: cut = 2 heavy + maybe the leaf edge.
  EXPECT_DOUBLE_EQ(gp_cut_weight(gp, {0, 0, 1, 0}), 10.0);
  EXPECT_TRUE(gp_partition_feasible(gp, {0, 0, 0, 1}));
  EXPECT_FALSE(gp_partition_feasible(gp, {0, 0, 0, 0}));  // 4 > K = 3
  EXPECT_FALSE(gp_partition_feasible(gp, {0, 0, -1, 1}));
}

TEST(GraphPartitioning, ReductionShapesMatchAppendix) {
  const GpInstance gp = triangle_plus_leaf();
  const auto ovma = reduce_gp_to_ovma(gp);
  // VMs = vertices; λ = edge weights; racks with capacity K.
  EXPECT_EQ(ovma.tm.num_vms(), 4u);
  EXPECT_DOUBLE_EQ(ovma.tm.rate(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(ovma.tm.rate(0, 3), 1.0);
  EXPECT_EQ(ovma.allocation->capacity(0).vm_slots, 3u);
  // Single pod: every inter-rack pair sits at one level (uniform cut price).
  EXPECT_EQ(ovma.topology->comm_level(0, 1), ovma.topology->comm_level(0, 3));
  EXPECT_GT(ovma.cut_cost_scale, 0.0);
}

TEST(GraphPartitioning, DecisionMatchesBruteForce) {
  const GpInstance base = triangle_plus_leaf();
  // Brute-force the GP side over all partitions into ≤ 4 parts.
  auto brute_min_cut = [&](const GpInstance& gp) {
    double best = std::numeric_limits<double>::infinity();
    std::vector<int> parts(gp.num_vertices);
    for (int code = 0; code < 4 * 4 * 4 * 4; ++code) {
      int c = code;
      for (std::size_t i = 0; i < gp.num_vertices; ++i) {
        parts[i] = c % 4;
        c /= 4;
      }
      if (!gp_partition_feasible(gp, parts)) continue;
      best = std::min(best, gp_cut_weight(gp, parts));
    }
    return best;
  };
  const double min_cut = brute_min_cut(base);  // = 1.0 (leaf edge)
  EXPECT_DOUBLE_EQ(min_cut, 1.0);

  for (double goal : {0.0, 0.5, 1.0, 5.0, 11.0}) {
    GpInstance gp = base;
    gp.goal_j = goal;
    EXPECT_EQ(gp_decide_via_ovma(gp), goal >= min_cut) << "goal " << goal;
  }
}

TEST(GraphPartitioning, RandomInstancesAgreeWithBruteForce) {
  Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    GpInstance gp;
    gp.num_vertices = 5;
    gp.capacity_k = 3;
    for (std::uint32_t u = 0; u < 5; ++u) {
      for (std::uint32_t v = u + 1; v < 5; ++v) {
        if (rng.chance(0.6)) {
          gp.edges.emplace_back(u, v, rng.uniform(0.5, 4.0));
        }
      }
    }
    if (gp.edges.empty()) gp.edges.emplace_back(0, 1, 1.0);

    double best = std::numeric_limits<double>::infinity();
    std::vector<int> parts(5);
    for (int code = 0; code < 5 * 5 * 5 * 5 * 5; ++code) {
      int c = code;
      for (std::size_t i = 0; i < 5; ++i) {
        parts[i] = c % 5;
        c /= 5;
      }
      if (!gp_partition_feasible(gp, parts)) continue;
      best = std::min(best, gp_cut_weight(gp, parts));
    }

    gp.goal_j = best;
    EXPECT_TRUE(gp_decide_via_ovma(gp)) << "trial " << trial;
    if (best > 0.0) {
      gp.goal_j = best * 0.99;
      EXPECT_FALSE(gp_decide_via_ovma(gp)) << "trial " << trial;
    }
  }
}

TEST(GraphPartitioning, RejectsMalformedInstances) {
  GpInstance empty;
  EXPECT_THROW(reduce_gp_to_ovma(empty), std::invalid_argument);
  GpInstance self_loop;
  self_loop.num_vertices = 2;
  self_loop.edges = {{0, 0, 1.0}};
  EXPECT_THROW(reduce_gp_to_ovma(self_loop), std::invalid_argument);
  GpInstance bad_weight;
  bad_weight.num_vertices = 2;
  bad_weight.edges = {{0, 1, -1.0}};
  EXPECT_THROW(reduce_gp_to_ovma(bad_weight), std::invalid_argument);
}

}  // namespace
