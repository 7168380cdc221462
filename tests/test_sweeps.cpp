// Cross-cutting parameterized sweeps: the core S-CORE invariants checked over
// the full grid of (topology architecture x token policy x workload seed).
// Each combination runs a complete simulation and asserts the properties the
// rest of the suite establishes individually:
//   * global cost is monotonically non-increasing and matches recomputation,
//   * the allocation stays capacity-consistent,
//   * the run converges to a stable fixed point,
//   * a meaningful share of the initial cost is recovered.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "driver/simulation.hpp"
#include "core/token_policy.hpp"
#include "helpers.hpp"
#include "topology/leaf_spine.hpp"

namespace {

using score::core::CostModel;
using score::core::LinkWeights;
using score::core::MigrationEngine;
using score::driver::ScoreSimulation;
using score::driver::SimConfig;
using score::topo::CanonicalTree;
using score::topo::FatTree;
using score::topo::FatTreeConfig;
using score::topo::LeafSpine;
using score::topo::LeafSpineConfig;
using score::topo::Topology;
using score::util::Rng;

enum class Arch { kCanonical, kFatTree, kLeafSpine };

std::unique_ptr<Topology> make_arch(Arch arch) {
  switch (arch) {
    case Arch::kCanonical:
      return std::make_unique<CanonicalTree>(score::testing::tiny_tree_config());
    case Arch::kFatTree:
      return std::make_unique<FatTree>(FatTreeConfig{.k = 4});
    case Arch::kLeafSpine: {
      LeafSpineConfig cfg;
      cfg.leaves = 8;
      cfg.hosts_per_leaf = 4;
      cfg.spines = 2;
      return std::make_unique<LeafSpine>(cfg);
    }
  }
  return nullptr;
}

const char* arch_name(Arch arch) {
  switch (arch) {
    case Arch::kCanonical: return "canonical";
    case Arch::kFatTree: return "fattree";
    case Arch::kLeafSpine: return "leafspine";
  }
  return "?";
}

using SweepParam = std::tuple<int /*arch*/, const char* /*policy*/, int /*seed*/>;

class FullSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FullSweep, InvariantsHoldEndToEnd) {
  const auto [arch_i, policy_name, seed] = GetParam();
  const Arch arch = static_cast<Arch>(arch_i);
  auto topo = make_arch(arch);
  CostModel model(*topo, LinkWeights::exponential(topo->max_level()));
  MigrationEngine engine(model);

  Rng rng(static_cast<std::uint64_t>(1000 + seed));
  const std::size_t n = 40;
  auto tm = score::testing::random_tm(n, 3.0, rng);
  auto alloc = score::testing::random_allocation(*topo, n, rng);
  const double initial = model.total_cost(alloc, tm);

  auto policy = score::core::make_policy(policy_name, static_cast<std::uint64_t>(seed));
  SimConfig cfg;
  cfg.iterations = 12;
  ScoreSimulation sim(engine, *policy, alloc, tm);
  const auto res = sim.run(cfg);

  SCOPED_TRACE(std::string(arch_name(arch)) + "/" + policy_name + "/seed" +
               std::to_string(seed));

  // Monotone series.
  for (std::size_t i = 1; i < res.series.size(); ++i) {
    ASSERT_LE(res.series[i].cost, res.series[i - 1].cost + 1e-9);
  }
  // Bookkeeping agrees with recomputation; allocation consistent.
  EXPECT_NEAR(res.final_cost, model.total_cost(alloc, tm),
              1e-7 * (1.0 + res.final_cost));
  EXPECT_TRUE(alloc.check_consistency());
  // Converged (no migrations in the last completed iteration).
  ASSERT_FALSE(res.iterations.empty());
  EXPECT_EQ(res.iterations.back().migrations, 0u);
  // Recovers a meaningful share of the initial cost.
  EXPECT_LT(res.final_cost, 0.75 * initial);
}

INSTANTIATE_TEST_SUITE_P(
    ArchPolicySeed, FullSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values("round-robin", "highest-level-first",
                                         "random", "highest-traffic-first"),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string(arch_name(static_cast<Arch>(std::get<0>(info.param)))) +
             "_" +
             [p = std::string(std::get<1>(info.param))]() mutable {
               for (auto& c : p) {
                 if (c == '-') c = '_';
               }
               return p;
             }() +
             "_seed" + std::to_string(std::get<2>(info.param));
    });

// Delta-correctness sweep over many seeds (beyond test_cost_model's cases).
class DeltaSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(DeltaSeedSweep, LemmaThreeHoldsForRandomWalks) {
  CanonicalTree topo(score::testing::tiny_tree_config());
  CostModel model(topo, LinkWeights::exponential(3));
  Rng rng(static_cast<std::uint64_t>(5000 + GetParam()));
  auto tm = score::testing::random_tm(30, 3.0, rng);
  auto alloc = score::testing::random_allocation(topo, 30, rng);
  for (int trial = 0; trial < 60; ++trial) {
    const auto u = static_cast<score::core::VmId>(rng.index(30));
    const auto target =
        static_cast<score::core::ServerId>(rng.index(topo.num_hosts()));
    if (!alloc.can_host(target, alloc.spec(u))) continue;
    const double before = model.total_cost(alloc, tm);
    const double delta = model.migration_delta(alloc, tm, u, target);
    alloc.migrate(u, target);
    EXPECT_NEAR(model.total_cost(alloc, tm), before - delta,
                1e-7 * (1.0 + before));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaSeedSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

}  // namespace
