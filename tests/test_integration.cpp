// Integration tests: the full pipeline (generator → placement → S-CORE
// simulation → GA normalisation → link-utilisation accounting) on scaled-down
// versions of the paper's scenarios, checking the *qualitative* claims:
//   * S-CORE converges within a couple of iterations (Fig. 2),
//   * it lands within a modest factor of the GA-approximated optimum
//     (Fig. 3d-i), on both topologies,
//   * it relieves core/aggregation links more than Remedy while reducing the
//     communication cost much further (Fig. 4),
//   * a higher migration cost c_m suppresses migrations.
#include <gtest/gtest.h>

#include "baselines/ga_optimizer.hpp"
#include "baselines/placement.hpp"
#include "baselines/remedy.hpp"
#include "driver/simulation.hpp"
#include "helpers.hpp"

namespace {

using score::baselines::GaConfig;
using score::baselines::GaOptimizer;
using score::baselines::make_allocation;
using score::baselines::PlacementStrategy;
using score::baselines::Remedy;
using score::baselines::RemedyConfig;
using score::core::Allocation;
using score::core::CostModel;
using score::core::EngineConfig;
using score::core::HighestLevelFirstPolicy;
using score::core::LinkWeights;
using score::core::MigrationEngine;
using score::core::RoundRobinPolicy;
using score::driver::ScoreSimulation;
using score::core::ServerCapacity;
using score::driver::SimConfig;
using score::core::VmSpec;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::topo::FatTree;
using score::topo::FatTreeConfig;
using score::traffic::generate_traffic;
using score::traffic::GeneratorConfig;
using score::traffic::Intensity;
using score::util::Rng;

ServerCapacity cap4() {
  ServerCapacity cap;
  cap.vm_slots = 4;
  cap.ram_mb = 1024.0;
  cap.cpu_cores = 4.0;
  return cap;
}

struct Scenario {
  std::unique_ptr<score::topo::Topology> topo;
  std::unique_ptr<CostModel> model;
  score::traffic::TrafficMatrix tm{1};
  std::unique_ptr<Allocation> alloc;
};

Scenario make_scenario(bool fat_tree, Intensity intensity, std::size_t num_vms,
                       std::uint64_t seed) {
  Scenario s;
  if (fat_tree) {
    s.topo = std::make_unique<FatTree>(FatTreeConfig{.k = 4});
  } else {
    s.topo = std::make_unique<CanonicalTree>(tiny_tree_config());
  }
  s.model = std::make_unique<CostModel>(*s.topo, LinkWeights::exponential(3));
  GeneratorConfig gen;
  gen.num_vms = num_vms;
  gen.seed = seed;
  s.tm = generate_traffic(gen, intensity);
  Rng rng(seed + 1);
  s.alloc = std::make_unique<Allocation>(make_allocation(
      *s.topo, cap4(), num_vms, VmSpec{}, PlacementStrategy::kRandom, rng));
  return s;
}

TEST(Integration, ScoreApproachesGaOptimalOnCanonicalTree) {
  auto s = make_scenario(false, Intensity::kSparse, 64, 42);
  const double initial = s.model->total_cost(*s.alloc, s.tm);

  GaConfig ga_cfg;
  ga_cfg.population = 32;
  ga_cfg.max_generations = 120;
  const auto ga = GaOptimizer(*s.model, ga_cfg).optimize(*s.alloc, s.tm);

  MigrationEngine engine(*s.model);
  HighestLevelFirstPolicy hlf;
  ScoreSimulation sim(engine, hlf, *s.alloc, s.tm);
  const auto res = sim.run();

  EXPECT_LT(res.final_cost, initial);
  ASSERT_GT(ga.best_cost, 0.0);
  // Fig. 3: S-CORE lands within ~1.1-2.5x of the GA-approximated optimum at
  // this (tiny) scale using only local knowledge.
  EXPECT_LT(res.final_cost / ga.best_cost, 2.5);
}

TEST(Integration, ScoreApproachesGaOptimalOnFatTree) {
  auto s = make_scenario(true, Intensity::kSparse, 48, 43);
  const double initial = s.model->total_cost(*s.alloc, s.tm);

  GaConfig ga_cfg;
  ga_cfg.population = 32;
  ga_cfg.max_generations = 120;
  const auto ga = GaOptimizer(*s.model, ga_cfg).optimize(*s.alloc, s.tm);

  MigrationEngine engine(*s.model);
  HighestLevelFirstPolicy hlf;
  ScoreSimulation sim(engine, hlf, *s.alloc, s.tm);
  const auto res = sim.run();

  EXPECT_LT(res.final_cost, initial);
  ASSERT_GT(ga.best_cost, 0.0);
  EXPECT_LT(res.final_cost / ga.best_cost, 2.5);
}

TEST(Integration, ConvergesWithinFewIterationsAllIntensities) {
  for (Intensity intensity :
       {Intensity::kSparse, Intensity::kMedium, Intensity::kDense}) {
    auto s = make_scenario(false, intensity, 64, 44);
    MigrationEngine engine(*s.model);
    RoundRobinPolicy rr;
    ScoreSimulation sim(engine, rr, *s.alloc, s.tm);
    SimConfig cfg;
    cfg.iterations = 5;
    cfg.stop_when_stable = false;
    const auto res = sim.run(cfg);
    ASSERT_EQ(res.iterations.size(), 5u);
    // Fig. 2: after the second iteration migrations plummet.
    EXPECT_LE(res.iterations[3].migrated_ratio,
              0.35 * res.iterations[0].migrated_ratio + 0.02);
    EXPECT_LE(res.iterations[4].migrated_ratio, 0.1);
  }
}

TEST(Integration, HlfConvergesFasterOrEqualInFirstIteration) {
  // HLF prioritises the highest-level VMs, so early iterations harvest more
  // cost reduction than RR's id-order sweep (Fig. 3 "HLF better than RR").
  auto s_rr = make_scenario(false, Intensity::kMedium, 64, 45);
  auto s_hlf = make_scenario(false, Intensity::kMedium, 64, 45);

  MigrationEngine engine_rr(*s_rr.model);
  RoundRobinPolicy rr;
  SimConfig cfg;
  cfg.iterations = 1;
  cfg.stop_when_stable = false;
  const auto res_rr =
      ScoreSimulation(engine_rr, rr, *s_rr.alloc, s_rr.tm).run(cfg);

  MigrationEngine engine_hlf(*s_hlf.model);
  HighestLevelFirstPolicy hlf;
  const auto res_hlf =
      ScoreSimulation(engine_hlf, hlf, *s_hlf.alloc, s_hlf.tm).run(cfg);

  EXPECT_LE(res_hlf.iterations[0].cost_at_end,
            res_rr.iterations[0].cost_at_end * 1.10);
}

TEST(Integration, MigrationCostSuppressesMigrations) {
  auto cheap = make_scenario(false, Intensity::kSparse, 48, 46);
  auto priced = make_scenario(false, Intensity::kSparse, 48, 46);

  MigrationEngine engine0(*cheap.model);
  RoundRobinPolicy rr0;
  const auto res0 = ScoreSimulation(engine0, rr0, *cheap.alloc, cheap.tm).run();

  EngineConfig expensive;
  // c_m at the scale of a large pair-cost: only big wins justify moving.
  expensive.migration_cost = cheap.model->pair_cost(5e6, 3);
  MigrationEngine engine1(*priced.model, expensive);
  RoundRobinPolicy rr1;
  const auto res1 = ScoreSimulation(engine1, rr1, *priced.alloc, priced.tm).run();

  EXPECT_LT(res1.total_migrations, res0.total_migrations);
}

TEST(Integration, ScoreBeatsRemedyOnCostAndCoreRelief) {
  // Fig. 4 head-to-head under a sparse TM.
  auto s_score = make_scenario(false, Intensity::kDense, 64, 47);
  auto s_remedy = make_scenario(false, Intensity::kDense, 64, 47);

  Remedy remedy_probe(*s_score.model);
  const auto util_before =
      remedy_probe.link_loads(*s_score.alloc, s_score.tm).max_utilization(3);

  MigrationEngine engine(*s_score.model);
  HighestLevelFirstPolicy hlf;
  const auto score_res =
      ScoreSimulation(engine, hlf, *s_score.alloc, s_score.tm).run();

  RemedyConfig rcfg;
  rcfg.congestion_threshold = 0.2;
  rcfg.rounds = 12;
  Remedy remedy(*s_remedy.model, rcfg);
  const auto remedy_res = remedy.run(*s_remedy.alloc, s_remedy.tm);

  const double score_reduction = score_res.reduction();
  const double remedy_reduction =
      remedy_res.initial_cost > 0
          ? 1.0 - remedy_res.final_cost / remedy_res.initial_cost
          : 0.0;
  // S-CORE reduces the communication cost far more than Remedy.
  EXPECT_GT(score_reduction, remedy_reduction + 0.1);

  // And it relieves the core layer.
  const auto util_after =
      remedy_probe.link_loads(*s_score.alloc, s_score.tm).max_utilization(3);
  EXPECT_LT(util_after, util_before);
}

}  // namespace
