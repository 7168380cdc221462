// Paper-scale smoke tests: S-CORE running on the actual §VI topologies
// (2560-host canonical tree, k=16 fat-tree) with thousands of VMs. These
// verify the implementation's complexity is what the paper's scalability
// argument needs — a full token iteration over a few thousand VMs completes
// in well under a second of host CPU time.
#include <gtest/gtest.h>

#include "baselines/placement.hpp"
#include "core/cached_cost_model.hpp"
#include "driver/simulation.hpp"
#include "core/token_policy.hpp"
#include "hypervisor/token_codec.hpp"
#include "topology/canonical_tree.hpp"
#include "topology/fat_tree.hpp"
#include "traffic/generator.hpp"

namespace {

using score::baselines::make_allocation;
using score::baselines::PlacementStrategy;
using score::core::Allocation;
using score::core::CachedCostModel;
using score::core::CostModel;
using score::core::LinkWeights;
using score::core::MigrationEngine;
using score::core::RoundRobinPolicy;
using score::driver::ScoreSimulation;
using score::core::ServerCapacity;
using score::driver::SimConfig;
using score::core::VmSpec;
using score::topo::CanonicalTree;
using score::topo::CanonicalTreeConfig;
using score::topo::FatTree;
using score::topo::FatTreeConfig;
using score::util::Rng;

TEST(PaperScaleRun, CanonicalTree4096Vms) {
  CanonicalTree topo(CanonicalTreeConfig::paper_scale());
  CostModel model(topo, LinkWeights::exponential(3));

  score::traffic::GeneratorConfig gen;
  gen.num_vms = 4096;
  gen.mean_service_size = 24;
  gen.seed = 91;
  auto tm = score::traffic::generate_traffic(gen);

  Rng rng(92);
  ServerCapacity cap;  // 16 slots, paper default
  Allocation alloc = make_allocation(topo, cap, gen.num_vms, VmSpec{},
                                     PlacementStrategy::kRandom, rng);

  MigrationEngine engine(model);
  RoundRobinPolicy rr;
  SimConfig cfg;
  cfg.iterations = 2;
  cfg.stop_when_stable = false;
  ScoreSimulation sim(engine, rr, alloc, tm);
  const auto res = sim.run(cfg);

  EXPECT_EQ(res.iterations.size(), 2u);
  EXPECT_GT(res.reduction(), 0.5);  // two passes already harvest most of it
  EXPECT_TRUE(alloc.check_consistency());
}

TEST(PaperScaleRun, FatTreeK16With2048Vms) {
  FatTree topo(FatTreeConfig::paper_scale());
  CostModel model(topo, LinkWeights::exponential(3));

  score::traffic::GeneratorConfig gen;
  gen.num_vms = 2048;
  gen.mean_service_size = 24;
  gen.seed = 93;
  auto tm = score::traffic::generate_traffic(gen);

  Rng rng(94);
  ServerCapacity cap;
  Allocation alloc = make_allocation(topo, cap, gen.num_vms, VmSpec{},
                                     PlacementStrategy::kRandom, rng);

  MigrationEngine engine(model);
  RoundRobinPolicy rr;
  SimConfig cfg;
  cfg.iterations = 2;
  cfg.stop_when_stable = false;
  ScoreSimulation sim(engine, rr, alloc, tm);
  const auto res = sim.run(cfg);

  EXPECT_EQ(res.iterations.size(), 2u);
  EXPECT_GT(res.reduction(), 0.5);
  EXPECT_TRUE(alloc.check_consistency());
}

TEST(PaperScaleRun, FatTreeK16WithCachedCostModel) {
  // Same §VI fat-tree, driven end-to-end through the incremental cost cache:
  // every committed migration folds in O(degree), and the final cached total
  // must match a brute-force Eq. (2) re-walk.
  FatTree topo(FatTreeConfig::paper_scale());
  CachedCostModel model(topo, LinkWeights::exponential(3));

  score::traffic::GeneratorConfig gen;
  gen.num_vms = 2048;
  gen.mean_service_size = 24;
  gen.seed = 95;
  auto tm = score::traffic::generate_traffic(gen);

  Rng rng(96);
  ServerCapacity cap;
  Allocation alloc = make_allocation(topo, cap, gen.num_vms, VmSpec{},
                                     PlacementStrategy::kRandom, rng);
  model.bind(alloc, tm);

  MigrationEngine engine(model);
  RoundRobinPolicy rr;
  SimConfig cfg;
  cfg.iterations = 2;
  cfg.stop_when_stable = false;
  ScoreSimulation sim(engine, rr, alloc, tm);
  const auto res = sim.run(cfg);

  EXPECT_GT(res.reduction(), 0.5);
  EXPECT_GT(res.total_migrations, 0u);
  // All committed moves went through the incremental path.
  EXPECT_EQ(model.incremental_updates(), res.total_migrations);
  EXPECT_EQ(model.rebuilds(), 1u);  // only the initial bind
  // Cached total == brute force at the converged allocation.
  const CostModel brute(topo, LinkWeights::exponential(3));
  const double expect = brute.total_cost(alloc, tm);
  EXPECT_NEAR(model.total_cost(alloc, tm), expect, 1e-7 * (1.0 + expect));
  // ... and equals the simulation's own delta bookkeeping.
  EXPECT_NEAR(res.final_cost, expect, 1e-7 * (1.0 + expect));
  EXPECT_TRUE(alloc.check_consistency());
}

TEST(PaperScaleRun, TokenWireSizeAtPaperScale) {
  // 40960 VM slots -> a full-fleet HLF token is ~200 KB, the O(|V|) message
  // §V-A describes ("of the order of the number of VMs in the network").
  EXPECT_EQ(score::hypervisor::token_frame_bytes(40960) -
                score::hypervisor::token_frame_header_bytes(),
            204800u);
}

}  // namespace
