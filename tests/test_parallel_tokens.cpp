// Parallel token rounds: a seeded multi-token run must be a pure function
// of the scenario — seq, par(1) and par(4) execution policies produce
// identical migration sequences, final costs, iteration stats (settled-hold
// skips included: `evaluations` must match too) and final allocations; only
// wall-clock may differ. Plus the pass-barrier invariants
// of the phased driver (monotone commits, reconciled Eq. (2) cost).
#include <gtest/gtest.h>

#include <cmath>

#include "core/cached_cost_model.hpp"
#include "driver/multi_token.hpp"
#include "helpers.hpp"

namespace {

using score::core::CostModel;
using score::core::LinkWeights;
using score::core::MigrationEngine;
using score::driver::MultiTokenConfig;
using score::driver::MultiTokenSimulation;
using score::driver::SimResult;
using score::testing::random_allocation;
using score::testing::random_tm;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::util::ExecPolicy;
using score::util::Rng;

class ParallelTokensTest : public ::testing::Test {
 protected:
  ParallelTokensTest()
      : topo_(tiny_tree_config()), model_(topo_, LinkWeights::exponential(3)),
        engine_(model_) {}

  SimResult run_with(const ExecPolicy& policy, std::size_t tokens,
                     score::core::Allocation& alloc,
                     const score::traffic::TrafficMatrix& tm) {
    MultiTokenConfig cfg;
    cfg.tokens = tokens;
    cfg.iterations = 8;
    cfg.policy = policy;
    MultiTokenSimulation sim(engine_, alloc, tm);
    return sim.run(cfg);
  }

  CanonicalTree topo_;
  CostModel model_;
  MigrationEngine engine_;
};

void expect_identical(const SimResult& a, const SimResult& b, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.initial_cost, b.initial_cost);
  EXPECT_EQ(a.final_cost, b.final_cost);  // bit-identical, not just close
  EXPECT_EQ(a.total_migrations, b.total_migrations);
  EXPECT_EQ(a.duration_s, b.duration_s);
  ASSERT_EQ(a.migration_log.size(), b.migration_log.size());
  for (std::size_t i = 0; i < a.migration_log.size(); ++i) {
    EXPECT_EQ(a.migration_log[i], b.migration_log[i]) << "commit " << i;
  }
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].holds, b.iterations[i].holds);
    EXPECT_EQ(a.iterations[i].evaluations, b.iterations[i].evaluations);
    EXPECT_EQ(a.iterations[i].migrations, b.iterations[i].migrations);
    EXPECT_EQ(a.iterations[i].cost_at_end, b.iterations[i].cost_at_end);
    EXPECT_EQ(a.iterations[i].time_at_end_s, b.iterations[i].time_at_end_s);
  }
}

TEST_F(ParallelTokensTest, PoliciesProduceIdenticalRuns) {
  Rng rng(60);
  const std::size_t num_vms = 96;
  auto tm = random_tm(num_vms, 3.0, rng);
  const auto alloc0 = random_allocation(topo_, num_vms, rng);

  for (const std::size_t tokens : {1u, 4u, 7u}) {
    auto alloc_seq = alloc0;
    auto alloc_par1 = alloc0;
    auto alloc_par4 = alloc0;
    const auto res_seq = run_with(ExecPolicy::seq(), tokens, alloc_seq, tm);
    const auto res_par1 = run_with(ExecPolicy::par(1), tokens, alloc_par1, tm);
    const auto res_par4 = run_with(ExecPolicy::par(4), tokens, alloc_par4, tm);

    expect_identical(res_seq, res_par1, "seq vs par(1)");
    expect_identical(res_seq, res_par4, "seq vs par(4)");
    for (score::core::VmId u = 0; u < num_vms; ++u) {
      EXPECT_EQ(alloc_seq.server_of(u), alloc_par4.server_of(u)) << "vm " << u;
    }
    EXPECT_GT(res_seq.total_migrations, 0u);
    EXPECT_GT(res_seq.reduction(), 0.1);
  }
}

TEST_F(ParallelTokensTest, RepeatedParallelRunsAreReproducible) {
  Rng rng(61);
  const std::size_t num_vms = 64;
  auto tm = random_tm(num_vms, 3.0, rng);
  const auto alloc0 = random_allocation(topo_, num_vms, rng);

  auto a1 = alloc0;
  auto a2 = alloc0;
  const auto r1 = run_with(ExecPolicy::par(4), 8, a1, tm);
  const auto r2 = run_with(ExecPolicy::par(4), 8, a2, tm);
  expect_identical(r1, r2, "par(4) run 1 vs run 2");
}

TEST_F(ParallelTokensTest, ParallelRunKeepsDriverInvariants) {
  Rng rng(62);
  const std::size_t num_vms = 96;
  auto tm = random_tm(num_vms, 3.0, rng);
  auto alloc = random_allocation(topo_, num_vms, rng);

  const auto res = run_with(ExecPolicy::par(4), 6, alloc, tm);
  // Monotone cost series (every merge commit is revalidated on the master).
  for (std::size_t i = 1; i < res.series.size(); ++i) {
    EXPECT_LE(res.series[i].cost, res.series[i - 1].cost + 1e-9);
  }
  // Reconciled final cost equals brute-force Eq. (2) on the final state.
  EXPECT_NEAR(res.final_cost, model_.total_cost(alloc, tm),
              1e-7 * (1.0 + std::abs(res.final_cost)));
  EXPECT_TRUE(alloc.check_consistency());
  // The migration log is exactly the committed count, tagged by pass.
  EXPECT_EQ(res.migration_log.size(), res.total_migrations);
  for (const auto& rec : res.migration_log) {
    EXPECT_LT(rec.pass, res.iterations.size());
    EXPECT_NE(rec.from, rec.to);
  }
}

TEST_F(ParallelTokensTest, CachedMasterOracleMatchesBruteForceMaster) {
  // The driver commits merged migrations through whatever cost model the
  // engine wraps; a CachedCostModel bound to the master allocation (the
  // bench configuration) must yield the same run as the brute-force model.
  Rng rng(63);
  const std::size_t num_vms = 64;
  auto tm = random_tm(num_vms, 3.0, rng);
  auto alloc_brute = random_allocation(topo_, num_vms, rng);
  auto alloc_cached = alloc_brute;

  const auto res_brute = run_with(ExecPolicy::par(2), 4, alloc_brute, tm);

  score::core::CachedCostModel cached(topo_, LinkWeights::exponential(3));
  cached.bind(alloc_cached, tm);
  MigrationEngine cached_engine(cached);
  MultiTokenConfig cfg;
  cfg.tokens = 4;
  cfg.iterations = 8;
  cfg.policy = ExecPolicy::par(2);
  MultiTokenSimulation sim(cached_engine, alloc_cached, tm);
  const auto res_cached = sim.run(cfg);

  EXPECT_EQ(res_brute.total_migrations, res_cached.total_migrations);
  EXPECT_NEAR(res_brute.final_cost, res_cached.final_cost,
              1e-7 * (1.0 + std::abs(res_brute.final_cost)));
  for (score::core::VmId u = 0; u < num_vms; ++u) {
    EXPECT_EQ(alloc_brute.server_of(u), alloc_cached.server_of(u));
  }
}

}  // namespace
