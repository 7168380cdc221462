// Traffic-dynamics tests: persistent hotspots, mice churn, determinism, and
// the measurement-window average — plus the stability property the paper
// argues in §VI-B: a converged S-CORE allocation barely re-migrates under
// mice churn when decisions use window-averaged loads.
#include <gtest/gtest.h>

#include "driver/simulation.hpp"
#include "core/token_policy.hpp"
#include "helpers.hpp"
#include "traffic/dynamics.hpp"

namespace {

using score::core::MigrationEngine;
using score::core::RoundRobinPolicy;
using score::driver::ScoreSimulation;
using score::traffic::average_tms;
using score::traffic::DynamicsConfig;
using score::traffic::GeneratorConfig;
using score::traffic::TrafficDynamics;
using score::traffic::TrafficMatrix;
using score::traffic::VmId;

GeneratorConfig small_gen() {
  GeneratorConfig g;
  g.num_vms = 128;
  g.seed = 5;
  return g;
}

TEST(Dynamics, EpochZeroIsBaseMatrix) {
  TrafficDynamics dyn(small_gen(), DynamicsConfig{});
  const auto base = score::traffic::generate_traffic(small_gen());
  EXPECT_EQ(dyn.epoch(0).pairs(), base.pairs());
}

TEST(Dynamics, DeterministicAcrossInstances) {
  TrafficDynamics a(small_gen(), DynamicsConfig{});
  TrafficDynamics b(small_gen(), DynamicsConfig{});
  EXPECT_EQ(a.epoch(4).pairs(), b.epoch(4).pairs());
}

TEST(Dynamics, RandomAccessMatchesSequentialAccess) {
  TrafficDynamics a(small_gen(), DynamicsConfig{});
  TrafficDynamics b(small_gen(), DynamicsConfig{});
  for (std::size_t k = 0; k <= 3; ++k) (void)a.epoch(k);
  EXPECT_EQ(a.epoch(3).pairs(), b.epoch(3).pairs());  // b jumps straight to 3
}

TEST(Dynamics, ElephantsPersistAcrossAdjacentEpochs) {
  TrafficDynamics dyn(small_gen(), DynamicsConfig{});
  // "Fixed-set hotspots that change slowly over time".
  EXPECT_GT(dyn.elephant_overlap(0, 1), 0.6);
  EXPECT_GT(dyn.elephant_overlap(3, 4), 0.6);
}

TEST(Dynamics, MiceChurnReshufflesPairs) {
  DynamicsConfig cfg;
  cfg.mice_churn = 0.9;
  cfg.rate_jitter_sigma = 0.0;
  TrafficDynamics dyn(small_gen(), cfg);
  const auto& e0 = dyn.epoch(0);
  const auto& e1 = dyn.epoch(1);
  // Count surviving pairs: with 90% churn, most mice pairs change endpoints.
  std::size_t survived = 0;
  for (const auto& [u, v, r] : e0.pairs()) {
    (void)r;
    if (e1.rate(u, v) > 0.0) ++survived;
  }
  EXPECT_LT(static_cast<double>(survived) / static_cast<double>(e0.num_pairs()),
            0.4);
}

TEST(Dynamics, TotalLoadRoughlyConserved) {
  DynamicsConfig cfg;
  cfg.rate_jitter_sigma = 0.1;
  TrafficDynamics dyn(small_gen(), cfg);
  const double l0 = dyn.epoch(0).total_load();
  const double l5 = dyn.epoch(5).total_load();
  EXPECT_NEAR(l5 / l0, 1.0, 0.5);  // jitter is multiplicative, mean ~1
}

TEST(Dynamics, AverageTmsIsElementwiseMean) {
  const TrafficMatrix a(4, {{0, 1, 10.0}, {2, 3, 4.0}});
  const TrafficMatrix b(4, {{0, 1, 20.0}});
  const auto avg = average_tms({&a, &b});
  EXPECT_DOUBLE_EQ(avg.rate(0, 1), 15.0);
  EXPECT_DOUBLE_EQ(avg.rate(2, 3), 2.0);
}

TEST(Dynamics, AverageTmsRejectsBadInput) {
  TrafficMatrix a(4), b(5);
  EXPECT_THROW(average_tms({}), std::invalid_argument);
  EXPECT_THROW(average_tms({&a, &b}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property tests (continuous-operation hardening): the continuous engine
// leans on TrafficDynamics being a pure function of (config, k), on
// elephant_overlap being a well-formed similarity, and on per-epoch load
// staying within the configured jitter envelope.
// ---------------------------------------------------------------------------

TEST(DynamicsProperties, EpochIsIndependentOfAccessOrderAndCacheState) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    GeneratorConfig gen = small_gen();
    gen.seed = seed;

    TrafficDynamics sequential(gen, DynamicsConfig{});
    TrafficDynamics shuffled(gen, DynamicsConfig{});
    TrafficDynamics probed(gen, DynamicsConfig{});

    for (std::size_t k = 0; k <= 6; ++k) (void)sequential.epoch(k);
    for (const std::size_t k : {6u, 2u, 5u, 0u, 3u, 1u, 4u}) {
      (void)shuffled.epoch(k);
    }
    // Interleave overlap queries so the third instance reaches each epoch
    // with different internal cache state.
    (void)probed.elephant_overlap(2, 4);
    (void)probed.epoch(6);
    (void)probed.elephant_overlap(0, 6);

    for (std::size_t k = 0; k <= 6; ++k) {
      EXPECT_EQ(sequential.epoch(k).pairs(), shuffled.epoch(k).pairs())
          << "seed " << seed << " epoch " << k;
      EXPECT_EQ(sequential.epoch(k).pairs(), probed.epoch(k).pairs())
          << "seed " << seed << " epoch " << k;
    }
  }
}

TEST(DynamicsProperties, ElephantOverlapIsAValidSimilarity) {
  TrafficDynamics dyn(small_gen(), DynamicsConfig{});
  for (std::size_t a = 0; a <= 5; ++a) {
    EXPECT_DOUBLE_EQ(dyn.elephant_overlap(a, a), 1.0);
    for (std::size_t b = 0; b <= 5; ++b) {
      const double o = dyn.elephant_overlap(a, b);
      EXPECT_GE(o, 0.0) << a << "," << b;
      EXPECT_LE(o, 1.0) << a << "," << b;
      EXPECT_DOUBLE_EQ(o, dyn.elephant_overlap(b, a)) << a << "," << b;
    }
  }
}

TEST(DynamicsProperties, AdjacentOverlapMeetsPersistenceDerivedBound) {
  // If a fraction p of elephants survives with endpoints intact, the Jaccard
  // overlap of adjacent sets is at least p/(2-p) in expectation. The clean
  // bound needs the other churn channels off: rate jitter and mice redraws
  // both move the per-epoch percentile threshold, flipping boundary pairs in
  // and out of the elephant set.
  DynamicsConfig cfg;  // elephant_persistence = 0.97
  cfg.rate_jitter_sigma = 0.0;
  cfg.mice_churn = 0.0;
  TrafficDynamics dyn(small_gen(), cfg);
  const double p = cfg.elephant_persistence;
  const double bound = p / (2.0 - p) - 0.1;  // small-sample slack
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_GE(dyn.elephant_overlap(k, k + 1), bound) << "epochs " << k;
  }

  // With the default jitter the threshold-boundary churn costs more, but
  // adjacent hotspot sets must still be recognisably "fixed" (§VI-B).
  TrafficDynamics jittered(small_gen(), DynamicsConfig{});
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_GE(jittered.elephant_overlap(k, k + 1), 0.5) << "epochs " << k;
  }
}

TEST(DynamicsProperties, LowPersistenceLowersAdjacentOverlap) {
  DynamicsConfig sticky;  // 0.97
  DynamicsConfig loose;
  loose.elephant_persistence = 0.3;
  TrafficDynamics a(small_gen(), sticky);
  TrafficDynamics b(small_gen(), loose);
  double sticky_sum = 0.0, loose_sum = 0.0;
  for (std::size_t k = 0; k < 6; ++k) {
    sticky_sum += a.elephant_overlap(k, k + 1);
    loose_sum += b.elephant_overlap(k, k + 1);
  }
  EXPECT_GT(sticky_sum, loose_sum);
}

TEST(DynamicsProperties, PerEpochTotalRateStaysWithinJitterBounds) {
  DynamicsConfig cfg;
  cfg.rate_jitter_sigma = 0.2;
  TrafficDynamics dyn(small_gen(), cfg);
  // Multiplicative lognormal jitter averaged over hundreds of pairs: the
  // epoch-over-epoch total may drift by the jitter mean exp(sigma^2/2) plus
  // sampling noise, but never by a whole jitter sigma. (Re-drawn pairs whose
  // endpoints collide are dropped, so a slight downward drift is legal too.)
  for (std::size_t k = 1; k <= 8; ++k) {
    const double ratio =
        dyn.epoch(k).total_load() / dyn.epoch(k - 1).total_load();
    EXPECT_GT(ratio, std::exp(-cfg.rate_jitter_sigma)) << "epoch " << k;
    EXPECT_LT(ratio, std::exp(cfg.rate_jitter_sigma)) << "epoch " << k;
  }
}

TEST(DynamicsProperties, ZeroJitterConservesLoadUpToDroppedRedraws) {
  DynamicsConfig cfg;
  cfg.rate_jitter_sigma = 0.0;
  TrafficDynamics dyn(small_gen(), cfg);
  for (std::size_t k = 1; k <= 4; ++k) {
    const double ratio =
        dyn.epoch(k).total_load() / dyn.epoch(k - 1).total_load();
    // Without jitter the only loss channel is a re-drawn pair colliding into
    // u == v (probability ~1/num_vms per redraw) or landing on an existing
    // pair; no channel ever creates rate.
    EXPECT_LE(ratio, 1.0 + 1e-12) << "epoch " << k;
    EXPECT_GT(ratio, 0.9) << "epoch " << k;
  }
}

TEST(Dynamics, WindowAveragingSuppressesOscillation) {
  // §VI-B stability: converge on the averaged TM, then expose the allocation
  // to instantaneous epochs. Decisions on the *average* trigger almost no
  // further migrations; decisions on each instantaneous epoch trigger more.
  score::topo::CanonicalTree topo(score::testing::tiny_tree_config());
  score::core::CostModel model(topo, score::core::LinkWeights::exponential(3));
  MigrationEngine engine(model);

  GeneratorConfig gen;
  gen.num_vms = 64;
  gen.seed = 11;
  DynamicsConfig dcfg;
  dcfg.mice_churn = 0.6;
  TrafficDynamics dyn(gen, dcfg);

  score::util::Rng rng(12);
  auto alloc = score::testing::random_allocation(topo, 64, rng);

  // Converge on the window average of epochs 0..3.
  const auto avg = average_tms(
      {&dyn.epoch(0), &dyn.epoch(1), &dyn.epoch(2), &dyn.epoch(3)});
  {
    RoundRobinPolicy rr;
    ScoreSimulation sim(engine, rr, alloc, avg);
    (void)sim.run();
  }

  // One more iteration on the *same* average: stable (no oscillation).
  std::size_t avg_migrations = 0;
  for (VmId u = 0; u < 64; ++u) {
    if (engine.evaluate(alloc, avg, u).migrate) ++avg_migrations;
  }

  // One iteration against a single instantaneous epoch: churn-induced moves.
  std::size_t inst_migrations = 0;
  for (VmId u = 0; u < 64; ++u) {
    if (engine.evaluate(alloc, dyn.epoch(4), u).migrate) ++inst_migrations;
  }

  EXPECT_EQ(avg_migrations, 0u);
  EXPECT_GE(inst_migrations, avg_migrations);
}

}  // namespace
