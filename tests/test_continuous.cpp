// Continuous-operation engine: lifecycle bookkeeping, determinism (fixed
// seed => identical event timeline and trace hash), v2 export/replay
// byte-identity, and the distributed execution mode.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "core/scenario_io.hpp"
#include "driver/continuous.hpp"
#include "driver/reoptimize.hpp"
#include "helpers.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "topology/canonical_tree.hpp"

namespace score {
namespace {

driver::ContinuousConfig small_config() {
  driver::ContinuousConfig cfg;
  cfg.generator.num_vms = 96;
  cfg.generator.seed = 5;
  cfg.dynamics.seed = 6;
  cfg.epochs = 5;
  cfg.tenant_vms = 8;
  cfg.initial_active_fraction = 0.7;
  cfg.arrival_prob = 0.35;
  cfg.departure_prob = 0.2;
  cfg.lifecycle_seed = 11;
  cfg.server_capacity.vm_slots = 4;
  cfg.server_capacity.ram_mb = 4 * 256.0;
  cfg.server_capacity.cpu_cores = 4.0;
  cfg.iterations_per_epoch = 4;
  return cfg;
}

topo::CanonicalTreeConfig tree_config() { return testing::tiny_tree_config(); }

TEST(Continuous, EpochReportsAreInternallyConsistent) {
  topo::CanonicalTree topology(tree_config());
  driver::ContinuousEngine engine(topology, small_config());
  const driver::SteadyStateReport report = engine.run();

  ASSERT_EQ(report.epochs.size(), 5u);
  std::size_t prev_active = 0;
  for (std::size_t k = 0; k < report.epochs.size(); ++k) {
    const driver::EpochReport& er = report.epochs[k];
    EXPECT_EQ(er.epoch, k);
    if (k == 0) {
      EXPECT_GT(er.active_vms, 0u);
    } else {
      // Active population evolves exactly by the recorded arrivals/departures.
      EXPECT_EQ(er.active_vms, prev_active + er.arrived_vms - er.departed_vms);
    }
    // Token rounds never increase the communication cost.
    EXPECT_LE(er.cost_after, er.cost_before + 1e-9);
    EXPECT_GT(er.fresh_cost, 0.0);
    EXPECT_GE(er.rounds, 1u);
    prev_active = er.active_vms;
  }
  EXPECT_GT(report.total_migrations(), 0u);
  EXPECT_GT(report.total_migrated_mb(), 0.0);
  // Steady-state quality: staying within a loose band of fresh re-optimisation
  // (the bench gates a tight band at paper scale; this guards the plumbing).
  EXPECT_LT(report.max_cost_ratio(), 2.0);
  EXPECT_GT(report.mean_cost_ratio(), 0.25);
}

// Every tenant departs after epoch 0, so epochs 1 and 2 are empty: there is
// no fresh reference to compare against and their cost ratios are undefined.
// They must not count as a perfect 1.0 in the aggregates.
TEST(Continuous, EmptyEpochsHaveUndefinedCostRatios) {
  topo::CanonicalTree topology(tree_config());
  for (const char* mode : {"centralized", "distributed"}) {
    driver::ContinuousConfig cfg = small_config();
    cfg.generator.num_vms = 64;
    cfg.epochs = 3;
    cfg.initial_active_fraction = 1.0;
    cfg.arrival_prob = 0.0;
    cfg.departure_prob = 1.0;
    cfg.mode = mode;
    const driver::SteadyStateReport report =
        driver::ContinuousEngine(topology, cfg).run();
    ASSERT_EQ(report.epochs.size(), 3u) << mode;
    const double ratio = report.epochs[0].cost_ratio();
    ASSERT_GT(report.epochs[0].fresh_cost, 0.0) << mode;
    EXPECT_DOUBLE_EQ(ratio,
                     report.epochs[0].cost_after / report.epochs[0].fresh_cost);
    EXPECT_NE(ratio, 1.0) << mode;
    for (std::size_t k = 1; k < 3; ++k) {
      EXPECT_EQ(report.epochs[k].active_vms, 0u) << mode;
      EXPECT_TRUE(std::isnan(report.epochs[k].cost_ratio())) << mode;
    }
    EXPECT_DOUBLE_EQ(report.max_cost_ratio(), ratio) << mode;
    EXPECT_DOUBLE_EQ(report.mean_cost_ratio(), ratio) << mode;
    EXPECT_EQ(report.undefined_cost_ratios(), 2u) << mode;
  }
}

TEST(Continuous, FixedSeedReproducesTimelineAndTraceHash) {
  topo::CanonicalTree topology(tree_config());
  driver::ContinuousEngine a(topology, small_config());
  driver::ContinuousEngine b(topology, small_config());
  const driver::SteadyStateReport ra = a.run();
  const driver::SteadyStateReport rb = b.run();

  EXPECT_EQ(ra.world.timeline, rb.world.timeline);
  EXPECT_EQ(ra.trace_hash, rb.trace_hash);
  ASSERT_EQ(ra.epochs.size(), rb.epochs.size());
  for (std::size_t k = 0; k < ra.epochs.size(); ++k) {
    EXPECT_EQ(ra.epochs[k].cost_after, rb.epochs[k].cost_after) << "epoch " << k;
    EXPECT_EQ(ra.epochs[k].migrations, rb.epochs[k].migrations) << "epoch " << k;
  }
  EXPECT_FALSE(ra.world.timeline.empty())
      << "churn config produced no lifecycle events — the test is vacuous";
}

TEST(Continuous, SeedChangesTimeline) {
  topo::CanonicalTree topology(tree_config());
  driver::ContinuousConfig cfg = small_config();
  driver::ContinuousEngine a(topology, cfg);
  cfg.lifecycle_seed += 1;
  driver::ContinuousEngine b(topology, cfg);
  EXPECT_NE(a.run().trace_hash, b.run().trace_hash);
}

TEST(Continuous, ReplayFromExportedWorldIsByteIdentical) {
  topo::CanonicalTree topology(tree_config());
  driver::ContinuousEngine engine(topology, small_config());
  const driver::SteadyStateReport original = engine.run();

  std::ostringstream dump;
  core::save_scenario_v2(dump, original.world);

  std::istringstream in(dump.str());
  const core::WorldScenario loaded = core::load_scenario_v2(in);

  driver::ContinuousEngine replayer(topology, small_config());
  const driver::SteadyStateReport replayed = replayer.replay(loaded);

  EXPECT_EQ(replayed.trace_hash, original.trace_hash);
  ASSERT_EQ(replayed.epochs.size(), original.epochs.size());
  for (std::size_t k = 0; k < original.epochs.size(); ++k) {
    EXPECT_EQ(replayed.epochs[k].cost_after, original.epochs[k].cost_after);
    EXPECT_EQ(replayed.epochs[k].migrations, original.epochs[k].migrations);
    EXPECT_EQ(replayed.epochs[k].active_vms, original.epochs[k].active_vms);
  }

  std::ostringstream redump;
  core::save_scenario_v2(redump, replayed.world);
  EXPECT_EQ(redump.str(), dump.str()) << "replay must re-export byte-identically";
}

TEST(Continuous, ReplayRejectsMismatchedWorld) {
  topo::CanonicalTree topology(tree_config());
  driver::ContinuousEngine engine(topology, small_config());
  const driver::SteadyStateReport report = engine.run();

  core::WorldScenario wrong = report.world;
  wrong.vm_specs.pop_back();
  wrong.placement.pop_back();
  driver::ContinuousEngine replayer(topology, small_config());
  EXPECT_THROW((void)replayer.replay(wrong), std::runtime_error);
}

TEST(Continuous, ReplayRejectsMismatchedCapacitiesAndSpecs) {
  topo::CanonicalTree topology(tree_config());
  driver::ContinuousEngine engine(topology, small_config());
  const driver::SteadyStateReport report = engine.run();

  // Snapshot saved under different --slots: reject up front with a
  // flag-level message instead of failing deep inside compaction (or,
  // worse, silently replaying a different trajectory).
  driver::ContinuousConfig other = small_config();
  other.server_capacity.vm_slots = 8;
  other.server_capacity.ram_mb = 8 * 256.0;
  other.server_capacity.cpu_cores = 8.0;
  driver::ContinuousEngine slots_mismatch(topology, other);
  EXPECT_THROW((void)slots_mismatch.replay(report.world), std::runtime_error);

  driver::ContinuousConfig spec_mismatch_cfg = small_config();
  spec_mismatch_cfg.vm_spec.ram_mb = 64.0;
  driver::ContinuousEngine spec_mismatch(topology, spec_mismatch_cfg);
  EXPECT_THROW((void)spec_mismatch.replay(report.world), std::runtime_error);
}

TEST(Continuous, DistributedModeIsDeterministicAndReconverges) {
  topo::CanonicalTree topology(tree_config());
  driver::ContinuousConfig cfg = small_config();
  cfg.mode = "distributed";
  cfg.epochs = 3;
  driver::ContinuousEngine a(topology, cfg);
  driver::ContinuousEngine b(topology, cfg);
  const driver::SteadyStateReport ra = a.run();
  const driver::SteadyStateReport rb = b.run();

  EXPECT_EQ(ra.trace_hash, rb.trace_hash);
  EXPECT_EQ(ra.mode, "distributed");
  for (const driver::EpochReport& er : ra.epochs) {
    EXPECT_LE(er.cost_after, er.cost_before + 1e-9);
    EXPECT_GE(er.rounds, 1u);
  }
  EXPECT_GT(ra.total_migrated_mb(), 0.0);
}

// reoptimize() builds the runtime's config from the engine, the round budget
// and the three distributed-mode settings, leaving every other runtime
// setting at its default: a direct run with the same settings is the same run.
TEST(Continuous, DistributedReoptimizeMatchesADirectRuntimeRun) {
  topo::CanonicalTree topology(tree_config());
  const core::CostModel model(
      topology, core::LinkWeights::exponential(topology.max_level()));
  util::Rng rng(41);
  const traffic::TrafficMatrix tm = testing::random_tm(64, 3.0, rng);
  const core::Allocation initial =
      testing::random_allocation(topology, 64, rng);
  constexpr std::size_t kRounds = 3;
  for (const char* policy : {"round-robin", "highest-level-first"}) {
    for (const double loss : {0.0, 0.05}) {
      for (const double budget_mb : {0.0, 1000.0}) {
        driver::OptimizerConfig cfg;
        cfg.mode = "distributed";
        cfg.engine.migration_cost = 1.0;
        cfg.token_policy = policy;
        cfg.message_loss_rate = loss;
        cfg.migration_budget_mb = budget_mb;
        core::Allocation via_seam = initial;
        const driver::ConvergenceReport got =
            driver::reoptimize(model, via_seam, tm, cfg, kRounds);

        hypervisor::RuntimeConfig rcfg;
        rcfg.policy = policy;
        rcfg.engine.migration_cost = 1.0;
        rcfg.iterations = kRounds;
        rcfg.message_loss_rate = loss;
        rcfg.migration_budget_mb = budget_mb;
        core::Allocation direct = initial;
        const hypervisor::RuntimeResult want =
            hypervisor::DistributedScoreRuntime(model, direct, tm, rcfg).run();

        const std::string run = std::string(policy) + " loss " +
                                std::to_string(loss) + " budget " +
                                std::to_string(budget_mb);
        // Each setting reaches the run: losses happen, the budget binds.
        EXPECT_EQ(want.messages_lost > 0, loss > 0.0) << run;
        EXPECT_EQ(want.budget_rejected > 0, budget_mb > 0.0) << run;
        EXPECT_GT(want.total_migrations, 0u) << run;
        EXPECT_EQ(got.trace_hash, want.trace_hash) << run;
        EXPECT_EQ(got.final_cost, want.final_cost) << run;
        EXPECT_EQ(got.migrations, want.total_migrations) << run;
        EXPECT_EQ(got.migrated_mb, want.migrated_mb) << run;
      }
    }
  }
}

TEST(Continuous, OverfullWorldRejectsArrivalsButKeepsRunning) {
  topo::CanonicalTree topology(tree_config());  // 32 hosts
  driver::ContinuousConfig cfg = small_config();
  // 1 slot per host: at most 32 of the 96 world VMs ever fit.
  cfg.server_capacity.vm_slots = 1;
  cfg.server_capacity.ram_mb = 256.0;
  cfg.server_capacity.cpu_cores = 1.0;
  cfg.arrival_prob = 0.9;
  driver::ContinuousEngine engine(topology, cfg);
  const driver::SteadyStateReport report = engine.run();

  std::size_t rejected = 0;
  for (const driver::EpochReport& er : report.epochs) {
    EXPECT_LE(er.active_vms, 32u);
    rejected += er.rejected_vms;
  }
  EXPECT_GT(rejected, 0u) << "capacity pressure should reject some tenants";
}

// The fresh reference is the Eq. (2) total of the re-optimised placement,
// recomputed. It used to be ScoreSimulation's running Lemma-3 sum, which
// cancelled to -1.76e-08 on epoch 0 of this world: the one
// `score_cli --mode continuous --vms 64 --epochs 3` builds.
TEST(Continuous, FreshReferenceIsANonNegativeEq2Total) {
  topo::CanonicalTreeConfig tree;
  tree.racks = 32;
  tree.hosts_per_rack = 5;
  tree.racks_per_pod = 4;
  tree.cores = 4;
  topo::CanonicalTree topology(tree);
  driver::ContinuousConfig cfg;
  cfg.generator.num_vms = 64;
  cfg.generator.seed = 42;
  cfg.dynamics.seed = 43;
  cfg.intensity_scale = traffic::intensity_scale(traffic::Intensity::kSparse);
  cfg.epochs = 3;
  cfg.server_capacity.vm_slots = 4;
  cfg.server_capacity.ram_mb = 4 * 256.0;
  cfg.server_capacity.cpu_cores = 4.0;
  cfg.iterations_per_epoch = 8;
  driver::ContinuousEngine engine(topology, cfg);
  const driver::SteadyStateReport report = engine.run();
  ASSERT_EQ(report.epochs.size(), 3u);
  for (const driver::EpochReport& er : report.epochs) {
    EXPECT_GE(er.fresh_cost, 0.0) << "epoch " << er.epoch;
  }
}

TEST(Continuous, InvalidConfigThrows) {
  topo::CanonicalTree topology(tree_config());
  driver::ContinuousConfig cfg = small_config();
  cfg.mode = "sideways";
  EXPECT_THROW(driver::ContinuousEngine(topology, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.epochs = 0;
  EXPECT_THROW(driver::ContinuousEngine(topology, cfg), std::invalid_argument);
  // A zero round budget ran one round in some drivers and none in others;
  // it is rejected in both modes, naming the field.
  using Budget = std::size_t driver::ContinuousConfig::*;
  const std::pair<const char*, Budget> budgets[] = {
      {"iterations_per_epoch", &driver::ContinuousConfig::iterations_per_epoch},
      {"reopt_iterations", &driver::ContinuousConfig::reopt_iterations},
  };
  for (const auto& [field, member] : budgets) {
    for (const char* mode : {"centralized", "distributed"}) {
      cfg = small_config();
      cfg.mode = mode;
      cfg.*member = 0;
      try {
        driver::ContinuousEngine engine(topology, cfg);
        ADD_FAILURE() << field << " 0 accepted in " << mode << " mode";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace score
