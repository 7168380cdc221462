// Differential gates over the continuous engine: on the same churned epoch
// sequence, (a) every centralized ExecPolicy must produce bit-identical
// per-epoch results (the multi-token determinism contract, now exercised
// under lifecycle churn), and (b) the message-passing distributed runtime at
// zero loss must match the centralized per-epoch cost — per epoch, not just
// at the end, so a transient divergence cannot hide behind later recovery.
#include <gtest/gtest.h>

#include "driver/continuous.hpp"
#include "topology/canonical_tree.hpp"
#include "util/exec_policy.hpp"

namespace score {
namespace {

driver::ContinuousConfig churn_config() {
  driver::ContinuousConfig cfg;
  cfg.generator.num_vms = 128;
  cfg.generator.seed = 21;
  cfg.dynamics.seed = 22;
  cfg.epochs = 4;
  cfg.tenant_vms = 8;
  cfg.initial_active_fraction = 0.7;
  cfg.arrival_prob = 0.3;
  cfg.departure_prob = 0.15;
  cfg.lifecycle_seed = 23;
  cfg.server_capacity.vm_slots = 4;
  cfg.server_capacity.ram_mb = 4 * 256.0;
  cfg.server_capacity.cpu_cores = 4.0;
  // Enough rounds that both modes re-converge within every epoch.
  cfg.iterations_per_epoch = 6;
  return cfg;
}

topo::CanonicalTreeConfig tree_config() {
  topo::CanonicalTreeConfig cfg;
  cfg.racks = 8;
  cfg.hosts_per_rack = 6;
  cfg.racks_per_pod = 2;
  cfg.cores = 2;
  return cfg;
}

TEST(ContinuousDifferential, SeqAndParPoliciesAreBitIdenticalPerEpoch) {
  topo::CanonicalTree topology(tree_config());
  driver::ContinuousConfig cfg = churn_config();
  cfg.tokens = 4;

  cfg.exec = util::ExecPolicy::seq();
  driver::ContinuousEngine seq_engine(topology, cfg);
  const driver::SteadyStateReport seq = seq_engine.run();

  for (const std::size_t threads : {1u, 2u, 4u}) {
    cfg.exec = util::ExecPolicy::par(threads);
    driver::ContinuousEngine par_engine(topology, cfg);
    const driver::SteadyStateReport par = par_engine.run();

    EXPECT_EQ(par.trace_hash, seq.trace_hash) << "par(" << threads << ")";
    EXPECT_EQ(par.world.timeline, seq.world.timeline);
    ASSERT_EQ(par.epochs.size(), seq.epochs.size());
    for (std::size_t k = 0; k < seq.epochs.size(); ++k) {
      EXPECT_EQ(par.epochs[k].cost_after, seq.epochs[k].cost_after)
          << "par(" << threads << ") epoch " << k;
      EXPECT_EQ(par.epochs[k].migrations, seq.epochs[k].migrations)
          << "par(" << threads << ") epoch " << k;
      EXPECT_EQ(par.epochs[k].changes, seq.epochs[k].changes)
          << "par(" << threads << ") epoch " << k;
    }
  }
}

TEST(ContinuousDifferential, DistributedZeroLossMatchesCentralizedPerEpoch) {
  topo::CanonicalTree topology(tree_config());
  driver::ContinuousConfig cfg = churn_config();

  cfg.mode = "centralized";
  driver::ContinuousEngine central_engine(topology, cfg);
  const driver::SteadyStateReport central = central_engine.run();

  cfg.mode = "distributed";
  cfg.message_loss_rate = 0.0;
  driver::ContinuousEngine dist_engine(topology, cfg);
  const driver::SteadyStateReport dist = dist_engine.run();

  // The lifecycle stream is sampled from the same seeds in both runs.
  EXPECT_EQ(dist.world.timeline, central.world.timeline);

  ASSERT_EQ(dist.epochs.size(), central.epochs.size());
  for (std::size_t k = 0; k < central.epochs.size(); ++k) {
    const driver::EpochReport& c = central.epochs[k];
    const driver::EpochReport& d = dist.epochs[k];
    EXPECT_EQ(d.active_vms, c.active_vms) << "epoch " << k;
    ASSERT_GT(c.cost_after, 0.0);
    const double ratio = d.cost_after / c.cost_after;
    // Per-epoch cost-parity gate: the dom0 agents, deciding from probes and
    // flow-table measurements only, must land within 1% of the shared-memory
    // loop *every* epoch (cf. the bench suite's end-of-run gate).
    EXPECT_NEAR(ratio, 1.0, 0.01) << "epoch " << k << ": distributed "
                                  << d.cost_after << " vs centralized "
                                  << c.cost_after;
  }
}

}  // namespace
}  // namespace score
