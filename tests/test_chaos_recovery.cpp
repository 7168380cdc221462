// Daemon crash/reconnect chaos: daemons die mid-run — abruptly (_Exit before
// sending a result) or by scheduler-side connection kill — and the run must
// recover: resume a reconnecting daemon from its log cursor, resync a fresh
// respawn with the whole action log, or redistribute a dead daemon's hosts
// to a survivor after the grace expires.
//
// The acceptance gate: killing one of four daemons at the canonical
// paper-scale world (128 racks, 2560 slots, 1024 VMs) must still complete
// within 1% of the fault-free final cost.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos_harness.hpp"

namespace {

using namespace score;
using chaos::ChaosOptions;
using chaos::ChaosRun;

// ---- the acceptance gate ---------------------------------------------------

TEST(ChaosRecovery, KillOneDaemonAtCanonicalScaleWithinOnePercent) {
  // 128 racks x 5 hosts x 4 slots = 2560 slots, 1024 VMs, 4 agents. Agent 2
  // crashes abruptly (exit 17, result unsent) after 500 tasks and never
  // comes back; after the grace its 160 hosts are adopted by a survivor.
  const std::vector<std::string> args = {"--racks", "128", "--vms", "1024",
                                         "--iterations", "2"};
  const ChaosRun ref = chaos::run_inprocess(args);

  ChaosOptions opts;
  opts.config.reconnect_grace_s = 2.0;
  opts.config.result_timeout_s = 30.0;
  opts.agent_extra.resize(4);
  opts.agent_extra[2] = {"--crash-after-tasks", "500", "--reconnect-retries",
                         "0"};
  const ChaosRun run = chaos::run_chaos(args, 4, "gate", opts);

  // Within 1% of the fault-free final cost — the adopted agents restart
  // without their in-flight decisions, so bit-identity is not expected, but
  // the decision loop must still converge to an equivalent allocation.
  EXPECT_NEAR(run.result.final_cost, ref.result.final_cost,
              0.01 * ref.result.final_cost);
  EXPECT_LT(run.result.final_cost, 0.5 * run.result.initial_cost)
      << "run died early instead of converging";
  EXPECT_GE(run.stats.redistributions + run.stats.reconnects, 1u);

  // The crashed daemon exits 17 by design; every survivor serves to kFinal.
  ASSERT_EQ(run.agent_exit_codes.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(run.agent_exit_codes[i], 0) << "agent " << i;
  }
}

// ---- scheduler-forced disconnect: daemon state survives, run is identical --

TEST(ChaosRecovery, ForcedDisconnectResumesBitIdentical) {
  // The scheduler severs agent 1's connection after its 40th task. The
  // daemon process survives with its replica intact, reconnects, resumes at
  // its cursor — and the run is bit-identical to the undisturbed one.
  const std::vector<std::string> args = {"--vms", "96", "--iterations", "2"};
  const ChaosRun ref = chaos::run_inprocess(args);

  ChaosOptions opts;
  opts.config.kill_agent = 1;
  opts.config.kill_after_tasks = 40;
  opts.config.reconnect_grace_s = 30.0;
  opts.agent_extra.resize(2);
  opts.agent_extra[1] = {"--reconnect-retries", "5", "--reconnect-backoff",
                         "0.1"};
  const ChaosRun run = chaos::run_chaos(args, 2, "forced", opts);

  EXPECT_EQ(run.result.trace_hash, ref.result.trace_hash);
  EXPECT_EQ(run.result.final_cost, ref.result.final_cost);
  EXPECT_EQ(run.final_servers, ref.final_servers);
  EXPECT_EQ(run.stats.forced_kills, 1u);
  EXPECT_GE(run.stats.reconnects, 1u);
  for (std::size_t i = 0; i < run.agent_exit_codes.size(); ++i) {
    EXPECT_EQ(run.agent_exit_codes[i], 0) << "agent " << i;
  }
}

TEST(ChaosRecovery, ForcedDisconnectUnderFaultyTransport) {
  // Compose the adversaries: a forced mid-run disconnect while every frame
  // also runs the corrupt/duplicate/reorder gauntlet. Still bit-identical.
  const std::vector<std::string> args = {"--vms", "64", "--iterations", "2"};
  const ChaosRun ref = chaos::run_inprocess(args);

  ChaosOptions opts;
  opts.config.fault_seed = 99;
  opts.config.kill_agent = 0;
  opts.config.kill_after_tasks = 30;
  opts.config.reconnect_grace_s = 30.0;
  opts.agent_extra.resize(2);
  opts.agent_extra[0] = {"--reconnect-retries", "5", "--reconnect-backoff",
                         "0.1"};
  const ChaosRun run = chaos::run_chaos(args, 2, "forcedfaulty", opts);

  EXPECT_EQ(run.result.trace_hash, ref.result.trace_hash);
  EXPECT_EQ(run.result.final_cost, ref.result.final_cost);
  EXPECT_EQ(run.stats.forced_kills, 1u);
}

// ---- crash + fresh respawn: full-log resync --------------------------------

TEST(ChaosRecovery, CrashedDaemonRespawnsAndResyncs) {
  // Agent 1 crashes abruptly mid-run; the acceptor spawns a replacement,
  // which says kHello fresh (cursor 0) and is resynced by replaying the
  // whole action log. The committed state is rebuilt exactly (the kFinal
  // cross-check inside finish() enforces it); only undelivered in-flight
  // decision state is lost, so the cost gate is 1%, not bit-identity.
  const std::vector<std::string> args = {"--vms", "96", "--iterations", "2"};
  const ChaosRun ref = chaos::run_inprocess(args);

  ChaosOptions opts;
  opts.config.reconnect_grace_s = 30.0;
  opts.config.result_timeout_s = 30.0;
  opts.respawn_one = true;
  opts.agent_extra.resize(2);
  opts.agent_extra[1] = {"--crash-after-tasks", "40", "--reconnect-retries",
                         "0"};
  const ChaosRun run = chaos::run_chaos(args, 2, "respawn", opts);

  EXPECT_NEAR(run.result.final_cost, ref.result.final_cost,
              0.01 * ref.result.final_cost);
  EXPECT_GE(run.stats.reconnects, 1u);
  EXPECT_GE(run.stats.full_resyncs, 1u);
  // Spawn order: agent 0, agent 1 (crashes, exit 17), the replacement.
  ASSERT_EQ(run.agent_exit_codes.size(), 3u);
  EXPECT_EQ(run.agent_exit_codes[0], 0);
  EXPECT_EQ(run.agent_exit_codes[1], 17);
  EXPECT_EQ(run.agent_exit_codes[2], 0);
}

// ---- grace expiry: redistribution to a survivor ----------------------------

TEST(ChaosRecovery, GraceExpiryRedistributesToSurvivor) {
  const std::vector<std::string> args = {"--vms", "96", "--iterations", "2"};
  const ChaosRun ref = chaos::run_inprocess(args);

  ChaosOptions opts;
  opts.config.reconnect_grace_s = 1.0;
  opts.config.result_timeout_s = 30.0;
  opts.agent_extra.resize(2);
  opts.agent_extra[1] = {"--crash-after-tasks", "40", "--reconnect-retries",
                         "0"};
  const ChaosRun run = chaos::run_chaos(args, 2, "redistribute", opts);

  EXPECT_NEAR(run.result.final_cost, ref.result.final_cost,
              0.01 * ref.result.final_cost);
  EXPECT_EQ(run.stats.redistributions, 1u);
  ASSERT_EQ(run.agent_exit_codes.size(), 2u);
  EXPECT_EQ(run.agent_exit_codes[0], 0);  // the survivor adopted everything
  EXPECT_EQ(run.agent_exit_codes[1], 17);
}

// ---- no acceptor: a lost daemon is loudly fatal ----------------------------

TEST(ChaosRecovery, WithoutAcceptorDaemonLossIsFatal) {
  const std::vector<std::string> args = {"--vms", "64", "--iterations", "2"};
  ChaosOptions opts;
  opts.acceptor = false;
  opts.config.result_timeout_s = 10.0;
  opts.agent_extra.resize(2);
  opts.agent_extra[1] = {"--crash-after-tasks", "30", "--reconnect-retries",
                         "0"};
  EXPECT_THROW(chaos::run_chaos(args, 2, "fatal", opts), std::exception);
}

}  // namespace
