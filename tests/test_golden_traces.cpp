// Golden-trace regression suite: canonical continuous-operation and
// streaming runs are rendered to a stable text form (timeline, per-epoch net
// migration logs, per-trigger re-optimisation outcomes, costs at 6
// significant digits or, for the ×50 cases, as exact bits, structural trace
// hash) and compared byte for byte
// against the expectations committed under tests/golden/. Any behavioural
// drift — an extra migration, a reordered event, a cost shift — fails here
// even when the aggregate cost gates would still pass.
//
// To intentionally re-bless after a behaviour-changing commit:
//   tools/regen_golden.sh <build-dir>      (sets SCORE_REGEN_GOLDEN=1)
// then review the diff of tests/golden/ like any other code change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/scenario_io.hpp"
#include "driver/continuous.hpp"
#include "driver/streaming.hpp"
#include "helpers.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "topology/canonical_tree.hpp"
#include "topology/fat_tree.hpp"

#ifdef SCORE_AGENT_BIN
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <vector>

#include "hypervisor/remote_executor.hpp"
#include "hypervisor/wire.hpp"
#include "util/socket.hpp"
#include "world_builder.hpp"
#endif

namespace score {
namespace {

std::string golden_dir() { return SCORE_GOLDEN_DIR; }

bool regen_requested() {
  const char* env = std::getenv("SCORE_REGEN_GOLDEN");
  return env != nullptr && std::string(env) == "1";
}

std::string fmt6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string hex16(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A double's exact IEEE-754 bits, for cases where 6 significant digits
/// would hide a last-ulp change.
std::string bits(double v) { return hex16(std::bit_cast<std::uint64_t>(v)); }

using Format = std::string (*)(double);

/// Canonical rendering: every byte is either integer-derived (timeline,
/// migration logs, counters, trace hash) or a cost printed by `fmt`.
std::string render(const std::string& name,
                   const driver::SteadyStateReport& report,
                   Format fmt = fmt6) {
  std::ostringstream out;
  out << "score-golden v1\n";
  out << "case " << name << "\n";
  out << "mode " << report.mode << "\n";
  out << "timeline " << report.world.timeline.size() << "\n";
  for (const core::TimelineEvent& ev : report.world.timeline) {
    out << ev.epoch << ' '
        << (ev.kind == core::TimelineEventKind::kArrive ? "arrive" : "depart")
        << ' ' << ev.first_vm << ' ' << ev.count << "\n";
  }
  out << "epochs " << report.epochs.size() << "\n";
  for (const driver::EpochReport& er : report.epochs) {
    out << "epoch " << er.epoch << " active " << er.active_vms << " arrived "
        << er.arrived_vms << " departed " << er.departed_vms << " rejected "
        << er.rejected_vms << " migrations " << er.migrations << " rounds "
        << er.rounds << "\n";
    out << "  cost_before " << fmt(er.cost_before) << " cost_after "
        << fmt(er.cost_after) << " fresh " << fmt(er.fresh_cost) << "\n";
    out << "  moves " << er.changes.size() << "\n";
    for (const driver::PlacementChange& mv : er.changes) {
      out << "  " << mv.world_vm << ' ' << mv.from << " -> " << mv.to << "\n";
    }
  }
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(report.trace_hash));
  out << "trace_hash " << hash << "\n";
  return out.str();
}

void check_or_regen(const std::string& name, const std::string& actual) {
  const std::string path = golden_dir() + "/" + name + ".golden";
  if (regen_requested()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    std::cout << "[ REBLESS ] " << path << " (" << actual.size() << " bytes)\n";
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run tools/regen_golden.sh to create it";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected == actual) return;

  // Byte-level drift: report the first diverging line for a usable message.
  std::istringstream ea(expected), aa(actual);
  std::string el, al;
  std::size_t line = 1;
  while (true) {
    const bool eg = static_cast<bool>(std::getline(ea, el));
    const bool ag = static_cast<bool>(std::getline(aa, al));
    if (!eg && !ag) break;
    if (!eg || !ag || el != al) {
      FAIL() << name << ": golden trace drift at line " << line
             << "\n  expected: " << (eg ? el : std::string("<eof>"))
             << "\n  actual:   " << (ag ? al : std::string("<eof>"))
             << "\nIf this change is intentional, re-bless with "
                "tools/regen_golden.sh and commit the tests/golden/ diff.";
    }
    ++line;
  }
  FAIL() << name << ": golden trace drift (same lines, different bytes — "
            "line-ending change?)";
}

/// Streaming rendering: only fields fixed by the seeds. Queue depths and
/// fold/trigger latencies depend on thread timing and are left out.
std::string render(const std::string& name,
                   const driver::StreamingReport& report,
                   Format fmt = fmt6) {
  std::ostringstream out;
  out << "score-golden v1\n";
  out << "case " << name << "\n";
  out << "triggers " << report.reopts.size() << "\n";
  for (const driver::ReoptEvent& ev : report.reopts) {
    out << "tick " << ev.tick << " drift " << fmt(ev.drift) << " migrations "
        << ev.migrations << " rounds " << ev.rounds << "\n";
    out << "  cost_before " << fmt(ev.cost_before) << " cost_after "
        << fmt(ev.cost_after) << " fresh " << fmt(ev.fresh_cost) << "\n";
  }
  out << "final_cost " << fmt(report.final_cost) << " deltas_applied "
      << report.deltas_applied << " deltas_folded " << report.deltas_folded
      << " rebuilds " << report.cache_rebuilds << "\n";
  return out.str();
}

topo::CanonicalTreeConfig canonical_config() {
  topo::CanonicalTreeConfig tcfg;
  tcfg.racks = 8;
  tcfg.hosts_per_rack = 4;
  tcfg.racks_per_pod = 2;
  tcfg.cores = 2;
  return tcfg;
}

driver::ContinuousConfig base_config() {
  driver::ContinuousConfig cfg;
  cfg.generator.num_vms = 64;
  cfg.generator.seed = 2014;
  cfg.dynamics.seed = 99;
  cfg.epochs = 4;
  cfg.tenant_vms = 8;
  cfg.initial_active_fraction = 0.7;
  cfg.arrival_prob = 0.4;
  cfg.departure_prob = 0.25;
  cfg.lifecycle_seed = 77;
  cfg.server_capacity.vm_slots = 4;
  cfg.server_capacity.ram_mb = 4 * 256.0;
  cfg.server_capacity.cpu_cores = 4.0;
  cfg.iterations_per_epoch = 4;
  return cfg;
}

TEST(GoldenTraces, CanonicalTreeCentralizedRoundRobin) {
  topo::CanonicalTree topology(canonical_config());
  driver::ContinuousEngine engine(topology, base_config());
  check_or_regen("canonical-centralized-rr", render("canonical-centralized-rr",
                                                    engine.run()));
}

TEST(GoldenTraces, CanonicalTreeCentralizedMultiToken) {
  topo::CanonicalTree topology(canonical_config());
  driver::ContinuousConfig cfg = base_config();
  cfg.tokens = 4;  // multi-token driver; results are ExecPolicy-invariant
  driver::ContinuousEngine engine(topology, cfg);
  check_or_regen("canonical-centralized-tokens4",
                 render("canonical-centralized-tokens4", engine.run()));
}

// The paper's dense workload (×50). Every rate the epoch compaction writes
// is scaled, so the costs are rendered as exact bits: a last-ulp change in
// how the scaled matrix is built fails here.
TEST(GoldenTraces, CanonicalTreeCentralizedDense) {
  topo::CanonicalTree topology(canonical_config());
  driver::ContinuousConfig cfg = base_config();
  cfg.intensity_scale = 50.0;
  driver::ContinuousEngine engine(topology, cfg);
  check_or_regen("canonical-centralized-x50",
                 render("canonical-centralized-x50", engine.run(), bits));
}

TEST(GoldenTraces, FatTreeDistributedZeroLoss) {
  topo::FatTree topology(topo::FatTreeConfig{.k = 4});
  driver::ContinuousConfig cfg = base_config();
  cfg.generator.num_vms = 48;  // k=4 fat tree: 16 hosts x 4 slots
  cfg.mode = "distributed";
  cfg.epochs = 3;
  driver::ContinuousEngine engine(topology, cfg);
  check_or_regen("fattree-distributed-loss0",
                 render("fattree-distributed-loss0", engine.run()));
}

driver::StreamingConfig streaming_config() {
  driver::StreamingConfig cfg;
  cfg.generator.num_vms = 64;
  cfg.generator.seed = 2014;
  cfg.server_capacity.vm_slots = 4;
  cfg.server_capacity.ram_mb = 4 * 256.0;
  cfg.server_capacity.cpu_cores = 4.0;
  cfg.placement_seed = 77;
  cfg.events.events_per_tick = 96;
  cfg.events.seed = 99;
  cfg.ticks = 12;
  cfg.drift_threshold = 0.05;
  cfg.tokens = 4;
  cfg.iterations_per_reopt = 4;
  cfg.fresh_reference = true;
  return cfg;
}

TEST(GoldenTraces, StreamingCentralizedMultiToken) {
  topo::CanonicalTree topology(canonical_config());
  driver::StreamingEngine engine(topology, streaming_config());
  check_or_regen("streaming-centralized-tokens4",
                 render("streaming-centralized-tokens4", engine.run()));
}

// Streaming on the ×50 matrix, with every cost and drift as exact bits.
TEST(GoldenTraces, StreamingCentralizedDense) {
  topo::CanonicalTree topology(canonical_config());
  driver::StreamingConfig cfg = streaming_config();
  cfg.intensity_scale = 50.0;
  driver::StreamingEngine engine(topology, cfg);
  check_or_regen("streaming-centralized-x50",
                 render("streaming-centralized-x50", engine.run(), bits));
}

TEST(GoldenTraces, StreamingDistributed) {
  topo::CanonicalTree topology(canonical_config());
  driver::StreamingConfig cfg = streaming_config();
  cfg.mode = "distributed";
  driver::StreamingEngine engine(topology, cfg);
  check_or_regen("streaming-distributed",
                 render("streaming-distributed", engine.run()));
}

/// Distributed-runtime rendering: the telemetry the token itself carries
/// (epoch, ring position, the exact bits of the aggregate delta), the
/// recovery counters and the trace hash. The cases below run with
/// record_trace on, so the hash also folds in every payload's bytes: a
/// single token byte changing on any hop moves it.
std::string render(const std::string& name,
                   const hypervisor::RuntimeResult& r) {
  std::ostringstream out;
  out << "score-golden v1\n";
  out << "case " << name << "\n";
  out << "rounds " << r.rounds() << " migrations " << r.total_migrations
      << " evacuations " << r.evacuations << "\n";
  out << "final_epoch " << r.final_epoch << " final_ring_pos "
      << r.final_ring_pos << "\n";
  out << "aggregate_delta_bits " << bits(r.aggregate_delta) << "\n";
  out << "token_messages " << r.token_messages << " token_bytes "
      << r.token_bytes << " control_bytes " << r.control_bytes << "\n";
  out << "messages_lost " << r.messages_lost << " token_reinjections "
      << r.token_reinjections << " probe_retransmits " << r.probe_retransmits
      << " probe_timeouts " << r.probe_timeouts << "\n";
  out << "initial_cost " << fmt6(r.initial_cost) << " final_cost "
      << fmt6(r.final_cost) << "\n";
  out << "trace_hash " << hex16(r.trace_hash) << "\n";
  return out.str();
}

TEST(GoldenTraces, DistributedHighestLevelFirst) {
  topo::CanonicalTree topology(canonical_config());
  const core::CostModel model(topology, core::LinkWeights::exponential(3));
  util::Rng rng(2014);
  const traffic::TrafficMatrix tm = testing::random_tm(48, 3.0, rng);
  core::Allocation alloc = testing::random_allocation(topology, 48, rng);

  hypervisor::RuntimeConfig cfg;
  cfg.policy = "highest-level-first";
  cfg.iterations = 4;
  cfg.record_trace = true;
  const hypervisor::RuntimeResult r =
      hypervisor::DistributedScoreRuntime(model, alloc, tm, cfg).run();
  ASSERT_TRUE(alloc.check_consistency());
  check_or_regen("distributed-hlf", render("distributed-hlf", r));
}

/// Decisions only: per-round migrations and end-of-round cost, the token's
/// telemetry and the final cost, every cost as exact bits. No message or
/// byte count, duration or trace hash, so the case pins what the agents
/// decide and not how many messages they send to decide it.
std::string render_decisions(const std::string& name,
                             const hypervisor::RuntimeResult& r) {
  std::ostringstream out;
  out << "score-golden v1\n";
  out << "case " << name << "\n";
  out << "rounds " << r.rounds() << "\n";
  for (std::size_t i = 0; i < r.iterations.size(); ++i) {
    out << "round " << i << " migrations " << r.iterations[i].migrations
        << " cost_at_end " << bits(r.iterations[i].cost_at_end) << "\n";
  }
  out << "final_epoch " << r.final_epoch << " final_ring_pos "
      << r.final_ring_pos << "\n";
  out << "aggregate_delta_bits " << bits(r.aggregate_delta) << "\n";
  out << "final_cost_bits " << bits(r.final_cost) << "\n";
  return out.str();
}

// Round-Robin at loss 0 without churn, run until a round commits nothing.
TEST(GoldenTraces, DistributedRoundRobinZeroLoss) {
  topo::CanonicalTree topology(canonical_config());
  const core::CostModel model(topology, core::LinkWeights::exponential(3));
  util::Rng rng(4242);
  const traffic::TrafficMatrix tm = testing::random_tm(56, 3.0, rng);
  core::Allocation alloc = testing::random_allocation(topology, 56, rng);

  hypervisor::RuntimeConfig cfg;
  cfg.iterations = 50;
  const hypervisor::RuntimeResult r =
      hypervisor::DistributedScoreRuntime(model, alloc, tm, cfg).run();
  ASSERT_TRUE(alloc.check_consistency());
  ASSERT_LT(r.rounds(), cfg.iterations);
  ASSERT_EQ(r.iterations.back().migrations, 0u);
  check_or_regen("distributed-rr-loss0",
                 render_decisions("distributed-rr-loss0", r));
}

// Round-Robin under message loss and host churn. Two slots per host and 58
// VMs leave six free slots, so when hosts 3, 9, 20 and 28 leave the drains
// run out of targets and two VMs stay stranded on host 28 until it rejoins:
// holders forward the token past them. Lost tokens are re-injected by the
// watchdog. Host 25 leaves and rejoins while the token addressed to it waits
// out a migration transfer, so the token lands on a host that no longer holds
// its VM and the agent there redirects it.
TEST(GoldenTraces, DistributedRoundRobinLossAndChurn) {
  topo::CanonicalTree topology(canonical_config());
  const core::CostModel model(topology, core::LinkWeights::exponential(3));
  util::Rng rng(77);
  const traffic::TrafficMatrix tm = testing::random_tm(58, 3.0, rng);
  core::Allocation alloc =
      testing::random_allocation(topology, 58, rng, /*slots_per_server=*/2);

  hypervisor::RuntimeConfig cfg;
  cfg.iterations = 4;
  cfg.stop_when_stable = false;
  cfg.message_loss_rate = 0.05;
  cfg.retransmit_timeout_s = 2.0;
  cfg.record_trace = true;
  cfg.churn = {{0.3, 3, true},    {0.6, 9, true},    {0.9, 20, true},
               {1.0, 28, true},   {60.0, 28, false}, {60.5, 20, false},
               {61.0, 9, false},  {61.5, 3, false},  {67.0, 25, true},
               {67.5, 25, false}};
  const hypervisor::RuntimeResult r =
      hypervisor::DistributedScoreRuntime(model, alloc, tm, cfg).run();
  ASSERT_TRUE(alloc.check_consistency());
  check_or_regen("distributed-rr-loss-churn",
                 render("distributed-rr-loss-churn", r));
}

#ifdef SCORE_AGENT_BIN
// Multi-process control plane: a scheduler (this test) drives two real
// score_agent daemons over a loopback socket and the task-protocol byte
// stream is summarized per frame type plus a rolling hash over every frame
// (direction, agent, seq, type, length, payload FNV). Any protocol drift —
// an extra sync, a reordered action, a changed encoding — moves wire_fnv
// even when the convergence result is unchanged.
TEST(GoldenTraces, ControlPlaneWireTrace) {
  const std::vector<std::string> world_args = {"--topology", "fattree", "--k",
                                               "4", "--vms", "48",
                                               "--iterations", "2"};
  const std::string path =
      "/tmp/score_golden_" + std::to_string(getpid()) + ".sock";
  util::ServerSocket server = util::ServerSocket::listen("unix:" + path);

  std::vector<pid_t> pids;
  for (int i = 0; i < 2; ++i) {
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      std::vector<std::string> argv_s = {SCORE_AGENT_BIN, "--connect",
                                         server.address(), "--connect-timeout",
                                         "30"};
      argv_s.insert(argv_s.end(), world_args.begin(), world_args.end());
      std::vector<char*> argv;
      for (std::string& s : argv_s) argv.push_back(s.data());
      argv.push_back(nullptr);
      execv(SCORE_AGENT_BIN, argv.data());
      _exit(127);
    }
    pids.push_back(pid);
  }

  std::vector<util::Socket> agents;
  agents.push_back(server.accept());
  agents.push_back(server.accept());

  util::Flags flags;
  tools::register_world_flags(flags);
  std::vector<const char*> argv = {"test_golden_traces"};
  for (const std::string& a : world_args) argv.push_back(a.c_str());
  ASSERT_TRUE(flags.parse(static_cast<int>(argv.size()), argv.data()));
  tools::World w = tools::build_world(flags);

  hypervisor::RemoteAgentExecutor executor(std::move(agents), w.fingerprint);
  // Per-type frame statistics + one rolling FNV over every record.
  struct TypeStat {
    std::uint64_t to_count = 0, to_bytes = 0, from_count = 0, from_bytes = 0;
  };
  TypeStat stats[10];
  std::uint64_t wire_fnv = hypervisor::wire::fnv1a_bytes({});
  std::uint64_t frames = 0;
  executor.set_wire_tap(
      [&](const hypervisor::RemoteAgentExecutor::WireRecord& r) {
        TypeStat& s = stats[static_cast<int>(r.type)];
        (r.to_agent ? s.to_count : s.from_count) += 1;
        (r.to_agent ? s.to_bytes : s.from_bytes) += r.bytes;
        ++frames;
        wire_fnv = hypervisor::wire::fnv1a(wire_fnv, r.to_agent ? 1 : 0);
        wire_fnv = hypervisor::wire::fnv1a(wire_fnv, r.agent);
        wire_fnv = hypervisor::wire::fnv1a(wire_fnv, r.seq);
        wire_fnv = hypervisor::wire::fnv1a(
            wire_fnv, static_cast<std::uint64_t>(r.type));
        wire_fnv = hypervisor::wire::fnv1a(wire_fnv, r.bytes);
        wire_fnv = hypervisor::wire::fnv1a(wire_fnv, r.payload_fnv);
      });

  hypervisor::DistributedScoreRuntime runtime(*w.model, *w.alloc, *w.tm,
                                              w.runtime, executor);
  const hypervisor::RuntimeResult result = runtime.run();
  for (const pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  static const char* kTypeNames[10] = {"?",        "hello",  "init",
                                       "deliver",  "timer",  "apply",
                                       "shutdown", "result", "final",
                                       "adopt"};
  std::ostringstream out;
  out << "score-golden v1\n";
  out << "case control-plane-wire\n";
  out << "world fattree-k4 vms 48 iterations 2 agents 2\n";
  out << "frames " << frames << "\n";
  for (int t = 1; t <= 9; ++t) {
    out << "type " << kTypeNames[t] << " to " << stats[t].to_count << ' '
        << stats[t].to_bytes << " from " << stats[t].from_count << ' '
        << stats[t].from_bytes << "\n";
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(wire_fnv));
  out << "wire_fnv " << hex << "\n";
  out << "final_cost " << fmt6(result.final_cost) << " migrations "
      << result.total_migrations << "\n";
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(result.trace_hash));
  out << "trace_hash " << hex << "\n";
  check_or_regen("control-plane-wire", out.str());
}
#endif  // SCORE_AGENT_BIN

// The exported v2 world snapshot is part of the golden contract too: it is
// the replay seed for the runs above, so format drift must be deliberate.
TEST(GoldenTraces, WorldSnapshotV2Dump) {
  topo::CanonicalTree topology(canonical_config());
  driver::ContinuousEngine engine(topology, base_config());
  const driver::SteadyStateReport report = engine.run();
  std::ostringstream dump;
  core::save_scenario_v2(dump, report.world);
  check_or_regen("canonical-world-v2", dump.str());
}

}  // namespace
}  // namespace score
