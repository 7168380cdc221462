// Distributed S-CORE control plane — the paper's §V implementation, run as
// message-passing dom0 agents over a pluggable fabric.
//
// Each host runs a Dom0Agent ("a token listening server runs on a known port
// in dom0 of each hypervisor") holding only its local VM set and a local view
// of traffic (its datapath byte counters). When the token arrives for a
// hosted VM, the agent — acting on the VM's behalf, since virtualization is
// transparent — executes the full §V-B pipeline using only locally
// obtainable information (see hypervisor/agent.hpp for the pipeline and the
// seams the agent runs behind).
//
// The runtime is the composition root: it owns the event queue and fabric
// (sim::Network), the authoritative world (SimHypervisor), the convergence
// ledger (RunControl), and the placement-manager roles — token injection,
// the retransmission watchdog, and host churn with drains. It is also the
// in-process agents' AgentEnv: their sends go straight onto sim::Network and
// are counted into RuntimeResult. The agents themselves live behind the
// AgentExecutor seam:
//   * by default a LocalAgentExecutor runs every Dom0Agent in-process;
//   * a RemoteAgentExecutor (remote_executor.hpp) dispatches each delivery
//     as a framed task to score_agent daemon processes over loopback
//     sockets and replays their reported actions — same event order, same
//     trace hash, different process boundary.
//
// The token travels as the framed wire format of hypervisor/token_codec:
// besides the per-VM entries it carries the allocation epoch (committed
// migrations so far), its ring position (holds since injection) and the
// aggregate committed Lemma-3 delta — so the token itself is the run's
// convergence telemetry, with no global observer in the loop.
//
// Failure model. Every control message is subject to independent loss and
// hosts may leave/join (churn schedule). Three recovery mechanisms compose:
//   * probe timeout — a holder whose location/capacity probes go unanswered
//     retransmits them (kProbeRetries times, kProbeTimeoutS apart, see
//     agent.hpp) and then decides from the responses it has (possibly
//     migrating nowhere);
//   * token retransmission — the placement manager (which injected the
//     token, §V-A) watches hold progress and re-injects its last token
//     snapshot at the holder's *current* host when no hold completes within
//     the retransmission timeout;
//   * drain on leave — a departing host's VMs are live-migrated to feasible
//     hosts by the placement manager before its agent detaches.
//
// Determinism seam. The run is single-threaded over the event queue and all
// randomness (loss, pre-copy dirty rates) is seeded, so a fixed config
// reproduces the exact message sequence. Every send is folded into
// RuntimeResult::trace_hash (and recorded verbatim when record_trace is on),
// giving tests and benches a one-word equality check over the full wire
// trace.
//
// The runtime owns ground truth (allocation, traffic matrix) only to play the
// roles of the physical world: the datapath byte counters, the fabric
// (message delivery + migration transfer time), and the placement manager's
// VM directory. Every *decision* input travels through messages; a test
// verifies the agent never reads non-local state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/migration_engine.hpp"
#include "driver/convergence.hpp"
#include "hypervisor/communicator.hpp"
#include "hypervisor/ipam.hpp"
#include "hypervisor/run_control.hpp"
#include "sim/network.hpp"
#include "traffic/traffic_matrix.hpp"

namespace score::hypervisor {

class AgentExecutor;
struct AgentConfig;

/// One scheduled membership change. A leaving host is drained (its VMs
/// live-migrated to feasible hosts) and its agent detached; a joining host
/// re-attaches and becomes a migration target again.
struct ChurnEvent {
  double time_s = 0.0;
  topo::HostId host = 0;
  bool leave = true;  ///< true = leave, false = (re)join
};

/// The settings of a run. The fabric latencies (sim/network.hpp), the agents'
/// measurement window, decision time and probe timeout/retry budget
/// (agent.hpp) and the pre-copy model (hypervisor.hpp) are constants.
struct RuntimeConfig {
  std::string policy = "round-robin";  ///< "round-robin" or "highest-level-first"
  core::EngineConfig engine;           ///< c_m
  std::size_t iterations = 5;          ///< token-round budget, >= 1
  bool stop_when_stable = true;
  /// Migration-cost budget: total modeled pre-copy MB the run may put on the
  /// wire (0 = unlimited). A Theorem-1-positive decision whose modeled
  /// transfer would overrun the remaining budget is rejected and counted.
  /// Churn drains also draw down the total (they are real transfers) but are
  /// never gated — evacuation is mandatory, the budget prices optional
  /// optimization moves.
  double migration_budget_mb = 0.0;

  // ---- failure model --------------------------------------------------------
  /// Independent drop probability for every control message (token, probes,
  /// responses), in [0, 1).
  double message_loss_rate = 0.0;
  std::uint64_t loss_seed = 9;
  /// Token retransmission timeout: the placement manager re-injects its last
  /// token snapshot (at the holder's current host) when no hold completes for
  /// this long. Must be > 0 and should exceed the longest legal hold
  /// (decision + probe timeouts + one migration transfer).
  double retransmit_timeout_s = 5.0;
  /// Host membership changes, applied at their scheduled simulated times.
  std::vector<ChurnEvent> churn;

  // ---- determinism seam -----------------------------------------------------
  /// Record the full wire trace in RuntimeResult::trace (trace_hash is always
  /// computed; the verbatim trace costs memory proportional to messages).
  bool record_trace = false;

  /// Throws std::invalid_argument naming the field unless the run can start
  /// on a topology of `num_hosts` hosts: a known policy, an engine that
  /// passes EngineConfig::validate, iterations >= 1, a finite budget >= 0, a
  /// loss rate in [0, 1), a finite timeout > 0, and churn events at finite
  /// times >= 0 on existing hosts. DistributedScoreRuntime checks it at
  /// construction; score_scheduler and score_agent check it before they
  /// wait on a peer.
  void validate(std::size_t num_hosts) const;
};

/// One observed control-plane send, in send order (the determinism seam).
struct TraceEntry {
  double time_s = 0.0;
  std::uint8_t type = 0;  ///< CtrlMsg
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t bytes = 0;
  /// FNV-1a over the payload bytes — computed only when record_trace is on
  /// (payload hashing is the expensive part of observing a paper-scale run);
  /// 0 otherwise.
  std::uint64_t payload_hash = 0;
  bool lost = false;

  bool operator==(const TraceEntry&) const = default;
};

struct RuntimeResult {
  double initial_cost = 0.0;
  double final_cost = 0.0;
  std::size_t total_migrations = 0;
  double duration_s = 0.0;
  std::vector<driver::IterationStats> iterations;

  // Control-plane footprint (the overhead the paper argues is small).
  std::uint64_t token_messages = 0;
  std::uint64_t token_bytes = 0;
  std::uint64_t location_messages = 0;  ///< requests + responses
  std::uint64_t capacity_messages = 0;  ///< requests + responses
  std::uint64_t control_bytes = 0;
  std::uint64_t messages_lost = 0;       ///< dropped by fault injection
  std::uint64_t token_reinjections = 0;  ///< retransmission-timeout recoveries
  std::uint64_t probe_retransmits = 0;   ///< unanswered probes re-sent
  std::uint64_t probe_timeouts = 0;      ///< decisions completed on partial info

  // Token telemetry at run end (carried on the wire, not observed globally).
  std::uint32_t final_epoch = 0;     ///< committed migrations per the token
  std::uint32_t final_ring_pos = 0;  ///< holds per the token
  double aggregate_delta = 0.0;      ///< Σ committed Lemma-3 deltas

  // Live-migration accounting (pre-copy model).
  double migrated_mb = 0.0;
  double migration_time_s = 0.0;     ///< Σ modeled transfer times
  std::uint64_t budget_rejected = 0; ///< Theorem-1 wins rejected by the budget

  // Churn accounting.
  std::uint64_t evacuations = 0;  ///< VMs drained off leaving hosts

  // Determinism seam.
  /// FNV-1a over every send in order (structural fields always; payload
  /// bytes folded in when config.record_trace is on).
  std::uint64_t trace_hash = 0;
  std::vector<TraceEntry> trace;   ///< populated when config.record_trace

  double reduction() const {
    return initial_cost > 0.0 ? 1.0 - final_cost / initial_cost : 0.0;
  }

  /// Number of completed token-passing rounds.
  std::size_t rounds() const { return iterations.size(); }

  /// Summarize into the mode-independent convergence report shared with the
  /// centralized drivers.
  driver::ConvergenceReport report() const;
};

class DistributedScoreRuntime {
 public:
  /// `alloc` is mutated as agents migrate VMs; `tm` provides the ground-truth
  /// byte counters the simulated datapath reports. Agents run in-process
  /// behind a LocalAgentExecutor.
  DistributedScoreRuntime(const core::CostModel& model, core::Allocation& alloc,
                          const traffic::TrafficMatrix& tm,
                          RuntimeConfig config = {});

  /// Run the agents behind a caller-supplied executor (e.g. a
  /// RemoteAgentExecutor dispatching to score_agent daemons). `executor`
  /// must outlive the runtime.
  DistributedScoreRuntime(const core::CostModel& model, core::Allocation& alloc,
                          const traffic::TrafficMatrix& tm,
                          RuntimeConfig config, AgentExecutor& executor);
  ~DistributedScoreRuntime();

  DistributedScoreRuntime(const DistributedScoreRuntime&) = delete;
  DistributedScoreRuntime& operator=(const DistributedScoreRuntime&) = delete;

  RuntimeResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The settings an agent derives from a runtime config — the same mapping
/// builds the in-process agents and every score_agent daemon replica.
AgentConfig agent_config_of(const RuntimeConfig& config);

/// FNV-1a fingerprint over everything that determines a run's behavior:
/// topology shape, capacities, VM specs and placement, traffic matrix, and
/// every RuntimeConfig field but record_trace. The scheduler and every
/// score_agent daemon build their worlds independently from CLI flags; equal
/// fingerprints are the handshake precondition for a multi-process run.
std::uint64_t world_fingerprint(const core::CostModel& model,
                                const core::Allocation& alloc,
                                const traffic::TrafficMatrix& tm,
                                const RuntimeConfig& config);

}  // namespace score::hypervisor
