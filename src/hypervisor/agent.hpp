// Dom0Agent — the per-host S-CORE agent (§V-B pipeline), extracted from the
// distributed runtime so the identical decision logic runs in-process (over
// the simulated fabric) or inside a score_agent daemon (over the socket
// control plane).
//
// The agent sees the world only through two seams:
//   * AgentEnv — what its own hypervisor measures (a read-only
//     SimHypervisor), its one world mutation (live migration), the fabric
//     (now / send / send_after / arm_probe_timer) and the placement
//     manager's run control (hold completion with the token header, run
//     stop, probe statistics);
//   * AgentConfig — the settings of the run (c_m and the token policy); the
//     measurement window, decision time and probe timeout/retry budget are
//     the constants below, one value per deployment as in §V.
// It holds no reference to the event queue, the network, or the runtime:
// everything it does is a deterministic function of delivered messages,
// fired timers and the world visible through its env. That is the property
// the multi-process control plane relies on — a daemon-side agent replaying
// the same deliveries against a replica world makes the same decisions.
//
// Per-hold state is flat. The pending decision holds the token frame (taken
// from the delivered message by move, validated on every hop) and a few
// scalars. The measured peers and the candidates above c_m live in agent
// vectors that each hold clears and refills, next to a warm probe-order
// builder, so a warm agent allocates nothing per hold but its message
// payloads. Peers are sorted by address and found by binary search,
// candidates (at most core::kMaxCandidates) by a scan; a probe response
// naming a peer or host that was never probed is ignored, like a stale one.
//
// AgentExecutor is the dispatch seam above the agents: the runtime hands it
// message deliveries, fired probe timers and host-churn notifications.
// LocalAgentExecutor calls resident Dom0Agents directly; the remote executor
// (remote_executor.hpp) frames each delivery as a task for the owning
// score_agent process and replays the resulting actions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/migration_engine.hpp"
#include "hypervisor/communicator.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/token_codec.hpp"
#include "sim/network.hpp"

namespace score::hypervisor {

/// Flow-statistics averaging window (§V-B.3).
inline constexpr double kMeasurementWindowS = 60.0;
/// dom0 processing time per token hold.
inline constexpr double kDecisionTimeS = 0.01;
/// Per-decision probe timeout: a holder missing location/capacity responses
/// after this long retransmits the unanswered probes.
inline constexpr double kProbeTimeoutS = 1.0;
/// Probe retransmissions per decision stage before the holder decides on the
/// responses it has.
inline constexpr std::size_t kProbeRetries = 2;

/// Settings shared by every agent of a run.
struct AgentConfig {
  core::EngineConfig engine;  ///< c_m
  bool use_hlf = false;       ///< token forwarding policy
};

/// Everything an agent may touch outside its own state. The runtime
/// implements it over the simulated world and fabric; a score_agent daemon
/// records every call as a TaskAction for the scheduler to replay.
class AgentEnv {
 public:
  virtual ~AgentEnv() = default;

  // ---- the hypervisor the agent stands on -----------------------------------
  /// Every world read: directory, capacities, datapath counters, liveness.
  virtual const SimHypervisor& hv() const = 0;
  /// The agent's one world mutation (SimHypervisor::migrate).
  virtual MigrateStatus migrate(core::VmId vm, topo::HostId target,
                                MigrationOutcome* outcome) = 0;

  // ---- the control-plane fabric ---------------------------------------------
  /// Current control-plane time (simulated seconds).
  virtual double now() const = 0;
  /// Send a framed control message into the fabric.
  virtual void send(CtrlMsg type, topo::HostId from, topo::HostId to,
                    std::vector<std::uint8_t> payload) = 0;
  /// Send after a local busy period (decision time + migration transfer) —
  /// the delayed token hand-off that the watchdog must not mistake for loss.
  virtual void send_after(double delay, CtrlMsg type, topo::HostId from,
                          topo::HostId to,
                          std::vector<std::uint8_t> payload) = 0;
  /// Arm a probe-stage timeout for `host`'s agent. Timers are data, not
  /// closures: the (nonce, stage) pair serializes across the process
  /// boundary and discriminates stale timers (the guard lives in the agent).
  virtual void arm_probe_timer(topo::HostId host, double delay,
                               std::uint32_t nonce, int stage) = 0;

  // ---- placement-manager run control ----------------------------------------
  virtual bool stopped() const = 0;
  /// Hold finished, with the holding agent's view of the token header (the
  /// run's telemetry: the last hold's header is the final one). Returns
  /// false when the run is over (token not forwarded).
  virtual bool hold_complete(bool migrated, std::uint32_t epoch,
                             std::uint32_t ring_pos,
                             double aggregate_delta) = 0;
  virtual void stop_run() = 0;
  virtual void note_probe_retransmits(std::size_t count) = 0;
  virtual void note_probe_timeout() = 0;
};

class Dom0Agent {
 public:
  /// Probe stages of one decision; each stage arms its own timeout.
  enum Stage { kLocations = 0, kCapacities = 1 };

  void bind(AgentEnv* env, const AgentConfig* cfg, topo::HostId host) {
    env_ = env;
    cfg_ = cfg;
    host_ = host;
  }

  void on_message(const sim::Message& msg);
  /// A probe-stage timeout fired; (nonce, stage) discriminate stale timers.
  void on_probe_timer(std::uint32_t nonce, int stage);
  /// Host churn: drop the in-flight decision.
  void reset() { pending_.reset(); }

 private:
  struct CapInfo {
    std::size_t free_slots = 0;
    double free_ram_mb = 0.0;
    double free_cpu = 0.0;
    double free_net_bps = 0.0;
  };

  /// One peer of the holder, filled in stage by stage.
  struct Peer {
    Ipv4 vm = 0;
    double rate = 0.0;         ///< measured λ(z,u) (TM rate units)
    std::optional<Ipv4> dom0;  ///< its location response
    topo::HostId host = 0;     ///< host of `dom0`, once every peer answered
    double own_prefix = 0.0;   ///< its Lemma-3 term for the holder's host
  };

  /// One candidate whose Lemma-3 delta exceeds c_m: the only hosts probed
  /// for capacity, since Theorem 1 cannot pass anywhere else.
  struct Candidate {
    Ipv4 dom0 = 0;
    double delta = 0.0;
    std::optional<CapInfo> cap;  ///< its capacity response
  };

  struct PendingDecision {
    PendingDecision(TokenFrame held, std::uint32_t attempt)
        : token(std::move(held)), nonce(attempt) {}

    TokenFrame token;         ///< the frame being held, edited in place
    std::uint32_t nonce = 0;  ///< discriminates probe responses across
                              ///< restarted decision attempts (watchdog)
    Stage stage = kLocations;
    std::size_t retries_left = 0;  ///< probe retransmissions, current stage
    std::size_t awaiting_locations = 0;
    std::size_t awaiting_capacities = 0;
  };

  void on_token(const sim::Message& msg);
  void send_location_probes();
  void send_capacity_probes();
  void arm_probe_timer(Stage stage);
  void on_locations_complete();
  void on_capacities_complete();
  void finish_hold(bool migrated, double migration_time_s);

  AgentEnv* env_ = nullptr;
  const AgentConfig* cfg_ = nullptr;
  topo::HostId host_ = 0;
  std::optional<PendingDecision> pending_;
  std::uint32_t next_nonce_ = 1;
  // The pending decision's buffers, refilled by every hold.
  std::vector<Peer> peers_;            ///< ascending by address
  std::vector<Candidate> candidates_;  ///< in probe order
  core::CandidateBuilder probe_order_;
};

class RunControl;

/// What an agent executor may reach inside the runtime.
class RuntimeCore {
 public:
  virtual ~RuntimeCore() = default;
  virtual AgentEnv& env() = 0;
  virtual const AgentConfig& agent_config() const = 0;
  virtual SimHypervisor& sim_hypervisor() = 0;
  /// The convergence ledger, read-only (the remote executor cross-checks
  /// replica hold/migration counts against it at shutdown).
  virtual const RunControl& run_control() const = 0;
  /// The runtime's event queue. An executor that defers work (the remote
  /// executor pipelines stateless probe deliveries) schedules its drain at
  /// the current timestamp so replayed effects keep their virtual time.
  virtual sim::EventQueue& event_queue() = 0;
  /// An executor that can lose agents mid-run (the remote executor with a
  /// reconnect acceptor) calls this at start so the runtime retains the
  /// token snapshot the failover watchdog re-injects from. No-op for
  /// executors that cannot fail.
  virtual void enable_failover_recovery() = 0;
  /// A daemon's hosts were redistributed and its undelivered decision state
  /// discarded — if the token was inside it, it is gone. Arms the token
  /// watchdog (idempotently) so a quiescent run gets the token re-injected
  /// instead of draining silently.
  virtual void notify_failover() = 0;
};

/// Dispatch seam between the runtime (fabric, timers, churn) and the agents.
class AgentExecutor {
 public:
  virtual ~AgentExecutor() = default;
  virtual void start(RuntimeCore& core) = 0;
  virtual void deliver(const sim::Message& msg) = 0;
  virtual void fire_probe_timer(topo::HostId host, std::uint32_t nonce,
                                int stage) = 0;
  virtual void host_left(topo::HostId host) = 0;
  virtual void host_joined(topo::HostId host) = 0;
  /// Run over: release agent resources (remote: shut daemons down and
  /// cross-check replica state).
  virtual void finish() = 0;
};

/// All agents resident in this process, called directly.
class LocalAgentExecutor final : public AgentExecutor {
 public:
  void start(RuntimeCore& core) override;
  void deliver(const sim::Message& msg) override {
    agents_.at(msg.dst).on_message(msg);
  }
  void fire_probe_timer(topo::HostId host, std::uint32_t nonce,
                        int stage) override {
    agents_.at(host).on_probe_timer(nonce, stage);
  }
  void host_left(topo::HostId host) override { agents_.at(host).reset(); }
  void host_joined(topo::HostId) override {}
  void finish() override {}

 private:
  std::vector<Dom0Agent> agents_;
};

}  // namespace score::hypervisor
