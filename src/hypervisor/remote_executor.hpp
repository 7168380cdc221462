// RemoteAgentExecutor — the scheduler side of the multi-process control
// plane: an AgentExecutor that frames every fabric delivery / probe-timer
// firing as a task for the score_agent daemon owning the destination host,
// and replays the daemon's reported actions into the authoritative runtime.
//
// The scheduler keeps virtual time, the fabric (loss RNG, latencies, trace
// hash) and the authoritative world; daemons keep the agent decision state
// over world replicas. Mutating tasks block until their result frame is
// replayed — inside the same event-queue callback an in-process agent would
// have run in — so the schedule the runtime sees is identical to the
// LocalAgentExecutor's, and so is the wire trace hash. Stateless probe
// requests (location/capacity) are *pipelined*: sent without waiting, with a
// drain event scheduled at the same virtual timestamp so every result is
// replayed before time advances — slow or recovering daemons overlap instead
// of serialising, and the replay order (hence the trace) is unchanged.
//
// Transport: each connection is wrapped in a ReliableLink (checksums,
// acks, bounded-backoff retransmission), optionally over a seeded
// FaultyTransport adversary (config.fault_seed != 0) that drops, duplicates,
// corrupts, truncates, reorders and delays frames. The link absorbs every
// injected fault, so faulty runs are bit-identical to fault-free ones.
//
// Replica sync and recovery: state-mutating actions (holds, migrations,
// budget rejects, stop, churn) form a global log in commit order; each
// daemon's queued suffix is flushed as one kApply before its next task. When
// a daemon goes silent (LinkDown or result timeout), the executor parks its
// hosts and waits up to reconnect_grace_s on the ReconnectAcceptor: a
// reconnecting daemon reports its log cursor in kHello and is resynced with
// exactly the missed suffix (a fresh respawn replays the whole log), then
// the in-flight task is re-sent — the daemon's reply cache makes that
// at-most-once. If the grace expires, the dead daemon's host ranges are
// redistributed to a survivor via kAdopt and the run continues.
//
// finish() shuts every surviving daemon down and cross-checks its kFinal
// summary (final cost, migrated MB, hold/migration counts) against the
// authoritative state — replica drift is a thrown error, never a silent
// wrong answer.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "hypervisor/agent.hpp"
#include "hypervisor/task_codec.hpp"
#include "util/reliable_link.hpp"
#include "util/socket.hpp"
#include "util/transport.hpp"

namespace score::hypervisor {

struct RemoteExecutorConfig {
  util::LinkConfig link;  ///< per-connection ARQ parameters
  /// Seed for the adversarial transport; 0 leaves the transport clean.
  std::uint64_t fault_seed = 0;
  util::FaultProfile fault_profile = util::FaultProfile::chaos(0.05);
  double hello_timeout_s = 30.0;
  /// Silence on an awaited result before the daemon is declared dead.
  double result_timeout_s = 60.0;
  /// How long a dead daemon's hosts stay parked awaiting a reconnect before
  /// they are redistributed to a survivor.
  double reconnect_grace_s = 10.0;
  /// Chaos hook: sever kill_agent's connection (scheduler-side close) right
  /// after its Nth task was sent. 0 disables.
  std::size_t kill_after_tasks = 0;
  std::uint32_t kill_agent = 0;
};

/// Fault-tolerance counters, aggregated across the run (link/fault counters
/// are folded in at finish and whenever a connection is replaced).
struct RecoveryStats {
  std::uint64_t reconnects = 0;        ///< accepted resumed/fresh connections
  std::uint64_t full_resyncs = 0;      ///< log-suffix replays (behind/fresh)
  std::uint64_t resumes_in_place = 0;  ///< cursor matched, no resync needed
  std::uint64_t resumes_ahead = 0;     ///< daemon answered from reply cache
  std::uint64_t redistributions = 0;   ///< dead daemons adopted by survivors
  std::uint64_t tasks_resent = 0;
  std::uint64_t forced_kills = 0;
  std::uint64_t pipelined_tasks = 0;
  std::uint64_t max_inflight = 0;
  std::uint64_t link_retransmitted_frames = 0;
  std::uint64_t link_corrupt_dropped = 0;
  std::uint64_t link_duplicates_dropped = 0;
  std::uint64_t faults_injected = 0;
};

/// Accept one reconnecting daemon socket, waiting up to `timeout_s`;
/// nullopt when nothing connected in time. Provided by whoever owns the
/// listening socket (score_scheduler, tests).
using ReconnectAcceptor =
    std::function<std::optional<util::Socket>(double timeout_s)>;

class RemoteAgentExecutor final : public AgentExecutor {
 public:
  /// One observed protocol frame, for wire traces (golden tests, CI
  /// artifacts). Records application frames only — link-layer
  /// retransmissions and acks are invisible here, which is why a faulty
  /// run's tap matches a fault-free one. `payload_fnv` is FNV-1a over the
  /// encoded frame bytes.
  struct WireRecord {
    bool to_agent = false;  ///< direction: scheduler -> agent?
    std::uint32_t agent = 0;
    TaskType type = TaskType::kHello;
    std::uint32_t seq = 0;
    std::uint32_t bytes = 0;
    std::uint64_t payload_fnv = 0;
  };
  using WireTap = std::function<void(const WireRecord&)>;

  /// `sockets` are accepted daemon connections (one per agent, already
  /// connected, handshake not yet read); `fingerprint` is the scheduler's
  /// world fingerprint every daemon must match.
  RemoteAgentExecutor(std::vector<util::Socket> sockets,
                      std::uint64_t fingerprint);
  RemoteAgentExecutor(std::vector<util::Socket> sockets,
                      std::uint64_t fingerprint, RemoteExecutorConfig config);

  void set_wire_tap(WireTap tap) { tap_ = std::move(tap); }
  /// Without an acceptor, a lost daemon is fatal (the pre-recovery
  /// behaviour); with one, recovery and redistribution engage.
  void set_reconnect_acceptor(ReconnectAcceptor acceptor) {
    acceptor_ = std::move(acceptor);
  }
  const RecoveryStats& recovery_stats() const { return stats_; }

  // ---- AgentExecutor --------------------------------------------------------
  void start(RuntimeCore& core) override;
  void deliver(const sim::Message& msg) override;
  void fire_probe_timer(topo::HostId host, std::uint32_t nonce,
                        int stage) override;
  void host_left(topo::HostId host) override;
  void host_joined(topo::HostId host) override;
  void finish() override;

 private:
  /// One daemon connection: the transport stack (socket -> optional
  /// adversary -> reliable link) plus the scheduler's book-keeping for it.
  struct Channel {
    util::Socket socket;
    std::unique_ptr<util::SocketTransport> base;
    std::unique_ptr<util::FaultyTransport> faulty;
    std::unique_ptr<util::ReliableLink> link;
    /// Owned [begin, end) host ranges: the primary assignment plus adopted.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    /// Mutating actions this daemon has not incorporated yet — always the
    /// action-log suffix starting at `synced`.
    std::vector<TaskAction> pending;
    /// Results that overtook the one being awaited (a task redistributed
    /// onto this daemon queues behind its own pipelined window entries, so
    /// their answers arrive first), parked until their own drain turn.
    std::map<std::uint32_t, TaskFrame> stray_results;
    std::uint64_t synced = 0;
    std::uint32_t next_seq = 1;
    std::uint64_t tasks_sent = 0;
    bool alive = true;
  };
  struct InFlight {
    std::uint32_t agent = 0;
    TaskFrame task;
    /// False when the send failed (or the connection was since replaced):
    /// the drain re-dispatches instead of awaiting a result that will never
    /// come.
    bool sent = true;
  };

  void wire_up(Channel& ch);
  void tear_down(Channel& ch);
  void absorb_link_stats(Channel& ch);
  void send_frame(std::uint32_t agent, const TaskFrame& frame);
  TaskFrame read_frame(std::uint32_t agent, double timeout_s);
  /// Read frames until the one answering `seq` arrives, parking results
  /// that overtook it in the channel's stray buffer (and draining that
  /// buffer first).
  TaskFrame await_result(std::uint32_t agent, std::uint32_t seq,
                         double timeout_s);
  void send_init(std::uint32_t agent);
  void flush_pending(std::uint32_t agent);
  void maybe_force_kill(std::uint32_t agent);
  /// Send one task (unless already in flight) and await its typed answer,
  /// recovering or redistributing on failure. Returns the answer and the
  /// agent that actually produced it.
  std::pair<TaskFrame, std::uint32_t> dispatch_and_await(std::uint32_t agent,
                                                         TaskFrame task,
                                                         TaskType expected,
                                                         bool already_sent);
  /// Reconnect flow for a dead channel; returns the agent the in-flight
  /// task should be (re-)sent to — `agent` itself after a resume, a
  /// survivor after redistribution.
  std::uint32_t recover(std::uint32_t agent, TaskFrame& task,
                        std::optional<std::uint64_t>& expect_mutating);
  std::uint32_t redistribute(std::uint32_t dead, TaskFrame& task);
  /// Replay a result's actions into the authoritative world and queue the
  /// mutating ones (appending them to the global log) for every other
  /// daemon.
  void replay(const TaskFrame& result, std::uint32_t agent);
  /// Send one mutating task and replay its result before returning.
  void round_trip(std::uint32_t agent, TaskFrame task);
  /// Await + replay every pipelined probe task, in send order.
  void drain_window();
  std::uint32_t agent_of_host(topo::HostId host) const;
  void queue_churn(TaskActionKind kind, topo::HostId host);

  std::uint64_t fingerprint_;
  RemoteExecutorConfig config_;
  WireTap tap_;
  ReconnectAcceptor acceptor_;
  RuntimeCore* core_ = nullptr;
  std::vector<Channel> channels_;
  /// Primary (kInit) host range per agent, fixed at start.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> primary_;
  /// Global mutating-action log, in authoritative commit order. Daemons'
  /// resume cursors index into it.
  std::vector<TaskAction> action_log_;
  std::deque<InFlight> window_;
  RecoveryStats stats_;
  std::uint64_t link_generation_ = 0;
  bool drain_scheduled_ = false;
  bool kill_done_ = false;
  bool in_finish_ = false;
  bool finished_ = false;
};

}  // namespace score::hypervisor
