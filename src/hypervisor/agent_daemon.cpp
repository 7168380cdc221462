#include "hypervisor/agent_daemon.hpp"

#include <chrono>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hypervisor/agent.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/run_control.hpp"
#include "hypervisor/task_codec.hpp"
#include "hypervisor/task_handler.hpp"

namespace score::hypervisor {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("agent_daemon: " + what);
}

/// Replica hypervisor that records every migration attempt as a TaskAction.
/// Reads pass straight through; migrate() applies to the replica first (the
/// RNG draw and the budget check must happen here, where the decision is
/// made) and records the outcome for the scheduler to replay.
class RecordingHypervisor final : public Hypervisor {
 public:
  RecordingHypervisor(SimHypervisor& inner, std::vector<TaskAction>& actions)
      : inner_(&inner), actions_(&actions) {}

  const topo::Topology& topology() const override { return inner_->topology(); }
  const core::LinkWeights& weights() const override {
    return inner_->weights();
  }
  const Ipam& ipam() const override { return inner_->ipam(); }
  const core::VmSpec& vm_spec(core::VmId vm) const override {
    return inner_->vm_spec(vm);
  }
  HostCapacity host_capacity(topo::HostId host) const override {
    return inner_->host_capacity(host);
  }
  bool can_host(topo::HostId host, const core::VmSpec& spec) const override {
    return inner_->can_host(host, spec);
  }
  traffic::NeighborView datapath_rates(core::VmId vm) const override {
    return inner_->datapath_rates(vm);
  }
  bool host_up(topo::HostId host) const override {
    return inner_->host_up(host);
  }
  MigrateStatus migrate(core::VmId vm, topo::HostId target,
                        MigrationOutcome* outcome) override {
    const MigrateStatus status = inner_->migrate(vm, target, outcome);
    TaskAction a;
    if (status == MigrateStatus::kCommitted) {
      a.kind = TaskActionKind::kMigration;
      a.vm = vm;
      a.target = target;
    } else {
      a.kind = TaskActionKind::kBudgetReject;
      a.vm = vm;
    }
    actions_->push_back(std::move(a));
    return status;
  }

 private:
  SimHypervisor* inner_;
  std::vector<TaskAction>* actions_;
};

/// The agent environment inside a daemon: the fabric is a recorder (sends
/// and timer arms become TaskActions), the hypervisor is the recording
/// replica, and the run-control callbacks both record and advance the local
/// RunControl replica.
class RecordingEnv final : public AgentEnv, public Communicator {
 public:
  RecordingEnv(SimHypervisor& hv, RunControl& run_ctl)
      : rec_hv_(hv, actions_), run_ctl_(&run_ctl) {}

  void set_now(double t) { now_ = t; }
  std::vector<TaskAction> take_actions() { return std::exchange(actions_, {}); }

  // ---- Communicator ---------------------------------------------------------
  double now() const override { return now_; }
  void send(CtrlMsg type, topo::HostId from, topo::HostId to,
            std::vector<std::uint8_t> payload) override {
    record_send(0.0, type, from, to, std::move(payload));
  }
  void send_after(double delay, CtrlMsg type, topo::HostId from,
                  topo::HostId to, std::vector<std::uint8_t> payload) override {
    record_send(delay, type, from, to, std::move(payload));
  }
  void arm_probe_timer(topo::HostId host, double delay, std::uint32_t nonce,
                       int stage) override {
    TaskAction a;
    a.kind = TaskActionKind::kArmTimer;
    a.host = host;
    a.delay_s = delay;
    a.nonce = nonce;
    a.stage = static_cast<std::uint8_t>(stage);
    actions_.push_back(std::move(a));
  }

  // ---- AgentEnv -------------------------------------------------------------
  Hypervisor& hv() override { return rec_hv_; }
  Communicator& comm() override { return *this; }
  bool stopped() const override { return run_ctl_->stopped(); }
  bool hold_complete(bool migrated) override {
    TaskAction a;
    a.kind = TaskActionKind::kHold;
    a.migrated = migrated;
    a.epoch = staged_epoch_;
    a.ring_pos = staged_ring_pos_;
    a.aggregate_delta = staged_delta_;
    actions_.push_back(std::move(a));
    return run_ctl_->hold_complete(migrated, now_);
  }
  void stop_run() override {
    TaskAction a;
    a.kind = TaskActionKind::kStopRun;
    actions_.push_back(std::move(a));
    run_ctl_->stop(now_);
  }
  void token_telemetry(std::uint32_t epoch, std::uint32_t ring_pos,
                       double aggregate_delta) override {
    // Staged rather than recorded: the agent always reports telemetry
    // immediately before the matching hold_complete, so the kHold action
    // carries it — one action instead of two, same replay order.
    staged_epoch_ = epoch;
    staged_ring_pos_ = ring_pos;
    staged_delta_ = aggregate_delta;
  }
  void note_probe_retransmits(std::size_t count) override {
    TaskAction a;
    a.kind = TaskActionKind::kProbeRetransmit;
    a.count = static_cast<std::uint32_t>(count);
    actions_.push_back(std::move(a));
  }
  void note_probe_timeout() override {
    TaskAction a;
    a.kind = TaskActionKind::kProbeTimeout;
    actions_.push_back(std::move(a));
  }

 private:
  void record_send(double delay, CtrlMsg type, topo::HostId from,
                   topo::HostId to, std::vector<std::uint8_t> payload) {
    TaskAction a;
    a.kind = TaskActionKind::kSend;
    a.msg_type = static_cast<std::uint8_t>(type);
    a.src = from;
    a.dst = to;
    a.delay_s = delay;
    a.payload = std::move(payload);
    actions_.push_back(std::move(a));
  }

  std::vector<TaskAction> actions_;
  RecordingHypervisor rec_hv_;
  RunControl* run_ctl_;
  double now_ = 0.0;
  std::uint32_t staged_epoch_ = 0;
  std::uint32_t staged_ring_pos_ = 0;
  double staged_delta_ = 0.0;
};

}  // namespace

struct AgentDaemon::Impl {
  AgentConfig agent_cfg;
  SimHypervisor hv;
  RunControl run_ctl;
  RecordingEnv env;
  std::uint64_t fingerprint;

  /// Owned [begin, end) host ranges: the primary assignment from kInit plus
  /// any ranges adopted from dead peers. Agents live in a map keyed by host
  /// so adopted ranges slot in without disturbing existing references.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  std::map<std::uint32_t, Dom0Agent> agents;
  std::uint32_t agent_id = 0;
  bool inited = false;
  bool done = false;
  std::size_t tasks = 0;

  /// Resume cursor: how far through the global mutating-action log this
  /// replica has advanced (own mutating results + every kApply action).
  std::uint64_t log_pos = 0;
  /// At-most-once guard: the last result, replayed verbatim when the
  /// scheduler re-delivers the same task seq after a reconnect.
  std::uint32_t cached_seq = 0;
  TaskFrame cached_result;

  std::size_t crash_after_tasks = 0;

  Impl(const core::CostModel& model, core::Allocation& alloc,
       const traffic::TrafficMatrix& tm, const RuntimeConfig& config)
      : agent_cfg(agent_config_of(config)),
        hv(model, alloc, tm, config.migration_budget_mb),
        run_ctl(model, alloc, tm, config.iterations, config.stop_when_stable),
        env(hv, run_ctl),
        fingerprint(world_fingerprint(model, alloc, tm, config)) {}

  Dom0Agent& owned_agent(std::uint32_t host) {
    if (!inited) fail("task before kInit");
    auto it = agents.find(host);
    if (it == agents.end()) fail("task for host outside the owned range");
    return it->second;
  }

  /// Take ownership of [begin, end): create and bind one fresh agent per
  /// host. An exact repeat of an owned range is a no-op (the scheduler
  /// re-sends the assignment when resyncing a reconnection); a partial
  /// overlap is a protocol violation.
  void add_range(std::uint32_t begin, std::uint32_t end) {
    if (end > hv.topology().num_hosts()) {
      fail("host range exceeds the topology");
    }
    for (const auto& [b, e] : ranges) {
      if (begin == b && end == e) return;
      if (begin < e && b < end) fail("host range overlaps an owned range");
    }
    ranges.emplace_back(begin, end);
    for (std::uint32_t h = begin; h < end; ++h) {
      agents[h].bind(&env, &agent_cfg, h);
    }
  }

  void on_init(const TaskFrame& frame) {
    if (frame.fingerprint != fingerprint) {
      fail("world fingerprint mismatch — scheduler and agent built "
           "different worlds (check that every flag matches)");
    }
    if (inited) {
      // Resync after a reconnect: the assignment must be unchanged.
      if (frame.agent_id != agent_id || ranges.empty() ||
          frame.host_begin != ranges.front().first ||
          frame.host_end != ranges.front().second) {
        fail("re-init changed the assignment");
      }
      return;
    }
    agent_id = frame.agent_id;
    add_range(frame.host_begin, frame.host_end);
    inited = true;
  }

  void on_adopt(const TaskFrame& frame) {
    if (!inited) fail("kAdopt before kInit");
    add_range(frame.host_begin, frame.host_end);
  }

  /// Replay one effect another agent (or the scheduler's churn schedule)
  /// produced, keeping this replica's allocation, directory, RNG stream and
  /// convergence ledger in lock-step.
  void apply_action(const TaskAction& a, double t) {
    switch (a.kind) {
      case TaskActionKind::kHold:
        run_ctl.hold_complete(a.migrated, t);
        return;
      case TaskActionKind::kMigration:
        if (hv.migrate(a.vm, a.target, nullptr) !=
            Hypervisor::MigrateStatus::kCommitted) {
          fail("replica diverged: applied migration did not commit");
        }
        return;
      case TaskActionKind::kBudgetReject:
        hv.replay_budget_reject(a.vm);
        return;
      case TaskActionKind::kStopRun:
        run_ctl.stop(t);
        return;
      case TaskActionKind::kHostLeave: {
        hv.set_host_up(a.host, false);
        auto it = agents.find(a.host);
        if (it != agents.end()) it->second.reset();
        drain_host(hv, a.host);
        return;
      }
      case TaskActionKind::kHostJoin:
        hv.set_host_up(a.host, true);
        return;
      case TaskActionKind::kSend:
      case TaskActionKind::kArmTimer:
      case TaskActionKind::kProbeRetransmit:
      case TaskActionKind::kProbeTimeout:
        break;  // fabric/telemetry effects live on the scheduler only
    }
    fail("illegal action kind in kApply frame");
  }

  void on_apply(const TaskFrame& frame) {
    env.set_now(frame.time_s);
    for (const TaskAction& a : frame.actions) apply_action(a, frame.time_s);
    // Every kApply action is replica-mutating (apply_action throws
    // otherwise), so the whole frame advances the resume cursor.
    log_pos += frame.actions.size();
  }

  TaskFrame result_frame(std::uint32_t seq) {
    TaskFrame out;
    out.type = TaskType::kResult;
    out.seq = seq;
    out.actions = env.take_actions();
    for (const TaskAction& a : out.actions) {
      if (replica_mutating(a.kind)) ++log_pos;
    }
    ++tasks;
    return out;
  }

  TaskFrame on_deliver(const TaskFrame& frame) {
    env.set_now(frame.time_s);
    sim::Message msg;
    msg.src = frame.src;
    msg.dst = frame.dst;
    msg.type = frame.msg_type;
    msg.payload = frame.payload;
    owned_agent(frame.dst).on_message(msg);
    return result_frame(frame.seq);
  }

  TaskFrame on_timer(const TaskFrame& frame) {
    env.set_now(frame.time_s);
    owned_agent(frame.host).on_probe_timer(frame.nonce, frame.stage);
    return result_frame(frame.seq);
  }

  TaskFrame on_shutdown(const TaskFrame& frame) {
    TaskFrame out;
    out.type = TaskType::kFinal;
    out.seq = frame.seq;
    out.final_cost = hv.model().total_cost(hv.alloc(), hv.tm());
    out.migrated_mb = hv.migrated_mb();
    out.total_migrations = run_ctl.total_migrations();
    out.total_holds = run_ctl.total_holds();
    done = true;
    return out;
  }

  /// Execute one kDeliver/kTimer — or replay the cached result if the
  /// scheduler re-delivered the previous task after a reconnect.
  template <typename Exec>
  void serve_task(util::ReliableLink& link, const TaskFrame& frame,
                  Exec&& exec) {
    if (frame.seq != 0 && frame.seq == cached_seq) {
      link.send(encode_task(cached_result));
      return;
    }
    TaskFrame out = exec(frame);
    cached_seq = frame.seq;
    cached_result = out;
    if (crash_after_tasks != 0 && tasks >= crash_after_tasks) {
      // Chaos hook: die after deciding but before reporting — the scheduler
      // must treat the decision as never having happened.
      std::_Exit(17);
    }
    link.send(encode_task(std::move(out)));
  }
};

AgentDaemon::AgentDaemon(const core::CostModel& model, core::Allocation& alloc,
                         const traffic::TrafficMatrix& tm,
                         const RuntimeConfig& config)
    : impl_(std::make_unique<Impl>(model, alloc, tm, config)) {}

AgentDaemon::~AgentDaemon() = default;

bool AgentDaemon::done() const { return impl_->done; }

void AgentDaemon::set_crash_after_tasks(std::size_t n) {
  impl_->crash_after_tasks = n;
}

std::size_t AgentDaemon::serve(util::ReliableLink& link) {
  Impl& d = *impl_;

  TaskFrame hello;
  hello.type = TaskType::kHello;
  hello.fingerprint = d.fingerprint;
  hello.resuming = d.inited;
  hello.resume_pos = d.inited ? d.log_pos : 0;
  hello.agent_id = d.inited ? d.agent_id : 0;
  link.send(encode_task(hello));

  TaskHandler handler;
  handler.on(TaskType::kInit, [&d](const TaskFrame& f) { d.on_init(f); });
  handler.on(TaskType::kAdopt, [&d](const TaskFrame& f) { d.on_adopt(f); });
  handler.on(TaskType::kApply, [&d](const TaskFrame& f) { d.on_apply(f); });
  handler.on(TaskType::kDeliver, [&d, &link](const TaskFrame& f) {
    d.serve_task(link, f, [&d](const TaskFrame& t) { return d.on_deliver(t); });
  });
  handler.on(TaskType::kTimer, [&d, &link](const TaskFrame& f) {
    d.serve_task(link, f, [&d](const TaskFrame& t) { return d.on_timer(t); });
  });
  handler.on(TaskType::kShutdown, [&d, &link](const TaskFrame& f) {
    link.send(encode_task(d.on_shutdown(f)));
  });

  while (!d.done) {
    std::optional<std::vector<std::uint8_t>> buf = link.recv(-1.0);
    if (!buf) continue;  // recv(-1) only returns frames or throws
    const TaskFrame frame = decode_task(*buf);
    if (!handler.dispatch(frame)) {
      fail("unexpected frame type from the scheduler");
    }
  }

  // Linger until kFinal is acked: exiting on the first send would lose the
  // frame if the adversarial transport dropped it — the retransmission that
  // would repair it lives here.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  try {
    while (!link.all_acked() &&
           std::chrono::steady_clock::now() < deadline) {
      link.recv(0.05);
    }
  } catch (const util::LinkDown&) {
    // Peer went away after shutdown; nothing left to repair.
  }
  return d.tasks;
}

}  // namespace score::hypervisor
