#include "hypervisor/remote_executor.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "hypervisor/hypervisor.hpp"
#include "hypervisor/run_control.hpp"
#include "hypervisor/wire.hpp"
#include "sim/event_queue.hpp"

namespace score::hypervisor {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("remote_executor: " + what);
}

std::chrono::steady_clock::duration to_clock_dur(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

std::uint64_t count_mutating(const std::vector<TaskAction>& actions) {
  std::uint64_t n = 0;
  for (const TaskAction& a : actions) {
    if (replica_mutating(a.kind)) ++n;
  }
  return n;
}

}  // namespace

RemoteAgentExecutor::RemoteAgentExecutor(std::vector<util::Socket> sockets,
                                         std::uint64_t fingerprint)
    : RemoteAgentExecutor(std::move(sockets), fingerprint,
                          RemoteExecutorConfig{}) {}

RemoteAgentExecutor::RemoteAgentExecutor(std::vector<util::Socket> sockets,
                                         std::uint64_t fingerprint,
                                         RemoteExecutorConfig config)
    : fingerprint_(fingerprint), config_(config) {
  if (sockets.empty()) fail("no agent connections");
  channels_.reserve(sockets.size());
  for (util::Socket& s : sockets) {
    Channel ch;
    ch.socket = std::move(s);
    channels_.push_back(std::move(ch));
  }
  // Wire transports only once every Channel sits at its final address: the
  // transport stack holds a pointer to the channel's socket.
  for (Channel& ch : channels_) wire_up(ch);
}

void RemoteAgentExecutor::wire_up(Channel& ch) {
  ch.base = std::make_unique<util::SocketTransport>(ch.socket);
  util::FrameTransport* top = ch.base.get();
  if (config_.fault_seed != 0) {
    // Each connection generation gets its own deterministic fault stream.
    ++link_generation_;
    ch.faulty = std::make_unique<util::FaultyTransport>(
        *ch.base,
        config_.fault_seed + 0x9e3779b97f4a7c15ull * link_generation_,
        config_.fault_profile);
    top = ch.faulty.get();
  } else {
    ch.faulty.reset();
  }
  ch.link = std::make_unique<util::ReliableLink>(*top, config_.link);
}

void RemoteAgentExecutor::tear_down(Channel& ch) {
  absorb_link_stats(ch);
  ch.link.reset();
  ch.faulty.reset();
  ch.base.reset();
  ch.socket.close();
}

void RemoteAgentExecutor::absorb_link_stats(Channel& ch) {
  if (ch.link) {
    const util::LinkStats& ls = ch.link->stats();
    stats_.link_retransmitted_frames += ls.retransmitted_frames;
    stats_.link_corrupt_dropped += ls.corrupt_dropped;
    stats_.link_duplicates_dropped += ls.duplicates_dropped;
  }
  if (ch.faulty) stats_.faults_injected += ch.faulty->stats().injected();
}

void RemoteAgentExecutor::send_frame(std::uint32_t agent,
                                     const TaskFrame& frame) {
  Channel& ch = channels_[agent];
  if (!ch.link) throw util::LinkDown("channel closed");
  const std::vector<std::uint8_t> bytes = encode_task(frame);
  if (tap_) {
    WireRecord rec;
    rec.to_agent = true;
    rec.agent = agent;
    rec.type = frame.type;
    rec.seq = frame.seq;
    rec.bytes = static_cast<std::uint32_t>(bytes.size());
    rec.payload_fnv = wire::fnv1a_bytes(bytes);
    tap_(rec);
  }
  ch.link->send(bytes);
}

TaskFrame RemoteAgentExecutor::read_frame(std::uint32_t agent,
                                          double timeout_s) {
  Channel& ch = channels_[agent];
  if (!ch.link) throw util::LinkDown("channel closed");
  std::optional<std::vector<std::uint8_t>> buf = ch.link->recv(timeout_s);
  if (!buf) {
    throw util::LinkDown("timed out waiting for agent " +
                         std::to_string(agent));
  }
  TaskFrame frame = decode_task(*buf);
  if (tap_) {
    WireRecord rec;
    rec.to_agent = false;
    rec.agent = agent;
    rec.type = frame.type;
    rec.seq = frame.seq;
    rec.bytes = static_cast<std::uint32_t>(buf->size());
    rec.payload_fnv = wire::fnv1a_bytes(*buf);
    tap_(rec);
  }
  return frame;
}

void RemoteAgentExecutor::start(RuntimeCore& core) {
  core_ = &core;
  // With an acceptor installed daemons may be lost and their hosts
  // redistributed mid-run; the runtime must retain the token snapshot the
  // failover watchdog re-injects from.
  if (acceptor_) core.enable_failover_recovery();
  const std::uint32_t num_hosts = core.sim_hypervisor().topology().num_hosts();
  const auto num_agents = static_cast<std::uint32_t>(channels_.size());
  if (num_agents > num_hosts) fail("more agent connections than hosts");

  // Contiguous host ranges, remainder spread over the first agents.
  primary_.clear();
  const std::uint32_t base = num_hosts / num_agents;
  const std::uint32_t extra = num_hosts % num_agents;
  std::uint32_t begin = 0;
  for (std::uint32_t a = 0; a < num_agents; ++a) {
    const std::uint32_t end = begin + base + (a < extra ? 1 : 0);
    primary_.emplace_back(begin, end);
    channels_[a].ranges.assign(1, {begin, end});
    begin = end;
  }

  for (std::uint32_t a = 0; a < num_agents; ++a) {
    TaskFrame hello;
    try {
      hello = read_frame(a, config_.hello_timeout_s);
    } catch (const util::LinkDown& e) {
      fail("no kHello from agent " + std::to_string(a) + " (" + e.what() +
           ")");
    }
    if (hello.type != TaskType::kHello) {
      fail("expected kHello from agent " + std::to_string(a));
    }
    if (hello.resuming) {
      fail("agent " + std::to_string(a) +
           " claims to resume a run that has not started");
    }
    if (hello.fingerprint != fingerprint_) {
      std::ostringstream os;
      os << "world fingerprint mismatch with agent " << a << " (scheduler "
         << std::hex << fingerprint_ << ", agent " << hello.fingerprint
         << ") — both processes must be launched with identical world flags";
      fail(os.str());
    }
    send_init(a);
  }
}

TaskFrame RemoteAgentExecutor::await_result(std::uint32_t agent,
                                            std::uint32_t seq,
                                            double timeout_s) {
  Channel& ch = channels_[agent];
  const auto hit = ch.stray_results.find(seq);
  if (hit != ch.stray_results.end()) {
    TaskFrame out = std::move(hit->second);
    ch.stray_results.erase(hit);
    return out;
  }
  while (true) {
    TaskFrame f = read_frame(agent, timeout_s);
    if (f.seq == seq) return f;
    ch.stray_results.insert({f.seq, std::move(f)});
  }
}

void RemoteAgentExecutor::send_init(std::uint32_t agent) {
  TaskFrame init;
  init.type = TaskType::kInit;
  init.seq = channels_[agent].next_seq++;
  init.agent_id = agent;
  init.num_agents = static_cast<std::uint32_t>(channels_.size());
  init.host_begin = primary_[agent].first;
  init.host_end = primary_[agent].second;
  init.fingerprint = fingerprint_;
  send_frame(agent, init);
  // Re-announce every adopted range (the daemon treats exact repeats as
  // no-ops) so a fresh respawn rebuilds its full ownership.
  for (const auto& [b, e] : channels_[agent].ranges) {
    if (b == primary_[agent].first && e == primary_[agent].second) continue;
    TaskFrame adopt;
    adopt.type = TaskType::kAdopt;
    adopt.seq = channels_[agent].next_seq++;
    adopt.host_begin = b;
    adopt.host_end = e;
    send_frame(agent, adopt);
  }
}

std::uint32_t RemoteAgentExecutor::agent_of_host(topo::HostId host) const {
  for (std::uint32_t a = 0; a < channels_.size(); ++a) {
    if (!channels_[a].alive) continue;
    for (const auto& [b, e] : channels_[a].ranges) {
      if (host >= b && host < e) return a;
    }
  }
  fail("host " + std::to_string(host) + " outside every agent range");
}

void RemoteAgentExecutor::flush_pending(std::uint32_t agent) {
  Channel& ch = channels_[agent];
  if (ch.pending.empty()) {
    ch.synced = action_log_.size();
    return;
  }
  TaskFrame apply;
  apply.type = TaskType::kApply;
  apply.seq = ch.next_seq++;
  apply.time_s = core_->env().now();
  apply.actions = ch.pending;  // copied: cleared only once the link took it
  send_frame(agent, apply);
  ch.pending.clear();
  ch.synced = action_log_.size();
}

void RemoteAgentExecutor::maybe_force_kill(std::uint32_t agent) {
  if (kill_done_ || config_.kill_after_tasks == 0) return;
  if (agent != config_.kill_agent) return;
  if (channels_[agent].tasks_sent < config_.kill_after_tasks) return;
  kill_done_ = true;
  ++stats_.forced_kills;
  // Sever abruptly: the daemon sees EOF and reconnects; the scheduler's
  // next read on this channel fails into the recovery path.
  channels_[agent].socket.close();
}

std::pair<TaskFrame, std::uint32_t> RemoteAgentExecutor::dispatch_and_await(
    std::uint32_t agent, TaskFrame task, TaskType expected,
    bool already_sent) {
  std::optional<std::uint64_t> expect_mutating;
  std::size_t failures = 0;
  while (true) {
    bool down = false;
    try {
      if (!already_sent) {
        flush_pending(agent);
        send_frame(agent, task);
        ++channels_[agent].tasks_sent;
        maybe_force_kill(agent);
      }
      already_sent = false;
      TaskFrame result =
          await_result(agent, task.seq, config_.result_timeout_s);
      if (result.type != expected) {
        fail("agent " + std::to_string(agent) +
             " answered with a mismatched frame");
      }
      if (expect_mutating &&
          count_mutating(result.actions) != *expect_mutating) {
        fail("agent " + std::to_string(agent) +
             " replied from its cache with a result inconsistent with its "
             "resume cursor — replica drift");
      }
      return {std::move(result), agent};
    } catch (const util::LinkDown&) {
      down = true;
    }
    if (down) {
      if (++failures > 5) {
        fail("agent " + std::to_string(agent) +
             " kept failing through " + std::to_string(failures - 1) +
             " recovery attempts");
      }
      agent = recover(agent, task, expect_mutating);
    }
  }
}

std::uint32_t RemoteAgentExecutor::recover(
    std::uint32_t agent, TaskFrame& task,
    std::optional<std::uint64_t>& expect_mutating) {
  Channel& ch = channels_[agent];
  tear_down(ch);
  expect_mutating.reset();
  if (!ch.alive) {
    // Already parked and redistributed (an earlier in-flight task for this
    // daemon hit the grace period); just re-route.
    return redistribute(agent, task);
  }
  if (!acceptor_) {
    fail("lost agent " + std::to_string(agent) +
         " and no reconnect acceptor is installed");
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        to_clock_dur(config_.reconnect_grace_s);
  while (std::chrono::steady_clock::now() < deadline) {
    const double left =
        std::chrono::duration<double>(deadline -
                                      std::chrono::steady_clock::now())
            .count();
    std::optional<util::Socket> sock = acceptor_(left);
    if (!sock) break;
    ch.socket = std::move(*sock);
    wire_up(ch);
    try {
      const TaskFrame hello = read_frame(agent, config_.hello_timeout_s);
      if (hello.type != TaskType::kHello ||
          hello.fingerprint != fingerprint_ ||
          (hello.resuming && hello.agent_id != agent)) {
        // Wrong world, or the ghost of a daemon whose hosts were already
        // redistributed: drop it and keep waiting.
        tear_down(ch);
        continue;
      }
      const std::uint64_t pos = hello.resuming ? hello.resume_pos : 0;
      if (pos > action_log_.size()) {
        fail("agent " + std::to_string(agent) +
             " claims a resume cursor past the action log");
      }
      ++stats_.reconnects;
      if (!hello.resuming) {
        // A fresh respawn replays the committed log but the crashed
        // process's in-flight decision state is gone — if the token was
        // inside it, only the watchdog can bring it back.
        core_->notify_failover();
      }
      send_init(agent);
      if (pos < ch.synced) {
        // Behind (a live daemon that missed frames, or a fresh respawn at
        // cursor 0): replay exactly the missed log suffix.
        ++stats_.full_resyncs;
        ch.pending.assign(action_log_.begin() + static_cast<long>(pos),
                          action_log_.end());
        ch.synced = pos;
        flush_pending(agent);
      } else if (pos == ch.synced) {
        ++stats_.resumes_in_place;
      } else {
        // Ahead: the daemon executed the in-flight task before the link
        // died. The re-sent task is answered from its reply cache; the
        // cached result must account for exactly the cursor delta.
        ++stats_.resumes_ahead;
        expect_mutating = pos - ch.synced;
      }
      ++stats_.tasks_resent;
      return agent;
    } catch (const util::LinkDown&) {
      // Died again mid-handshake/resync; tear down and keep waiting for
      // another connection until the grace expires.
      tear_down(ch);
      expect_mutating.reset();
    }
  }
  if (in_finish_) {
    fail("agent " + std::to_string(agent) +
         " lost at shutdown and did not reconnect within the grace period");
  }
  return redistribute(agent, task);
}

std::uint32_t RemoteAgentExecutor::redistribute(std::uint32_t dead,
                                                TaskFrame& task) {
  Channel& ch = channels_[dead];
  ch.alive = false;
  ch.pending.clear();
  while (true) {
    std::uint32_t heir = static_cast<std::uint32_t>(channels_.size());
    for (std::uint32_t off = 1; off <= channels_.size(); ++off) {
      const auto cand =
          static_cast<std::uint32_t>((dead + off) % channels_.size());
      if (channels_[cand].alive) {
        heir = cand;
        break;
      }
    }
    if (heir >= channels_.size()) {
      fail("every daemon is gone — cannot redistribute agent " +
           std::to_string(dead));
    }
    try {
      flush_pending(heir);
      if (!ch.ranges.empty()) {
        for (const auto& [b, e] : ch.ranges) {
          TaskFrame adopt;
          adopt.type = TaskType::kAdopt;
          adopt.seq = channels_[heir].next_seq++;
          adopt.host_begin = b;
          adopt.host_end = e;
          send_frame(heir, adopt);
        }
        ++stats_.redistributions;
        channels_[heir].ranges.insert(channels_[heir].ranges.end(),
                                      ch.ranges.begin(), ch.ranges.end());
        ch.ranges.clear();
        // The dead daemon's undelivered decision state died with it; if the
        // token was inside, only the watchdog can bring it back.
        core_->notify_failover();
      }
      task.seq = channels_[heir].next_seq++;
      ++stats_.tasks_resent;
      return heir;
    } catch (const util::LinkDown&) {
      // The chosen survivor is dead too: pull its hosts into the set being
      // redistributed and scan for the next one.
      Channel& hc = channels_[heir];
      tear_down(hc);
      hc.alive = false;
      hc.pending.clear();
      ch.ranges.insert(ch.ranges.end(), hc.ranges.begin(), hc.ranges.end());
      hc.ranges.clear();
    }
  }
}

void RemoteAgentExecutor::replay(const TaskFrame& result,
                                 std::uint32_t agent) {
  AgentEnv& env = core_->env();
  SimHypervisor& hv = core_->sim_hypervisor();
  for (const TaskAction& a : result.actions) {
    switch (a.kind) {
      case TaskActionKind::kSend:
        if (a.delay_s == 0.0) {
          env.send(static_cast<CtrlMsg>(a.msg_type), a.src, a.dst,
                   std::vector<std::uint8_t>(a.payload));
        } else {
          env.send_after(a.delay_s, static_cast<CtrlMsg>(a.msg_type), a.src,
                         a.dst, std::vector<std::uint8_t>(a.payload));
        }
        break;
      case TaskActionKind::kArmTimer:
        env.arm_probe_timer(a.host, a.delay_s, a.nonce, a.stage);
        break;
      case TaskActionKind::kHold:
        env.hold_complete(a.migrated, a.epoch, a.ring_pos, a.aggregate_delta);
        break;
      case TaskActionKind::kMigration:
        if (hv.migrate(a.vm, a.target, nullptr) != MigrateStatus::kCommitted) {
          fail("authoritative world rejected a migration agent " +
               std::to_string(agent) + " committed — replica drift");
        }
        break;
      case TaskActionKind::kBudgetReject:
        hv.replay_budget_reject(a.vm);
        break;
      case TaskActionKind::kStopRun:
        env.stop_run();
        break;
      case TaskActionKind::kProbeRetransmit:
        env.note_probe_retransmits(a.count);
        break;
      case TaskActionKind::kProbeTimeout:
        env.note_probe_timeout();
        break;
      case TaskActionKind::kHostLeave:
      case TaskActionKind::kHostJoin:
        fail("churn action in a result frame");
    }
    if (replica_mutating(a.kind)) {
      action_log_.push_back(a);
      for (std::uint32_t b = 0; b < channels_.size(); ++b) {
        if (b != agent && channels_[b].alive) {
          channels_[b].pending.push_back(a);
        }
      }
    }
  }
  // The executing daemon applied its own actions as it produced them, so it
  // is current through everything just logged.
  channels_[agent].synced = action_log_.size();
}

void RemoteAgentExecutor::round_trip(std::uint32_t agent, TaskFrame task) {
  task.seq = channels_[agent].next_seq++;
  auto [result, actual] =
      dispatch_and_await(agent, std::move(task), TaskType::kResult, false);
  replay(result, actual);
}

void RemoteAgentExecutor::drain_window() {
  drain_scheduled_ = false;
  while (!window_.empty()) {
    InFlight f = std::move(window_.front());
    window_.pop_front();
    const std::uint64_t recoveries_before =
        stats_.reconnects + stats_.redistributions;
    auto [result, actual] = dispatch_and_await(f.agent, std::move(f.task),
                                               TaskType::kResult, f.sent);
    if (stats_.reconnects + stats_.redistributions != recoveries_before) {
      // The connection was replaced mid-window: frames sent on the old one
      // are gone. Re-dispatch this agent's remaining in-flight tasks (the
      // daemon's reply cache and their statelessness make that safe).
      for (InFlight& w : window_) {
        if (w.agent == f.agent) w.sent = false;
      }
    }
    if (count_mutating(result.actions) != 0) {
      // Only stateless probe lookups are pipelined; a mutating action here
      // would have raced the replica sync.
      fail("pipelined probe task produced a state-mutating action");
    }
    replay(result, actual);
  }
}

void RemoteAgentExecutor::deliver(const sim::Message& msg) {
  TaskFrame task;
  task.type = TaskType::kDeliver;
  task.time_s = core_->env().now();
  task.msg_type = static_cast<std::uint8_t>(msg.type);
  task.src = msg.src;
  task.dst = msg.dst;
  task.payload = std::move(msg.payload);  // the delivery's to take

  const bool stateless =
      static_cast<int>(msg.type) ==
          static_cast<int>(CtrlMsg::kLocationRequest) ||
      static_cast<int>(msg.type) == static_cast<int>(CtrlMsg::kCapacityRequest);
  if (!stateless) {
    drain_window();
    round_trip(agent_of_host(msg.dst), std::move(task));
    return;
  }

  // Pipelined path: location/capacity requests read replica state without
  // changing it, so tasks for different (or even the same) daemon overlap.
  // Results are replayed, in send order, by a drain event scheduled at this
  // same virtual timestamp — before the clock can advance, so the replayed
  // response sends carry exactly the times the lock-step schedule produces.
  const std::uint32_t agent = agent_of_host(msg.dst);
  task.seq = channels_[agent].next_seq++;
  bool sent = true;
  try {
    flush_pending(agent);
    send_frame(agent, task);
    ++channels_[agent].tasks_sent;
    maybe_force_kill(agent);
  } catch (const util::LinkDown&) {
    sent = false;  // recovered (and the task dispatched) at drain time
  }
  ++stats_.pipelined_tasks;
  window_.push_back({agent, std::move(task), sent});
  stats_.max_inflight = std::max(
      stats_.max_inflight, static_cast<std::uint64_t>(window_.size()));
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    sim::EventQueue& q = core_->event_queue();
    q.schedule_at(q.now(), [this] { drain_window(); });
  }
}

void RemoteAgentExecutor::fire_probe_timer(topo::HostId host,
                                           std::uint32_t nonce, int stage) {
  drain_window();
  TaskFrame task;
  task.type = TaskType::kTimer;
  task.time_s = core_->env().now();
  task.host = host;
  task.nonce = nonce;
  task.stage = static_cast<std::uint8_t>(stage);
  round_trip(agent_of_host(host), std::move(task));
}

void RemoteAgentExecutor::queue_churn(TaskActionKind kind, topo::HostId host) {
  TaskAction a;
  a.kind = kind;
  a.host = host;
  action_log_.push_back(a);
  for (Channel& ch : channels_) {
    if (ch.alive) ch.pending.push_back(a);
  }
}

void RemoteAgentExecutor::host_left(topo::HostId host) {
  drain_window();
  queue_churn(TaskActionKind::kHostLeave, host);
}

void RemoteAgentExecutor::host_joined(topo::HostId host) {
  drain_window();
  queue_churn(TaskActionKind::kHostJoin, host);
}

void RemoteAgentExecutor::finish() {
  if (finished_ || core_ == nullptr) return;
  drain_window();
  finished_ = true;
  in_finish_ = true;
  SimHypervisor& hv = core_->sim_hypervisor();
  const RunControl& ctl = core_->run_control();
  const double final_cost = hv.model().total_cost(hv.alloc(), hv.tm());

  for (std::uint32_t a = 0; a < channels_.size(); ++a) {
    if (!channels_[a].alive) continue;
    TaskFrame shutdown;
    shutdown.type = TaskType::kShutdown;
    shutdown.seq = channels_[a].next_seq++;
    auto [fin, actual] =
        dispatch_and_await(a, std::move(shutdown), TaskType::kFinal, false);
    // Replicas advance through the identical call sequence with identical
    // seeds, so the comparison is exact — any inequality means the worlds
    // diverged mid-run and the whole result is suspect.
    if (fin.final_cost != final_cost || fin.migrated_mb != hv.migrated_mb() ||
        fin.total_migrations != ctl.total_migrations() ||
        fin.total_holds != ctl.total_holds()) {
      std::ostringstream os;
      os << "replica drift at shutdown, agent " << actual << ": cost "
         << fin.final_cost << " vs " << final_cost << ", migrated MB "
         << fin.migrated_mb << " vs " << hv.migrated_mb() << ", migrations "
         << fin.total_migrations << " vs " << ctl.total_migrations()
         << ", holds " << fin.total_holds << " vs " << ctl.total_holds();
      fail(os.str());
    }
  }
  for (Channel& ch : channels_) absorb_link_stats(ch);
}

}  // namespace score::hypervisor
