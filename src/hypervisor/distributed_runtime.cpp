#include "hypervisor/distributed_runtime.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "hypervisor/agent.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/token_codec.hpp"
#include "hypervisor/wire.hpp"
#include "sim/event_queue.hpp"

namespace score::hypervisor {

namespace {

void require(bool ok, const char* field, const char* rule) {
  if (!ok) {
    throw std::invalid_argument(std::string("DistributedScoreRuntime: ") +
                                field + " must be " + rule);
  }
}

RuntimeConfig validated(RuntimeConfig cfg, const core::CostModel& model,
                        const core::Allocation& alloc,
                        const traffic::TrafficMatrix& tm) {
  if (alloc.num_vms() != tm.num_vms()) {
    throw std::invalid_argument("DistributedScoreRuntime: alloc/TM mismatch");
  }
  cfg.validate(model.topology().num_hosts());
  return cfg;
}

}  // namespace

void RuntimeConfig::validate(std::size_t num_hosts) const {
  if (policy != "highest-level-first" && policy != "hlf" &&
      policy != "round-robin" && policy != "rr") {
    throw std::invalid_argument("DistributedScoreRuntime: unknown policy '" +
                                policy + "'");
  }
  engine.validate();
  // A zero budget would still run one round here but none in the
  // centralized drivers.
  require(iterations >= 1, "iterations", ">= 1");
  // A value outside these ranges hangs the run (a token that is always lost,
  // a watchdog that re-arms at the same instant) or quietly disables it.
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const auto non_negative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  require(non_negative(migration_budget_mb), "migration_budget_mb",
          "finite and >= 0");
  require(non_negative(message_loss_rate) && message_loss_rate < 1.0,
          "message_loss_rate", "finite and in [0, 1)");
  require(positive(retransmit_timeout_s), "retransmit_timeout_s",
          "finite and > 0");
  for (const ChurnEvent& ev : churn) {
    if (ev.host >= num_hosts) {
      throw std::invalid_argument(
          "DistributedScoreRuntime: churn host out of range");
    }
    // A NaN time would stall the event queue, an infinite one never fires.
    require(non_negative(ev.time_s), "churn time_s", "finite and >= 0");
  }
}

AgentConfig agent_config_of(const RuntimeConfig& cfg) {
  AgentConfig ac;
  ac.engine = cfg.engine;
  ac.use_hlf = cfg.policy == "highest-level-first" || cfg.policy == "hlf";
  return ac;
}

// ---- runtime ----------------------------------------------------------------

struct DistributedScoreRuntime::Impl final : AgentEnv, RuntimeCore {
  RuntimeConfig cfg;
  AgentConfig agent_cfg;
  sim::EventQueue queue;
  std::unique_ptr<sim::Network> net;
  SimHypervisor hvisor;
  RunControl run_ctl;
  std::unique_ptr<SimCommunicator> communicator;
  LocalAgentExecutor local_executor;
  AgentExecutor* executor;

  RuntimeResult result;

  // Watchdog state (placement-manager role): activity counters compared
  // between retransmission-timeout ticks; the last token snapshot lives in
  // the communicator. The token is declared lost — and re-injected — only on
  // true quiescence: no hold completed, no control message moved (probe
  // retransmissions are progress), and no token send is waiting out a
  // migration transfer.
  std::uint64_t holds_at_last_check = 0;
  std::uint64_t sends_at_last_check = 0;
  bool watchdog_scheduled = false;

  Impl(const core::CostModel& m, core::Allocation& a,
       const traffic::TrafficMatrix& t, RuntimeConfig c,
       AgentExecutor* custom_executor)
      : cfg(validated(std::move(c), m, a, t)),
        agent_cfg(agent_config_of(cfg)),
        net(std::make_unique<sim::Network>(queue, m.topology())),
        hvisor(m, a, t, cfg.migration_budget_mb),
        run_ctl(m, a, t, cfg.iterations, cfg.stop_when_stable),
        executor(custom_executor != nullptr ? custom_executor
                                            : &local_executor) {
    communicator = std::make_unique<SimCommunicator>(
        queue, *net, watchdog_armed(), [this] { return run_ctl.stopped(); },
        [this](topo::HostId h, std::uint32_t nonce, int stage) {
          executor->fire_probe_timer(h, nonce, stage);
        });
    for (topo::HostId h = 0; h < m.topology().num_hosts(); ++h) {
      net->attach(h, [this](const sim::Message& msg) {
        executor->deliver(msg);
      });
    }
    // Determinism seam: fold every send (including dropped ones) into the
    // trace hash, in send order, before the fabric takes over. The
    // always-on hash covers the structural fields only — timestamps,
    // endpoints, types, sizes, loss — which any payload-level divergence
    // perturbs within a hop; hashing the payload bytes themselves (GBs per
    // paper-scale run, the token frame is O(|V|)) is paid only when the
    // verbatim trace was asked for.
    net->set_observer([this](const sim::Message& msg, bool lost) {
      TraceEntry entry;
      entry.time_s = queue.now();
      entry.type = static_cast<std::uint8_t>(msg.type);
      entry.src = msg.src;
      entry.dst = msg.dst;
      entry.bytes = static_cast<std::uint32_t>(msg.payload.size());
      entry.payload_hash = cfg.record_trace ? wire::fnv1a_bytes(msg.payload) : 0;
      entry.lost = lost;
      std::uint64_t h = result.trace_hash == 0 ? 1469598103934665603ull
                                               : result.trace_hash;
      h = wire::fnv1a(h, std::bit_cast<std::uint64_t>(entry.time_s));
      h = wire::fnv1a(h, entry.type);
      h = wire::fnv1a(h, (static_cast<std::uint64_t>(entry.src) << 32) | entry.dst);
      h = wire::fnv1a(h, entry.bytes);
      h = wire::fnv1a(h, entry.payload_hash);
      h = wire::fnv1a(h, entry.lost ? 1 : 0);
      result.trace_hash = h;
      if (cfg.record_trace) result.trace.push_back(entry);
    });
  }

  bool watchdog_armed() const {
    return cfg.message_loss_rate > 0.0 || !cfg.churn.empty();
  }

  // ---- AgentEnv (the world as the in-process agents see it) -----------------
  Hypervisor& hv() override { return hvisor; }
  Communicator& comm() override { return *communicator; }
  bool stopped() const override { return run_ctl.stopped(); }
  bool hold_complete(bool migrated) override {
    return run_ctl.hold_complete(migrated, queue.now());
  }
  void stop_run() override { run_ctl.stop(queue.now()); }
  void token_telemetry(std::uint32_t epoch, std::uint32_t ring_pos,
                       double aggregate_delta) override {
    result.final_epoch = epoch;
    result.final_ring_pos = ring_pos;
    result.aggregate_delta = aggregate_delta;
  }
  void note_probe_retransmits(std::size_t count) override {
    result.probe_retransmits += count;
  }
  void note_probe_timeout() override { ++result.probe_timeouts; }

  // ---- RuntimeCore (what the executor may reach) ----------------------------
  AgentEnv& env() override { return *this; }
  const AgentConfig& agent_config() const override { return agent_cfg; }
  SimHypervisor& sim_hypervisor() override { return hvisor; }
  const RunControl& run_control() const override { return run_ctl; }
  sim::EventQueue& event_queue() override { return queue; }
  void enable_failover_recovery() override {
    communicator->enable_token_snapshot();
  }
  void notify_failover() override {
    // Lazily start the watchdog: fault-free runs never schedule it, so the
    // event queue (and hence the trace) is untouched until a daemon is
    // actually lost.
    if (watchdog_scheduled) return;
    watchdog_scheduled = true;
    queue.schedule_in(cfg.retransmit_timeout_s, [this] { watchdog_tick(); });
  }

  // ---- failure recovery ------------------------------------------------------

  void watchdog_tick() {
    if (run_ctl.stopped()) return;
    const bool quiescent = run_ctl.total_holds() == holds_at_last_check &&
                           communicator->sends() == sends_at_last_check &&
                           communicator->scheduled_token_sends() == 0;
    if (quiescent && !communicator->last_token_payload().empty()) {
      // Nothing moved for a whole tick: the token was lost in flight (or its
      // destination host left). Re-inject the last snapshot at the holder
      // VM's *current* host; the receiving agent restarts its decision
      // idempotently. A hold still retransmitting probes or waiting out a
      // migration transfer is progress, not loss — it is left alone.
      TokenFrame tok(communicator->last_token_payload());
      topo::HostId dst = hvisor.ipam().vm_host(tok.holder());
      if (!hvisor.host_up(dst)) {
        // The holder VM is stranded on a departed host (its drain found no
        // feasible target). Hand the token to the next reachable entry in
        // id order — the placement manager's recovery need not follow the
        // forwarding policy — or end the run when no host is left.
        const std::size_t n = tok.size();
        std::size_t start = 0;
        while (start < n && tok.vm_id(start) != tok.holder()) ++start;
        bool found = false;
        for (std::size_t step = 1; step <= n && !found; ++step) {
          const Ipv4 vm = tok.vm_id((start + step) % n);
          const topo::HostId h = hvisor.ipam().vm_host(vm);
          if (hvisor.host_up(h)) {
            tok.set_holder(vm);
            dst = h;
            found = true;
          }
        }
        if (!found) {
          run_ctl.stop(queue.now());
          return;
        }
        communicator->set_last_token_payload(std::move(tok).bytes());
      }
      ++result.token_reinjections;
      communicator->send(CtrlMsg::kToken, dst, dst,
                         communicator->last_token_payload());
    }
    holds_at_last_check = run_ctl.total_holds();
    sends_at_last_check = communicator->sends();
    queue.schedule_in(cfg.retransmit_timeout_s, [this] { watchdog_tick(); });
  }

  // ---- host churn (placement-manager role) -----------------------------------

  void host_leave(topo::HostId h) {
    if (run_ctl.stopped() || !hvisor.host_up(h)) return;
    hvisor.set_host_up(h, false);
    net->detach(h);
    executor->host_left(h);
    drain_host(hvisor, h);
  }

  void host_join(topo::HostId h) {
    if (hvisor.host_up(h)) return;
    hvisor.set_host_up(h, true);
    net->attach(h, [this](const sim::Message& msg) {
      executor->deliver(msg);
    });
    executor->host_joined(h);
  }

  RuntimeResult run() {
    executor->start(*this);
    result.initial_cost = hvisor.model().total_cost(hvisor.alloc(), hvisor.tm());
    if (cfg.message_loss_rate > 0.0) {
      net->set_loss(cfg.message_loss_rate, cfg.loss_seed);
    }
    if (watchdog_armed()) {
      watchdog_scheduled = true;
      queue.schedule_in(cfg.retransmit_timeout_s, [this] { watchdog_tick(); });
    }
    for (const ChurnEvent& ev : cfg.churn) {
      queue.schedule_at(ev.time_s, [this, ev] {
        if (ev.leave) {
          host_leave(ev.host);
        } else {
          host_join(ev.host);
        }
      });
    }
    // The placement manager injects the token at the lowest-id VM with all
    // levels initialised to zero (§V-A), epoch 0, ring position 0.
    Token token;
    token.policy = agent_cfg.use_hlf ? TokenPolicyId::kHighestLevelFirst
                                     : TokenPolicyId::kRoundRobin;
    token.holder = addr_of_vm(0);
    token.entries.resize(hvisor.tm().num_vms());
    for (core::VmId id = 0; id < hvisor.tm().num_vms(); ++id) {
      token.entries[id].vm_id = addr_of_vm(id);
    }
    const topo::HostId first_host = hvisor.ipam().vm_host(token.holder);
    communicator->send(CtrlMsg::kToken, first_host, first_host,
                       encode_token(token));
    queue.run();
    executor->finish();

    result.duration_s = run_ctl.stopped() ? run_ctl.duration_s() : queue.now();
    result.final_cost = hvisor.model().total_cost(hvisor.alloc(), hvisor.tm());
    result.total_migrations = run_ctl.total_migrations();
    result.iterations = run_ctl.iterations();
    result.token_messages = communicator->token_messages;
    result.token_bytes = communicator->token_bytes;
    result.location_messages = communicator->location_messages;
    result.capacity_messages = communicator->capacity_messages;
    result.control_bytes = communicator->control_bytes;
    result.messages_lost = net->messages_lost();
    result.migrated_mb = hvisor.migrated_mb();
    result.migration_time_s = hvisor.migration_time_s();
    result.budget_rejected = hvisor.budget_rejected();
    result.evacuations = hvisor.evacuations();
    return result;
  }
};

// ---- public wrapper ----------------------------------------------------------

driver::ConvergenceReport RuntimeResult::report() const {
  driver::ConvergenceReport report;
  report.mode = "distributed";
  report.initial_cost = initial_cost;
  report.final_cost = final_cost;
  report.rounds = iterations.size();
  report.migrations = total_migrations;
  report.migrated_mb = migrated_mb;
  report.duration_s = duration_s;
  report.token_messages = token_messages;
  report.token_bytes = token_bytes;
  report.control_messages =
      token_messages + location_messages + capacity_messages;
  report.control_bytes = control_bytes;
  report.trace_hash = trace_hash;
  return report;
}

DistributedScoreRuntime::DistributedScoreRuntime(const core::CostModel& model,
                                                 core::Allocation& alloc,
                                                 const traffic::TrafficMatrix& tm,
                                                 RuntimeConfig config)
    : impl_(std::make_unique<Impl>(model, alloc, tm, std::move(config),
                                   nullptr)) {}

DistributedScoreRuntime::DistributedScoreRuntime(const core::CostModel& model,
                                                 core::Allocation& alloc,
                                                 const traffic::TrafficMatrix& tm,
                                                 RuntimeConfig config,
                                                 AgentExecutor& executor)
    : impl_(std::make_unique<Impl>(model, alloc, tm, std::move(config),
                                   &executor)) {}

DistributedScoreRuntime::~DistributedScoreRuntime() = default;

RuntimeResult DistributedScoreRuntime::run() { return impl_->run(); }

// ---- world fingerprint -------------------------------------------------------

std::uint64_t world_fingerprint(const core::CostModel& model,
                                const core::Allocation& alloc,
                                const traffic::TrafficMatrix& tm,
                                const RuntimeConfig& config) {
  using wire::fnv1a;
  const auto f64 = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::uint64_t h = 1469598103934665603ull;

  const topo::Topology& topo = model.topology();
  h = fnv1a(h, topo.num_hosts());
  h = fnv1a(h, topo.num_racks());
  h = fnv1a(h, static_cast<std::uint64_t>(topo.max_level()));
  for (int lvl = 0; lvl <= topo.max_level(); ++lvl) {
    h = fnv1a(h, f64(model.weights().prefix(lvl)));
  }
  for (topo::HostId a = 0; a < topo.num_hosts(); ++a) {
    const core::ServerCapacity& cap = alloc.capacity(a);
    h = fnv1a(h, cap.vm_slots);
    h = fnv1a(h, f64(cap.ram_mb));
    h = fnv1a(h, f64(cap.cpu_cores));
    h = fnv1a(h, f64(cap.net_bps));
  }
  for (core::VmId vm = 0; vm < alloc.num_vms(); ++vm) {
    const core::VmSpec& spec = alloc.spec(vm);
    h = fnv1a(h, alloc.server_of(vm));
    h = fnv1a(h, f64(spec.ram_mb));
    h = fnv1a(h, f64(spec.cpu_cores));
    h = fnv1a(h, f64(spec.net_bps));
    for (const auto& [peer, rate] : tm.neighbors(vm)) {
      h = fnv1a(h, peer);
      h = fnv1a(h, f64(rate));
    }
  }

  for (const char c : config.policy) h = fnv1a(h, static_cast<std::uint8_t>(c));
  h = fnv1a(h, f64(config.engine.migration_cost));
  h = fnv1a(h, config.iterations);
  h = fnv1a(h, config.stop_when_stable ? 1 : 0);
  h = fnv1a(h, f64(config.migration_budget_mb));
  h = fnv1a(h, f64(config.message_loss_rate));
  h = fnv1a(h, config.loss_seed);
  h = fnv1a(h, f64(config.retransmit_timeout_s));
  h = fnv1a(h, config.churn.size());
  for (const ChurnEvent& ev : config.churn) {
    h = fnv1a(h, f64(ev.time_s));
    h = fnv1a(h, ev.host);
    h = fnv1a(h, ev.leave ? 1 : 0);
  }
  return h;
}

}  // namespace score::hypervisor
