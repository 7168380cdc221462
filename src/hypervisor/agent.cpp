#include "hypervisor/agent.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "hypervisor/wire.hpp"

namespace score::hypervisor {

namespace {

using wire::get_u32;
using wire::put_u32;

// ---- token policies over the held frame ------------------------------------

Ipv4 next_round_robin(const TokenFrame& token, Ipv4 holder) {
  const std::size_t i = token.index_of(holder);
  return token.vm_id((i + 1) % token.size());
}

/// Algorithm 1 with the per-round checked bits carried in the token.
Ipv4 next_highest_level_first(TokenFrame& token, Ipv4 holder) {
  const std::size_t n = token.size();
  const std::size_t h = token.index_of(holder);
  token.set_checked(h, true);
  if (n == 1) return holder;

  bool all_checked = true;
  for (std::size_t i = 0; i < n && all_checked; ++i) {
    all_checked = token.checked(i);
  }
  if (!all_checked) {
    for (int cl = token.level(h); cl >= 0; --cl) {
      for (std::size_t step = 1; step < n; ++step) {
        const std::size_t z = (h + step) % n;
        if (!token.checked(z) && token.level(z) == cl) return token.vm_id(z);
      }
    }
    // Unchecked VMs remain only above the holder's level.
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (token.checked(i)) continue;
      if (best == n || token.level(i) > token.level(best)) best = i;
    }
    if (best != n) return token.vm_id(best);
  }

  // New round: clear checked, restart from the lowest-id max-level VM.
  std::uint8_t max_level = 0;
  for (std::size_t i = 0; i < n; ++i) {
    token.set_checked(i, false);
    max_level = std::max(max_level, token.level(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (token.level(i) == max_level && token.vm_id(i) != holder) {
      return token.vm_id(i);
    }
  }
  return token.vm_id((h + 1) % n);
}

/// Fixed probe payload sizes (see the senders below).
constexpr std::size_t kLocationRequestBytes = 8;    // subject VM, nonce
constexpr std::size_t kLocationResponseBytes = 12;  // subject VM, dom0, nonce
constexpr std::size_t kCapacityRequestBytes = 4;    // nonce
constexpr std::size_t kCapacityResponseBytes = 24;  // nonce, dom0, 4 capacities

/// Reject a probe whose payload does not have its fixed size: inside a
/// score_agent daemon the payload is outside input, read at fixed offsets.
void expect_payload(const sim::Message& msg, std::size_t bytes) {
  if (msg.payload.size() != bytes) {
    throw std::invalid_argument(
        "Dom0Agent: control message type " + std::to_string(msg.type) +
        " carries " + std::to_string(msg.payload.size()) +
        " payload bytes, expected " + std::to_string(bytes));
  }
}

}  // namespace

void Dom0Agent::on_message(const sim::Message& msg) {
  switch (static_cast<CtrlMsg>(msg.type)) {
    case CtrlMsg::kToken: {
      on_token(msg);
      return;
    }
    case CtrlMsg::kLocationRequest: {
      expect_payload(msg, kLocationRequestBytes);
      // A peer's dom0 asks where we are: answer with subject VM + our address
      // (the NAT redirect delivers the probe to dom0, which replies, §V-B.4).
      std::vector<std::uint8_t> payload;
      payload.reserve(kLocationResponseBytes);
      put_u32(payload, get_u32(msg.payload, 0));                 // subject VM
      put_u32(payload, env_->hv().ipam().host_address(host_));   // our dom0 addr
      put_u32(payload, get_u32(msg.payload, 4));                 // echo nonce
      env_->send(CtrlMsg::kLocationResponse, host_, msg.src,
                 std::move(payload));
      return;
    }
    case CtrlMsg::kLocationResponse: {
      expect_payload(msg, kLocationResponseBytes);
      if (!pending_ || pending_->stage != kLocations ||
          pending_->awaiting_locations == 0) {
        return;
      }
      if (get_u32(msg.payload, 8) != pending_->nonce) return;  // stale attempt
      const Ipv4 subject = get_u32(msg.payload, 0);
      const auto peer = std::lower_bound(
          peers_.begin(), peers_.end(), subject,
          [](const Peer& p, Ipv4 vm) { return p.vm < vm; });
      // A VM that was never probed, or a duplicate answer.
      if (peer == peers_.end() || peer->vm != subject || peer->dom0) return;
      peer->dom0 = get_u32(msg.payload, 4);
      if (--pending_->awaiting_locations == 0) on_locations_complete();
      return;
    }
    case CtrlMsg::kCapacityRequest: {
      expect_payload(msg, kCapacityRequestBytes);
      // Report residual capacity (free slots + available RAM, extended with
      // CPU and NIC bandwidth, §V-B.5) for our server.
      const HostCapacity cap = env_->hv().host_capacity(host_);
      std::vector<std::uint8_t> payload;
      payload.reserve(kCapacityResponseBytes);
      put_u32(payload, get_u32(msg.payload, 0));                // echo nonce
      put_u32(payload, env_->hv().ipam().host_address(host_));  // who answers
      put_u32(payload, static_cast<std::uint32_t>(cap.free_slots));
      put_u32(payload, static_cast<std::uint32_t>(cap.free_ram_mb));
      put_u32(payload, static_cast<std::uint32_t>(cap.free_cpu * 1000.0));
      put_u32(payload,
              static_cast<std::uint32_t>(cap.free_net_bps / 1000.0));  // kbps
      env_->send(CtrlMsg::kCapacityResponse, host_, msg.src,
                 std::move(payload));
      return;
    }
    case CtrlMsg::kCapacityResponse: {
      expect_payload(msg, kCapacityResponseBytes);
      if (!pending_ || pending_->stage != kCapacities ||
          pending_->awaiting_capacities == 0) {
        return;
      }
      if (get_u32(msg.payload, 0) != pending_->nonce) return;  // stale attempt
      const Ipv4 who = get_u32(msg.payload, 4);
      const auto cand =
          std::find_if(candidates_.begin(), candidates_.end(),
                       [who](const Candidate& c) { return c.dom0 == who; });
      // A host that was never probed, or a duplicate answer.
      if (cand == candidates_.end() || cand->cap) return;
      CapInfo& info = cand->cap.emplace();
      info.free_slots = get_u32(msg.payload, 8);
      info.free_ram_mb = get_u32(msg.payload, 12);
      info.free_cpu = get_u32(msg.payload, 16) / 1000.0;
      info.free_net_bps = get_u32(msg.payload, 20) * 1000.0;
      if (--pending_->awaiting_capacities == 0) on_capacities_complete();
      return;
    }
  }
  throw std::invalid_argument("Dom0Agent: unknown control message type " +
                              std::to_string(msg.type));
}

void Dom0Agent::on_token(const sim::Message& msg) {
  if (env_->stopped()) return;
  // The delivered frame is adopted, not copied (sim/network.hpp's delivery
  // contract), and validated in full; from here on it is edited in place
  // and forwarded by move.
  TokenFrame token(std::move(msg.payload));
  const Ipam& ipam = env_->hv().ipam();

  // A token can land on a stale host when the holder VM was drained while the
  // token was in flight (churn): the NAT redirect forwards it to the VM's
  // current hypervisor.
  const topo::HostId holder_host = ipam.vm_host(token.holder());
  if (holder_host != host_) {
    env_->send(CtrlMsg::kToken, host_, holder_host, std::move(token).bytes());
    return;
  }

  pending_.emplace(std::move(token), next_nonce_++);
  peers_.clear();
  candidates_.clear();

  // §V-B.1/3: each peer's throughput over the measurement window, from the
  // datapath byte counters (ground truth from the TM, the simulated Open
  // vSwitch), quantised to whole bytes per window. Flows are kept only
  // "until a migration decision is made for a VM" (§V-B.1), so nothing of
  // them outlives the hold.
  const Ipv4 holder = pending_->token.holder();
  const double now = env_->now();
  const double window = kMeasurementWindowS;
  // The window as two clock readings span it, which in floating point need
  // not equal `window`; the decisions depend on these bits.
  const double dur = now - (now - window);
  for (const auto& [peer, rate] :
       env_->hv().datapath_rates(vm_of_addr(holder))) {
    const auto bytes = static_cast<std::uint64_t>(rate * window / 8.0);
    Peer& entry = peers_.emplace_back();
    entry.vm = addr_of_vm(peer);
    entry.rate = static_cast<double>(bytes) / dur * 8.0;  // back to TM units
  }
  std::sort(peers_.begin(), peers_.end(),
            [](const Peer& a, const Peer& b) { return a.vm < b.vm; });
  if (peers_.empty()) {
    finish_hold(false, 0.0);
    return;
  }

  // §V-B.4: probe every communicating VM for its dom0 location.
  pending_->stage = kLocations;
  pending_->retries_left = kProbeRetries;
  send_location_probes();
}

/// Send location requests for every peer still missing a response and arm
/// the stage timeout (first attempt and retransmissions alike).
void Dom0Agent::send_location_probes() {
  PendingDecision& p = *pending_;
  p.awaiting_locations = 0;
  for (const Peer& peer : peers_) {
    if (peer.dom0) continue;  // already answered
    ++p.awaiting_locations;
    std::vector<std::uint8_t> payload;
    payload.reserve(kLocationRequestBytes);
    put_u32(payload, peer.vm);
    put_u32(payload, p.nonce);
    // The fabric routes the probe to the peer VM's current host.
    env_->send(CtrlMsg::kLocationRequest, host_,
               env_->hv().ipam().vm_host(peer.vm), std::move(payload));
  }
  arm_probe_timer(kLocations);
}

/// Send capacity requests for every candidate above c_m still missing a
/// response and arm the stage timeout.
void Dom0Agent::send_capacity_probes() {
  PendingDecision& p = *pending_;
  p.awaiting_capacities = 0;
  for (const Candidate& cand : candidates_) {
    if (cand.cap) continue;  // already answered
    ++p.awaiting_capacities;
    std::vector<std::uint8_t> payload;
    payload.reserve(kCapacityRequestBytes);
    put_u32(payload, p.nonce);
    env_->send(CtrlMsg::kCapacityRequest, host_,
               env_->hv().ipam().host_of_address(cand.dom0),
               std::move(payload));
  }
  arm_probe_timer(kCapacities);
}

void Dom0Agent::arm_probe_timer(Stage stage) {
  env_->arm_probe_timer(host_, kProbeTimeoutS, pending_->nonce,
                        static_cast<int>(stage));
}

/// Probe timeout: when responses are lost (or their hosts left), the holder
/// retransmits the unanswered probes; with the retry budget spent it decides
/// from the answers it has instead of stalling the whole loop.
void Dom0Agent::on_probe_timer(std::uint32_t nonce, int stage) {
  if (env_->stopped() || !pending_ || pending_->nonce != nonce ||
      static_cast<int>(pending_->stage) != stage) {
    return;
  }
  if (stage == kLocations && pending_->awaiting_locations > 0) {
    if (pending_->retries_left > 0) {
      --pending_->retries_left;
      env_->note_probe_retransmits(pending_->awaiting_locations);
      send_location_probes();
      return;
    }
    env_->note_probe_timeout();
    pending_->awaiting_locations = 0;
    // Peers that never answered are invisible this round: drop them from
    // the measured set so the Lemma-3 delta only uses confirmed locations.
    std::erase_if(peers_, [](const Peer& peer) { return !peer.dom0; });
    on_locations_complete();
  } else if (stage == kCapacities && pending_->awaiting_capacities > 0) {
    if (pending_->retries_left > 0) {
      --pending_->retries_left;
      env_->note_probe_retransmits(pending_->awaiting_capacities);
      send_capacity_probes();
      return;
    }
    env_->note_probe_timeout();
    pending_->awaiting_capacities = 0;
    on_capacities_complete();
  }
}

void Dom0Agent::on_locations_complete() {
  PendingDecision& p = *pending_;
  const Ipam& ipam = env_->hv().ipam();
  const auto& weights = env_->hv().weights();

  if (peers_.empty()) {  // every location probe timed out
    finish_hold(false, 0.0);
    return;
  }

  // Update the token's communication-level entries (Algorithm 1 lines 1-5):
  // own entry exactly, peers' entries raised only. Each peer's Lemma-3 term
  // for the holder's current host is the same for every candidate, so it is
  // read here once.
  const auto& topo = env_->hv().topology();
  int own_level = 0;
  probe_order_.reset(host_);
  for (Peer& peer : peers_) {
    peer.host = ipam.host_of_address(*peer.dom0);
    const int level = topo.comm_level(host_, peer.host);
    own_level = std::max(own_level, level);
    const std::size_t entry = p.token.index_of(peer.vm);
    p.token.set_level(entry, std::max<std::uint8_t>(
                                 p.token.level(entry),
                                 static_cast<std::uint8_t>(level)));
    if (level > 0) probe_order_.add_peer(level, peer.rate, peer.host);
    peer.own_prefix = weights.prefix(level);
  }
  p.token.set_level(p.token.index_of(p.token.holder()),
                    static_cast<std::uint8_t>(own_level));

  // §V-B.5: the candidate hypervisors in MigrationEngine's probe order.
  // Lemma 3, from purely local data: measured λ, probed peer locations. The
  // delta needs no capacity, and Theorem 1 moves only when it exceeds c_m,
  // so only those candidates are probed. A hold with none ends here.
  for (const topo::HostId cand : probe_order_.build(topo)) {
    double delta = 0.0;
    for (const Peer& peer : peers_) {
      delta += 2.0 * peer.rate *
               (peer.own_prefix -
                weights.prefix(topo.comm_level(peer.host, cand)));
    }
    if (delta > cfg_->engine.migration_cost) {
      candidates_.push_back({ipam.host_address(cand), delta, std::nullopt});
    }
  }
  if (candidates_.empty()) {
    finish_hold(false, 0.0);
    return;
  }
  p.stage = kCapacities;
  p.retries_left = kProbeRetries;
  send_capacity_probes();
}

void Dom0Agent::on_capacities_complete() {
  PendingDecision& p = *pending_;
  const SimHypervisor& hv = env_->hv();
  const core::VmId u = vm_of_addr(p.token.holder());
  const core::VmSpec& spec = hv.vm_spec(u);

  // The first feasible candidate with the largest delta. Every stored delta
  // already exceeds c_m (Theorem 1).
  const Candidate* best = nullptr;
  for (const Candidate& cand : candidates_) {
    if (!cand.cap) continue;  // probe lost / host gone
    const CapInfo& cap = *cand.cap;
    if (cap.free_slots == 0 || cap.free_ram_mb < spec.ram_mb ||
        cap.free_cpu < spec.cpu_cores ||
        cap.free_net_bps < spec.net_bps) {
      continue;
    }
    if (best == nullptr || cand.delta > best->delta) best = &cand;
  }
  if (best == nullptr) {
    finish_hold(false, 0.0);
    return;
  }

  // The capacity response may be stale by commit time (the target left, or a
  // churn drain consumed its last slot while we waited on other probes): in
  // that case the live-migration handshake with the target hypervisor fails
  // and the hold ends without a move. A win that would overrun the remaining
  // pre-copy byte budget is rejected the same way (strictly cost-reducing
  // moves only, and only as many as the operator priced in).
  const topo::HostId target = hv.ipam().host_of_address(best->dom0);
  if (!hv.host_up(target) || !hv.can_host(target, spec)) {
    finish_hold(false, 0.0);
    return;
  }
  MigrationOutcome outcome;
  if (env_->migrate(u, target, &outcome) != MigrateStatus::kCommitted) {
    finish_hold(false, 0.0);
    return;
  }
  // The allocation epoch advances with every commit.
  p.token.set_epoch(p.token.epoch() + 1);
  p.token.set_aggregate_delta(p.token.aggregate_delta() + best->delta);
  finish_hold(true, outcome.total_time_s);
}

void Dom0Agent::finish_hold(bool migrated, double migration_time_s) {
  PendingDecision& p = *pending_;
  TokenFrame& token = p.token;
  const SimHypervisor& hv = env_->hv();
  const Ipam& ipam = hv.ipam();
  const double busy = kDecisionTimeS + migration_time_s;
  // Each completed hold advances the ring and reports the token header.
  const auto complete_hold = [&](bool moved) {
    token.set_ring_pos(token.ring_pos() + 1);
    return env_->hold_complete(moved, token.epoch(), token.ring_pos(),
                               token.aggregate_delta());
  };

  bool run_on = complete_hold(migrated);
  Ipv4 next = token.holder();
  if (run_on) {
    // Forward past VMs stranded on departed hosts (drain failures): each
    // skipped VM's hold completes trivially at the forwarding agent.
    for (std::size_t i = 0; run_on && i <= token.size(); ++i) {
      next = cfg_->use_hlf ? next_highest_level_first(token, next)
                           : next_round_robin(token, next);
      if (hv.host_up(ipam.vm_host(next))) break;
      run_on = complete_hold(false);
    }
  }
  if (!run_on) {
    pending_.reset();
    return;
  }
  if (!hv.host_up(ipam.vm_host(next))) {
    // Every remaining entry is stranded on departed hosts: no reachable
    // holder exists, so the run cannot make further progress.
    env_->stop_run();
    pending_.reset();
    return;
  }

  token.set_holder(next);
  const topo::HostId next_host = ipam.vm_host(next);
  // The token leaves after the dom0 work (and any migration) completes.
  env_->send_after(busy, CtrlMsg::kToken, host_, next_host,
                   std::move(token).bytes());
  pending_.reset();
}

void LocalAgentExecutor::start(RuntimeCore& core) {
  agents_.assign(core.sim_hypervisor().topology().num_hosts(), Dom0Agent{});
  for (topo::HostId h = 0; h < agents_.size(); ++h) {
    agents_[h].bind(&core.env(), &core.agent_config(), h);
  }
}

}  // namespace score::hypervisor
