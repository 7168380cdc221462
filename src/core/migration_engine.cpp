#include "core/migration_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace score::core {

namespace {

void require(bool ok, const char* field, const char* rule) {
  if (!ok) {
    throw std::invalid_argument(std::string("EngineConfig: ") + field +
                                " must be " + rule);
  }
}

/// One peer z of the holder u, read once per hold.
struct HoldPeer {
  ServerId server;
  int rack;
  int pod;
  double rate;
  double before;  ///< prefix(ℓ(z, source)): the same for every candidate
};

/// Per-thread scratch reused across holds, so a hold allocates nothing once
/// the buffers have grown to the largest neighbour set seen.
struct HoldScratch {
  std::vector<HoldPeer> peers;
  CandidateBuilder candidates;
};

HoldScratch& hold_scratch() {
  thread_local HoldScratch scratch;
  return scratch;
}

}  // namespace

void EngineConfig::validate() const {
  require(std::isfinite(migration_cost) && migration_cost >= 0.0,
          "migration_cost", "finite and >= 0");
}

const std::vector<ServerId>& CandidateBuilder::build(
    const topo::Topology& topology) {
  // Neighbours ranked by (level desc, traffic desc): the highest-level,
  // heaviest peers are probed first (§V-B.5).
  std::sort(ranked_.begin(), ranked_.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.level != b.level) return a.level > b.level;
              return a.rate > b.rate;
            });

  servers_.clear();
  expanded_racks_.clear();
  const std::size_t hosts_per_rack =
      topology.num_hosts() / topology.num_racks();
  for (const Ranked& peer : ranked_) {
    if (servers_.size() >= kMaxCandidates) break;
    // A rack is expanded whole unless the cap stops it (and then the walk
    // ends), so every host of an expanded rack but the source is listed.
    const int rack = topology.rack_of(peer.host);
    if (std::find(expanded_racks_.begin(), expanded_racks_.end(), rack) !=
        expanded_racks_.end()) {
      continue;
    }
    expanded_racks_.push_back(rack);
    servers_.push_back(peer.host);
    const auto first =
        static_cast<ServerId>(static_cast<std::size_t>(rack) * hosts_per_rack);
    for (std::size_t i = 0;
         i < hosts_per_rack && servers_.size() < kMaxCandidates; ++i) {
      const auto sibling = static_cast<ServerId>(first + i);
      if (sibling != source_ && sibling != peer.host) {
        servers_.push_back(sibling);
      }
    }
  }
  return servers_;
}

bool MigrationEngine::target_feasible(const Allocation& alloc, ServerId target,
                                      const VmSpec& spec) const {
  if (!alloc.can_host(target, spec)) return false;
  const double residual_net =
      alloc.capacity(target).net_bps - alloc.used_net_bps(target);
  return residual_net >= spec.net_bps;
}

std::vector<ServerId> MigrationEngine::candidate_servers(
    const Allocation& alloc, const traffic::TrafficMatrix& tm, VmId u) const {
  const ServerId source = alloc.server_of(u);
  const auto& topo = model_->topology();
  CandidateBuilder& builder = hold_scratch().candidates;
  builder.reset(source);
  tm.for_each_neighbor(u, [&](VmId z, double rate) {
    const ServerId zs = alloc.server_of(z);
    if (zs != source) builder.add_peer(topo.comm_level(source, zs), rate, zs);
  });
  return builder.build(topo);
}

Decision MigrationEngine::evaluate(const Allocation& alloc,
                                   const traffic::TrafficMatrix& tm, VmId u) const {
  const auto& topo = model_->topology();
  const auto& weights = model_->weights();
  const ServerId source = alloc.server_of(u);
  HoldScratch& scratch = hold_scratch();
  std::vector<HoldPeer>& peers = scratch.peers;
  peers.clear();
  scratch.candidates.reset(source);
  tm.for_each_neighbor(u, [&](VmId z, double rate) {
    const ServerId zs = alloc.server_of(z);
    const int level = topo.comm_level(zs, source);
    peers.push_back(
        {zs, topo.rack_of(zs), topo.pod_of(zs), rate, weights.prefix(level)});
    if (zs != source) scratch.candidates.add_peer(level, rate, zs);
  });

  Decision best;
  if (peers.empty()) return best;
  // comm_level(z, target) is 0 same host, 1 same rack, 2 same pod, else
  // max_level(). A host lies in one rack and a rack in one pod, so the count
  // of differing (host, rack, pod) fields indexes that rule's prefix sums.
  const int top = topo.max_level();
  const double after_prefix[4] = {weights.prefix(0), weights.prefix(1),
                                  weights.prefix(std::min(2, top)),
                                  weights.prefix(top)};
  const VmSpec& spec = alloc.spec(u);
  for (const ServerId target : scratch.candidates.build(topo)) {
    ++best.candidates_probed;
    const int rack = topo.rack_of(target);
    const int pod = topo.pod_of(target);
    // Lemma 3 in CostModel::migration_delta's expression and peer order, so
    // the delta is bit-identical to it.
    double delta = 0.0;
    for (const HoldPeer& p : peers) {
      const int differing = static_cast<int>(p.server != target) +
                            static_cast<int>(p.rack != rack) +
                            static_cast<int>(p.pod != pod);
      delta += 2.0 * p.rate * (p.before - after_prefix[differing]);
    }
    if (delta > config_.migration_cost) best.improvable = true;
    // Probe capacity only where the candidate would win: the first feasible
    // candidate with the largest delta, as if every one were probed.
    if ((best.target == kInvalidServer || delta > best.delta) &&
        target_feasible(alloc, target, spec)) {
      best.target = target;
      best.delta = delta;
    }
  }
  // Theorem 1: migrate iff the cost reduction exceeds the migration cost c_m.
  best.migrate = best.target != kInvalidServer && best.delta > config_.migration_cost;
  if (!best.migrate && best.target == kInvalidServer) best.delta = 0.0;
  return best;
}

Decision MigrationEngine::evaluate_and_apply(Allocation& alloc,
                                             const traffic::TrafficMatrix& tm,
                                             VmId u) const {
  Decision d = evaluate(alloc, tm, u);
  if (d.migrate) model_->apply_migration(alloc, tm, u, d.target);
  return d;
}

}  // namespace score::core
