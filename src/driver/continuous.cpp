#include "driver/continuous.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/cached_cost_model.hpp"
#include "util/rng.hpp"

namespace score::driver {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

/// One tenant: the world VM block [first, first + count).
struct Tenant {
  core::VmId first = 0;
  std::uint32_t count = 0;
};

std::vector<Tenant> tenant_blocks(std::size_t world_vms, std::size_t tenant_vms) {
  if (tenant_vms == 0) {
    throw std::invalid_argument("ContinuousConfig::tenant_vms must be >= 1");
  }
  std::vector<Tenant> tenants;
  for (std::size_t first = 0; first < world_vms; first += tenant_vms) {
    tenants.push_back(
        {static_cast<core::VmId>(first),
         static_cast<std::uint32_t>(std::min(tenant_vms, world_vms - first))});
  }
  return tenants;
}

/// Pick a feasible server for one VM under the initial-placement policy, or
/// kInvalidServer when nothing fits. `rr_cursor` advances across the calls of
/// one tenant (round-robin striping).
core::ServerId choose_server(const core::Allocation& alloc,
                             const core::VmSpec& spec,
                             baselines::PlacementStrategy strategy,
                             util::Rng& rng, std::size_t& rr_cursor) {
  const std::size_t n = alloc.num_servers();
  switch (strategy) {
    case baselines::PlacementStrategy::kRandom: {
      std::size_t feasible = 0;
      for (core::ServerId s = 0; s < n; ++s) {
        if (alloc.can_host(s, spec)) ++feasible;
      }
      if (feasible == 0) return core::kInvalidServer;
      std::size_t pick = rng.index(feasible);
      for (core::ServerId s = 0; s < n; ++s) {
        if (!alloc.can_host(s, spec)) continue;
        if (pick == 0) return s;
        --pick;
      }
      return core::kInvalidServer;
    }
    case baselines::PlacementStrategy::kRoundRobin: {
      for (std::size_t tried = 0; tried < n; ++tried) {
        const auto s = static_cast<core::ServerId>(rr_cursor % n);
        ++rr_cursor;
        if (alloc.can_host(s, spec)) return s;
      }
      return core::kInvalidServer;
    }
    case baselines::PlacementStrategy::kPacked: {
      for (core::ServerId s = 0; s < n; ++s) {
        if (alloc.can_host(s, spec)) return s;
      }
      return core::kInvalidServer;
    }
  }
  return core::kInvalidServer;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lifecycle sources: sampled (run) vs recorded (replay).
// ---------------------------------------------------------------------------

/// Supplies the lifecycle *decisions*; the engine owns the mechanics
/// (placement, compaction, optimisation). Events are (tenant index, arrive?)
/// pairs in application order — departures first, each group ascending.
struct ContinuousEngine::LifecycleSource {
  virtual ~LifecycleSource() = default;
  /// Replay mode: an arrival that cannot be placed is a hard error (the
  /// recorded timeline only contains arrivals that fit).
  virtual bool strict() const = 0;
  virtual std::vector<bool> initial_active(std::size_t tenant_count) = 0;
  /// Epoch-0 placement column to adopt verbatim, or nullptr to sample one.
  virtual const std::vector<core::ServerId>* epoch0_placement() const = 0;
  virtual std::vector<std::pair<std::size_t, bool>> epoch_events(
      std::size_t epoch, const std::vector<bool>& tenant_active) = 0;
};

namespace {

struct SampledLifecycle final : ContinuousEngine::LifecycleSource {
  explicit SampledLifecycle(const ContinuousConfig& config)
      : cfg(config), rng(config.lifecycle_seed) {}

  bool strict() const override { return false; }

  std::vector<bool> initial_active(std::size_t tenant_count) override {
    std::vector<bool> active(tenant_count, false);
    bool any = false;
    for (std::size_t t = 0; t < tenant_count; ++t) {
      active[t] = rng.chance(cfg.initial_active_fraction);
      any = any || active[t];
    }
    if (!any && tenant_count > 0) active[0] = true;
    return active;
  }

  const std::vector<core::ServerId>* epoch0_placement() const override {
    return nullptr;
  }

  std::vector<std::pair<std::size_t, bool>> epoch_events(
      std::size_t /*epoch*/, const std::vector<bool>& tenant_active) override {
    std::vector<std::pair<std::size_t, bool>> events;
    for (std::size_t t = 0; t < tenant_active.size(); ++t) {
      if (tenant_active[t] && rng.chance(cfg.departure_prob)) {
        events.emplace_back(t, false);
      }
    }
    for (std::size_t t = 0; t < tenant_active.size(); ++t) {
      if (!tenant_active[t] && rng.chance(cfg.arrival_prob)) {
        events.emplace_back(t, true);
      }
    }
    return events;
  }

  const ContinuousConfig& cfg;
  util::Rng rng;
};

struct RecordedLifecycle final : ContinuousEngine::LifecycleSource {
  RecordedLifecycle(const core::WorldScenario& w,
                    const std::vector<Tenant>& tenant_list, std::size_t epochs)
      : world(w), tenants(tenant_list) {
    for (const core::TimelineEvent& ev : world.timeline) {
      if (ev.epoch >= epochs) {
        throw std::runtime_error(
            "ContinuousEngine::replay: timeline event at epoch " +
            std::to_string(ev.epoch) + " is beyond the configured " +
            std::to_string(epochs) + " epochs");
      }
      by_epoch[ev.epoch].push_back(tenant_of(ev));
    }
  }

  std::pair<std::size_t, bool> tenant_of(const core::TimelineEvent& ev) const {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      if (tenants[t].first == ev.first_vm && tenants[t].count == ev.count) {
        return {t, ev.kind == core::TimelineEventKind::kArrive};
      }
    }
    throw std::runtime_error(
        "ContinuousEngine::replay: timeline block [" +
        std::to_string(ev.first_vm) + ", " +
        std::to_string(ev.first_vm + ev.count) +
        ") does not match any tenant block (tenant_vms mismatch?)");
  }

  bool strict() const override { return true; }

  std::vector<bool> initial_active(std::size_t tenant_count) override {
    std::vector<bool> active(tenant_count, false);
    for (std::size_t t = 0; t < tenant_count; ++t) {
      const Tenant& ten = tenants[t];
      std::size_t placed = 0;
      for (core::VmId vm = ten.first; vm < ten.first + ten.count; ++vm) {
        if (world.placement[vm] != core::kInvalidServer) ++placed;
      }
      if (placed != 0 && placed != ten.count) {
        throw std::runtime_error(
            "ContinuousEngine::replay: tenant block at vm " +
            std::to_string(ten.first) +
            " is partially placed (tenants are all-or-nothing)");
      }
      active[t] = placed == ten.count;
    }
    return active;
  }

  const std::vector<core::ServerId>* epoch0_placement() const override {
    return &world.placement;
  }

  std::vector<std::pair<std::size_t, bool>> epoch_events(
      std::size_t epoch, const std::vector<bool>& /*tenant_active*/) override {
    auto it = by_epoch.find(epoch);
    if (it == by_epoch.end()) return {};
    // Recorded order is already departures-first per epoch (the engine
    // records events as it applies them).
    return it->second;
  }

  const core::WorldScenario& world;
  const std::vector<Tenant>& tenants;
  std::map<std::size_t, std::vector<std::pair<std::size_t, bool>>> by_epoch;
};

}  // namespace

// ---------------------------------------------------------------------------
// Report aggregates.
// ---------------------------------------------------------------------------

std::size_t SteadyStateReport::total_migrations() const {
  std::size_t n = 0;
  for (const EpochReport& e : epochs) n += e.migrations;
  return n;
}

double SteadyStateReport::total_migrated_mb() const {
  double mb = 0.0;
  for (const EpochReport& e : epochs) mb += e.migrated_mb;
  return mb;
}

double SteadyStateReport::max_cost_ratio() const {
  double worst = std::numeric_limits<double>::quiet_NaN();
  for (const EpochReport& e : epochs) {
    // A NaN ratio compares false, so it never replaces a defined worst.
    if (std::isnan(worst) || e.cost_ratio() > worst) worst = e.cost_ratio();
  }
  return worst;
}

double SteadyStateReport::mean_cost_ratio() const {
  const std::size_t defined = epochs.size() - undefined_cost_ratios();
  if (defined == 0) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const EpochReport& e : epochs) {
    if (!std::isnan(e.cost_ratio())) sum += e.cost_ratio();
  }
  return sum / static_cast<double>(defined);
}

std::size_t SteadyStateReport::undefined_cost_ratios() const {
  std::size_t undefined = 0;
  for (const EpochReport& e : epochs) {
    if (std::isnan(e.cost_ratio())) ++undefined;
  }
  return undefined;
}

// ---------------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------------

ContinuousEngine::ContinuousEngine(const topo::Topology& topology,
                                   ContinuousConfig config)
    : topology_(&topology), config_(std::move(config)) {
  config_.validate();
  if (config_.epochs == 0) {
    throw std::invalid_argument("ContinuousConfig::epochs must be >= 1");
  }
}

SteadyStateReport ContinuousEngine::run() {
  SampledLifecycle source(config_);
  return drive(source);
}

SteadyStateReport ContinuousEngine::replay(const core::WorldScenario& world) {
  if (world.servers.size() != topology_->num_hosts()) {
    throw std::runtime_error(
        "ContinuousEngine::replay: world has " +
        std::to_string(world.servers.size()) + " servers but the topology has " +
        std::to_string(topology_->num_hosts()) + " hosts");
  }
  if (world.num_vms() != config_.generator.num_vms) {
    throw std::runtime_error(
        "ContinuousEngine::replay: world has " + std::to_string(world.num_vms()) +
        " VMs but the configured generator produces " +
        std::to_string(config_.generator.num_vms));
  }
  // The engine only ever exports uniform capacities/specs taken from its
  // config, so replaying under a different --slots (or VM spec) would either
  // fail deep inside compaction or silently produce a different trajectory.
  // Reject the mismatch up front with the flag-level explanation.
  for (const core::ServerCapacity& cap : world.servers) {
    if (cap.vm_slots != config_.server_capacity.vm_slots ||
        cap.ram_mb != config_.server_capacity.ram_mb ||
        cap.cpu_cores != config_.server_capacity.cpu_cores ||
        cap.net_bps != config_.server_capacity.net_bps) {
      throw std::runtime_error(
          "ContinuousEngine::replay: world server capacities differ from the "
          "configured ones (was the snapshot saved with different --slots?)");
    }
  }
  for (const core::VmSpec& spec : world.vm_specs) {
    if (spec.ram_mb != config_.vm_spec.ram_mb ||
        spec.cpu_cores != config_.vm_spec.cpu_cores ||
        spec.net_bps != config_.vm_spec.net_bps) {
      throw std::runtime_error(
          "ContinuousEngine::replay: world VM specs differ from the "
          "configured ones");
    }
  }
  const std::vector<Tenant> tenants =
      tenant_blocks(config_.generator.num_vms, config_.tenant_vms);
  RecordedLifecycle source(world, tenants, config_.epochs);
  return drive(source);
}

SteadyStateReport ContinuousEngine::drive(LifecycleSource& source) {
  const std::size_t world_vms = config_.generator.num_vms;
  const std::size_t hosts = topology_->num_hosts();
  const std::vector<Tenant> tenants = tenant_blocks(world_vms, config_.tenant_vms);

  traffic::TrafficDynamics dynamics(config_.generator, config_.dynamics);

  std::vector<core::ServerId> world_place(world_vms, core::kInvalidServer);
  std::vector<bool> tenant_active(tenants.size(), false);

  SteadyStateReport report;
  report.mode = config_.mode;
  report.world.servers.assign(hosts, config_.server_capacity);
  report.world.vm_specs.assign(world_vms, config_.vm_spec);
  std::uint64_t hash = kFnvOffset;

  // Per-tenant placement stream: independent of every other tenant's
  // (a rejected arrival must not shift later draws, or replay — which skips
  // rejected tenants entirely — would diverge from the original run).
  const auto placement_rng_seed = [&](std::size_t epoch, std::size_t tenant) {
    return (config_.lifecycle_seed ^ 0x9e3779b97f4a7c15ull) +
           1000003ull * epoch + 7919ull * tenant;
  };

  // Place one tenant all-or-nothing into `alloc` (used for feasibility only;
  // chosen servers are written to world_place). Returns false and leaves all
  // state untouched when some VM has no feasible server.
  const auto place_tenant = [&](core::Allocation& alloc, std::size_t epoch,
                                std::size_t t) {
    const Tenant& ten = tenants[t];
    util::Rng rng(placement_rng_seed(epoch, t));
    std::size_t rr_cursor = ten.first % hosts;
    core::Allocation trial = alloc;
    std::vector<core::ServerId> chosen(ten.count, core::kInvalidServer);
    for (std::uint32_t i = 0; i < ten.count; ++i) {
      const core::ServerId s = choose_server(trial, config_.vm_spec,
                                             config_.placement, rng, rr_cursor);
      if (s == core::kInvalidServer) return false;
      trial.add_vm(config_.vm_spec, s);
      chosen[i] = s;
    }
    alloc = std::move(trial);
    for (std::uint32_t i = 0; i < ten.count; ++i) {
      const core::VmId wid = ten.first + i;
      world_place[wid] = chosen[i];
      fold(hash, wid);
      fold(hash, chosen[i]);
    }
    return true;
  };

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    EpochReport er;
    er.epoch = epoch;
    fold(hash, 0x45504f43ull);  // "EPOC" separator
    fold(hash, epoch);

    // ---- lifecycle ---------------------------------------------------------
    if (epoch == 0) {
      tenant_active = source.initial_active(tenants.size());
      if (const std::vector<core::ServerId>* given = source.epoch0_placement()) {
        world_place = *given;
        for (std::size_t vm = 0; vm < world_vms; ++vm) {
          if (world_place[vm] != core::kInvalidServer) {
            fold(hash, vm);
            fold(hash, world_place[vm]);
          }
        }
      } else {
        core::Allocation scratch(hosts, config_.server_capacity);
        for (std::size_t t = 0; t < tenants.size(); ++t) {
          if (!tenant_active[t]) continue;
          if (!place_tenant(scratch, 0, t)) {
            tenant_active[t] = false;
            er.rejected_vms += tenants[t].count;
          }
        }
      }
    } else {
      // Survivors-only scratch allocation for arrival feasibility.
      core::Allocation scratch(hosts, config_.server_capacity);
      const auto events = source.epoch_events(epoch, tenant_active);
      for (const auto& [t, arrive] : events) {
        if (!arrive) {
          if (!tenant_active[t]) {
            throw std::runtime_error(
                "continuous timeline: departure of a dormant tenant block");
          }
          tenant_active[t] = false;
          for (core::VmId vm = tenants[t].first;
               vm < tenants[t].first + tenants[t].count; ++vm) {
            world_place[vm] = core::kInvalidServer;
          }
          er.departed_vms += tenants[t].count;
          const core::TimelineEvent ev{epoch, core::TimelineEventKind::kDepart,
                                       tenants[t].first, tenants[t].count};
          report.world.timeline.push_back(ev);
          fold(hash, ev.epoch);
          fold(hash, 0xD);
          fold(hash, ev.first_vm);
          fold(hash, ev.count);
        }
      }
      for (std::size_t t = 0; t < tenants.size(); ++t) {
        if (!tenant_active[t]) continue;
        for (core::VmId vm = tenants[t].first;
             vm < tenants[t].first + tenants[t].count; ++vm) {
          scratch.add_vm(config_.vm_spec, world_place[vm]);
        }
      }
      for (const auto& [t, arrive] : events) {
        if (!arrive) continue;
        if (tenant_active[t]) {
          throw std::runtime_error(
              "continuous timeline: arrival of an already active tenant block");
        }
        if (place_tenant(scratch, epoch, t)) {
          tenant_active[t] = true;
          er.arrived_vms += tenants[t].count;
          const core::TimelineEvent ev{epoch, core::TimelineEventKind::kArrive,
                                       tenants[t].first, tenants[t].count};
          report.world.timeline.push_back(ev);
          fold(hash, ev.epoch);
          fold(hash, 0xA);
          fold(hash, ev.first_vm);
          fold(hash, ev.count);
        } else if (source.strict()) {
          throw std::runtime_error(
              "continuous timeline: recorded arrival at epoch " +
              std::to_string(epoch) + " (vm block " +
              std::to_string(tenants[t].first) + ") no longer fits");
        } else {
          er.rejected_vms += tenants[t].count;
        }
      }
    }

    if (epoch == 0) {
      // The exported column is the *initial* state a replay starts from:
      // post-placement, pre-optimisation.
      report.world.placement = world_place;
      report.world.tm = dynamics.epoch(0);
    }

    // ---- compact the active world into an epoch scenario -------------------
    std::vector<core::VmId> world_ids;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      if (!tenant_active[t]) continue;
      for (core::VmId vm = tenants[t].first;
           vm < tenants[t].first + tenants[t].count; ++vm) {
        world_ids.push_back(vm);
      }
    }
    er.active_vms = world_ids.size();
    if (world_ids.empty()) {
      report.epochs.push_back(er);
      continue;  // an empty datacenter has nothing to optimise
    }

    constexpr std::uint32_t kDormant = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> compact_of(world_vms, kDormant);
    core::Allocation alloc(hosts, config_.server_capacity);
    for (std::size_t i = 0; i < world_ids.size(); ++i) {
      compact_of[world_ids[i]] = static_cast<std::uint32_t>(i);
      alloc.add_vm(config_.vm_spec, world_place[world_ids[i]]);
    }

    const traffic::TrafficMatrix& world_tm = dynamics.epoch(epoch);
    traffic::FlowDeltaBatch flows;
    for (const auto& [u, v, rate] : world_tm.pairs()) {
      const std::uint32_t cu = compact_of[u];
      const std::uint32_t cv = compact_of[v];
      if (cu == kDormant || cv == kDormant) {
        continue;  // at least one endpoint is dormant this epoch
      }
      flows.push(cu, cv, rate * config_.intensity_scale);
    }
    traffic::TrafficMatrix tm(world_ids.size(), std::move(flows));

    // ---- token rounds on the carried state ---------------------------------
    core::CachedCostModel model(
        *topology_, core::LinkWeights::exponential(topology_->max_level()));
    model.bind(alloc, tm);
    er.cost_before = model.total_cost(alloc, tm);

    const ConvergenceReport res =
        reoptimize(model, alloc, tm, config_, config_.iterations_per_epoch);
    er.cost_after = res.final_cost;
    er.migrations = res.migrations;
    er.migrated_mb = res.migrated_mb;
    er.rounds = res.rounds;

    // ---- write back + structural migration diff ----------------------------
    for (std::size_t i = 0; i < world_ids.size(); ++i) {
      const core::VmId wid = world_ids[i];
      const core::ServerId before = world_place[wid];
      const core::ServerId after = alloc.server_of(static_cast<core::VmId>(i));
      if (before != after) {
        er.changes.push_back({wid, before, after});
        fold(hash, wid);
        fold(hash, before);
        fold(hash, after);
        world_place[wid] = after;
      }
    }

    // ---- fresh re-optimisation reference -----------------------------------
    er.fresh_cost = fresh_reference_cost(
        *topology_, tm, config_.server_capacity, config_.vm_spec,
        config_.placement,
        config_.lifecycle_seed * 104729ull + 31ull * epoch + 17ull, config_);

    report.epochs.push_back(er);
  }

  report.trace_hash = hash;
  return report;
}

}  // namespace score::driver
