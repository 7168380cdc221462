#include "hypervisor/hypervisor.hpp"

#include <stdexcept>

namespace score::hypervisor {

SimHypervisor::SimHypervisor(const core::CostModel& model,
                             core::Allocation& alloc,
                             const traffic::TrafficMatrix& tm,
                             double migration_budget_mb)
    : model_(&model),
      alloc_(&alloc),
      tm_(&tm),
      migration_budget_mb_(migration_budget_mb),
      ipam_(model.topology()),
      migration_rng_(kMigrationSeed) {
  if (alloc_->num_vms() != tm_->num_vms()) {
    throw std::invalid_argument("SimHypervisor: alloc/TM mismatch");
  }
  for (core::VmId vm = 0; vm < alloc_->num_vms(); ++vm) {
    ipam_.allocate_vm(alloc_->server_of(vm));
  }
  host_up_.assign(model.topology().num_hosts(), true);
}

HostCapacity SimHypervisor::host_capacity(topo::HostId host) const {
  HostCapacity cap;
  cap.free_slots = alloc_->free_slots(host);
  cap.free_ram_mb = alloc_->free_ram_mb(host);
  cap.free_cpu = alloc_->capacity(host).cpu_cores - alloc_->used_cpu(host);
  cap.free_net_bps =
      alloc_->capacity(host).net_bps - alloc_->used_net_bps(host);
  return cap;
}

/// Pre-copy transfer for one VM on an idle link: the default model rescaled
/// to the VM's RAM (working set and stop-and-copy threshold scale
/// proportionally).
MigrationOutcome SimHypervisor::simulate_migration(const core::VmSpec& spec) {
  MigrationModelConfig mc;
  const double scale =
      spec.ram_mb > 0.0 && mc.vm_ram_mb > 0.0 ? spec.ram_mb / mc.vm_ram_mb : 1.0;
  mc.vm_ram_mb = spec.ram_mb;
  mc.working_set_mean_mb *= scale;
  mc.working_set_std_mb *= scale;
  mc.stop_copy_threshold_mb *= scale;
  const PreCopyMigrationModel precopy(mc);
  return precopy.simulate(migration_rng_, 0.0);
}

MigrateStatus SimHypervisor::migrate(core::VmId vm, topo::HostId target,
                                     MigrationOutcome* outcome) {
  const core::VmSpec& spec = alloc_->spec(vm);
  const MigrationOutcome out = simulate_migration(spec);
  if (outcome != nullptr) *outcome = out;
  if (migration_budget_mb_ > 0.0 &&
      migrated_mb_ + out.migrated_mb > migration_budget_mb_) {
    ++budget_rejected_;
    return MigrateStatus::kBudgetRejected;
  }
  model_->apply_migration(*alloc_, *tm_, vm, target);
  ipam_.move_vm(addr_of_vm(vm), target);
  migrated_mb_ += out.migrated_mb;
  migration_time_s_ += out.total_time_s;
  return MigrateStatus::kCommitted;
}

MigrationOutcome SimHypervisor::evacuate(core::VmId vm, topo::HostId target) {
  const MigrationOutcome outcome = simulate_migration(alloc_->spec(vm));
  migrated_mb_ += outcome.migrated_mb;
  migration_time_s_ += outcome.total_time_s;
  model_->apply_migration(*alloc_, *tm_, vm, target);
  ipam_.move_vm(addr_of_vm(vm), target);
  ++evacuations_;
  return outcome;
}

void SimHypervisor::replay_budget_reject(core::VmId vm) {
  (void)simulate_migration(alloc_->spec(vm));
  ++budget_rejected_;
}

void drain_host(SimHypervisor& hv, topo::HostId host) {
  core::Allocation& alloc = hv.alloc();
  const core::CostModel& model = hv.model();
  const std::vector<core::VmId> victims = alloc.vms_on(host);
  for (const core::VmId vm : victims) {
    const core::VmSpec& spec = alloc.spec(vm);
    core::ServerId best = core::kInvalidServer;
    double best_delta = 0.0;
    for (core::ServerId s = 0; s < alloc.num_servers(); ++s) {
      if (s == host || !hv.host_up(s) || !alloc.can_host(s, spec)) continue;
      const double delta = model.migration_delta(alloc, hv.tm(), vm, s);
      if (best == core::kInvalidServer || delta > best_delta) {
        best = s;
        best_delta = delta;
      }
    }
    if (best == core::kInvalidServer) continue;
    hv.evacuate(vm, best);
  }
}

}  // namespace score::hypervisor
