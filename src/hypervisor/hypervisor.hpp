// Hypervisor seam — the per-host virtualization substrate the dom0 agents
// stand on, abstracted so the same agent decision logic runs against the
// simulated world (SimHypervisor) or a replica of it inside a score_agent
// daemon process.
//
// The interface covers exactly what the S-CORE pipeline needs from its
// hypervisor and the placement manager's directory:
//   * static topology + IPAM reads (location cost mapping, §V-B.4),
//   * residual-capacity reads answered in capacity responses (§V-B.5),
//   * the datapath byte counters the flow table is polled from (§V-B.1),
//   * host liveness (churn: a drained host stops being a migration target),
//   * migrate() — the live-migration handshake with the target hypervisor,
//     with pre-copy transfer timing from hypervisor/live_migration and the
//     operator's migration-MB budget enforced at commit time.
//
// SimHypervisor is the authoritative implementation: it owns the IPAM
// directory, the pre-copy RNG and all migration accounting. Every transfer
// follows the default testbed pre-copy model (MigrationModelConfig{}) on an
// idle link, rescaled to the VM's RAM, with dirty rates drawn from an RNG
// seeded with kMigrationSeed. Every replica of the world (scheduler + each
// agent daemon) advances its own SimHypervisor through the *same* sequence
// of migrate/replay calls, which keeps the directories, allocations and RNG
// streams bit-identical across processes — the invariant the multi-process
// control plane is built on.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "hypervisor/ipam.hpp"
#include "hypervisor/live_migration.hpp"
#include "traffic/traffic_matrix.hpp"
#include "util/rng.hpp"

namespace score::hypervisor {

/// Residual capacity of one host, as carried by a capacity response (§V-B.5).
struct HostCapacity {
  std::size_t free_slots = 0;
  double free_ram_mb = 0.0;
  double free_cpu = 0.0;
  double free_net_bps = 0.0;
};

class Hypervisor {
 public:
  enum class MigrateStatus {
    kCommitted,       ///< applied to the allocation and the IPAM directory
    kBudgetRejected,  ///< Theorem-1 win priced out by the migration-MB budget
  };

  virtual ~Hypervisor() = default;

  // ---- static world + directory reads ---------------------------------------
  virtual const topo::Topology& topology() const = 0;
  virtual const core::LinkWeights& weights() const = 0;
  virtual const Ipam& ipam() const = 0;
  virtual const core::VmSpec& vm_spec(core::VmId vm) const = 0;

  // ---- local hypervisor reads -----------------------------------------------
  virtual HostCapacity host_capacity(topo::HostId host) const = 0;
  virtual bool can_host(topo::HostId host, const core::VmSpec& spec) const = 0;
  /// Ground-truth per-peer traffic rates for a VM (the simulated Open vSwitch
  /// the flow table is polled from).
  virtual traffic::NeighborView datapath_rates(core::VmId vm) const = 0;

  // ---- host lifecycle (churn) -----------------------------------------------
  virtual bool host_up(topo::HostId host) const = 0;

  // ---- live migration -------------------------------------------------------
  /// Migrate `vm` to `target`: draws the pre-copy model (RNG), enforces the
  /// migration-MB budget, and on commit applies the move to the allocation
  /// and the IPAM directory. `outcome` (optional) receives the modeled
  /// transfer either way — a budget reject still consumed the dirty-rate
  /// draw, which is what keeps replica RNG streams aligned.
  virtual MigrateStatus migrate(core::VmId vm, topo::HostId target,
                                MigrationOutcome* outcome) = 0;
};

/// Seed of the pre-copy dirty-rate RNG every replica starts from.
inline constexpr std::uint64_t kMigrationSeed = 11;

/// The simulated world: authoritative allocation + IPAM + pre-copy accounting.
class SimHypervisor final : public Hypervisor {
 public:
  /// `migration_budget_mb` caps the total modeled pre-copy MB of optimization
  /// moves (0 = unlimited).
  SimHypervisor(const core::CostModel& model, core::Allocation& alloc,
                const traffic::TrafficMatrix& tm, double migration_budget_mb);

  const topo::Topology& topology() const override { return model_->topology(); }
  const core::LinkWeights& weights() const override { return model_->weights(); }
  const Ipam& ipam() const override { return ipam_; }
  const core::VmSpec& vm_spec(core::VmId vm) const override {
    return alloc_->spec(vm);
  }
  HostCapacity host_capacity(topo::HostId host) const override;
  bool can_host(topo::HostId host, const core::VmSpec& spec) const override {
    return alloc_->can_host(host, spec);
  }
  traffic::NeighborView datapath_rates(core::VmId vm) const override {
    return tm_->neighbors(vm);
  }
  bool host_up(topo::HostId host) const override { return host_up_.at(host); }
  MigrateStatus migrate(core::VmId vm, topo::HostId target,
                        MigrationOutcome* outcome) override;

  // ---- placement-manager extras (not part of the agent-facing seam) ---------
  void set_host_up(topo::HostId host, bool up) { host_up_.at(host) = up; }

  /// Drain transfer off a leaving host: same pre-copy model and accounting,
  /// never budget-gated (evacuation is mandatory).
  MigrationOutcome evacuate(core::VmId vm, topo::HostId target);

  /// Re-run the pre-copy draw for a budget-rejected decision made on another
  /// replica, so this replica's RNG stream and reject counter stay aligned.
  void replay_budget_reject(core::VmId vm);

  const core::CostModel& model() const { return *model_; }
  core::Allocation& alloc() { return *alloc_; }
  const core::Allocation& alloc() const { return *alloc_; }
  const traffic::TrafficMatrix& tm() const { return *tm_; }

  double migrated_mb() const { return migrated_mb_; }
  double migration_time_s() const { return migration_time_s_; }
  std::uint64_t budget_rejected() const { return budget_rejected_; }
  std::uint64_t evacuations() const { return evacuations_; }

 private:
  MigrationOutcome simulate_migration(const core::VmSpec& spec);

  const core::CostModel* model_;
  core::Allocation* alloc_;
  const traffic::TrafficMatrix* tm_;
  double migration_budget_mb_;
  Ipam ipam_;
  util::Rng migration_rng_;
  std::vector<bool> host_up_;
  double migrated_mb_ = 0.0;
  double migration_time_s_ = 0.0;
  std::uint64_t budget_rejected_ = 0;
  std::uint64_t evacuations_ = 0;
};

/// VM id <-> VM IPv4 address (the paper uses the address as the id).
inline core::VmId vm_of_addr(Ipv4 addr) {
  return static_cast<core::VmId>(addr - Ipam::kVmBase);
}
inline Ipv4 addr_of_vm(core::VmId id) { return Ipam::kVmBase + id; }

/// Drain a leaving host (placement-manager role): live-migrate every hosted
/// VM to the feasible up host with the best Lemma-3 delta; VMs with no
/// feasible target stay put. Runs identically on every replica.
void drain_host(SimHypervisor& hv, topo::HostId host);

}  // namespace score::hypervisor
