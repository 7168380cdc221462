// The dom0 pipeline end to end: flow monitoring -> token -> decision ->
// live migration (paper §V-B).
//
// Plays the role of the hypervisor control plane on one host:
//   1. feeds Open-vSwitch-style datapath samples into the flow table,
//   2. computes the per-peer aggregate rates for the token-holding VM
//      (§V-B.3 throughput calculation),
//   3. builds the HLF token wire message (§V-B.2),
//   4. makes the Theorem-1 migration decision,
//   5. simulates the resulting pre-copy live migration and prints the
//      transfer/downtime figures the testbed measures (Fig. 5).
//
// Run:  ./live_migration_demo
#include <cstdio>

#include "core/cost_model.hpp"
#include "core/migration_engine.hpp"
#include "hypervisor/flow_table.hpp"
#include "hypervisor/live_migration.hpp"
#include "hypervisor/token_codec.hpp"
#include "topology/canonical_tree.hpp"

int main() {
  using namespace score;

  // --- 1. flow monitoring ----------------------------------------------------
  // VM ids double as IPv4 addresses (the Xen implementation's convention).
  hypervisor::FlowTable flows;
  const hypervisor::IpAddr vm0 = 0x0A000001, vm1 = 0x0A000002, vm2 = 0x0A010003;
  // 60 s of samples: vm0<->vm2 is an elephant, vm0<->vm1 background mice.
  for (int t = 0; t < 60; ++t) {
    flows.update({vm0, vm2, 5001, 443, 6}, 12'500'000, 8300, t);  // ~100 Mb/s
    flows.update({vm0, vm1, 5002, 80, 6}, 60'000, 60, t);         // ~0.5 Mb/s
    flows.update({vm1, vm0, 5003, 80, 6}, 30'000, 30, t);
  }
  std::printf("flow table: %zu flows tracked for VM0\n",
              flows.flows_for_ip(vm0).size());

  // --- 2. throughput calculation (token holder = VM0) ------------------------
  const auto peers = flows.peer_rates_Bps(vm0, 60.0);
  for (const auto& [peer, rate] : peers) {
    std::printf("  peer %08x: %.2f Mb/s aggregate\n", peer, rate * 8.0 / 1e6);
  }

  // --- 3. token message -------------------------------------------------------
  hypervisor::Token token;
  token.policy = hypervisor::TokenPolicyId::kHighestLevelFirst;
  token.holder = vm0;
  token.entries = {{vm0, 3}, {vm1, 1}, {vm2, 3}};
  const auto wire = hypervisor::encode_token(token);
  std::printf("HLF token: %zu entries, %zu bytes on the wire\n",
              token.entries.size(), wire.size());

  // --- 4. migration decision --------------------------------------------------
  topo::CanonicalTreeConfig tcfg;
  tcfg.racks = 4;
  tcfg.hosts_per_rack = 2;
  tcfg.racks_per_pod = 2;
  tcfg.cores = 1;
  topo::CanonicalTree topology(tcfg);
  core::CostModel model(topology, core::LinkWeights::exponential(3));
  core::Allocation alloc(topology.num_hosts(), core::ServerCapacity{});
  const core::VmId u = alloc.add_vm(core::VmSpec{}, 0);   // VM0 on host 0
  const core::VmId m = alloc.add_vm(core::VmSpec{}, 1);   // VM1 rack-local
  const core::VmId e = alloc.add_vm(core::VmSpec{}, 7);   // VM2 across the core

  // Feed the measured rates into the TM the decision consumes.
  const traffic::TrafficMatrix tm(
      3, {{u, e, flows.aggregate_rate_Bps(vm0, vm2, 60.0) * 8.0},
          {u, m, flows.aggregate_rate_Bps(vm0, vm1, 60.0) * 8.0}});

  core::MigrationEngine engine(model);
  const core::Decision d = engine.evaluate(alloc, tm, u);
  std::printf("decision for VM0: migrate=%s target=host%u deltaC=%.3e\n",
              d.migrate ? "yes" : "no", d.target, d.delta);

  // --- 5. live migration ------------------------------------------------------
  if (d.migrate) {
    hypervisor::PreCopyMigrationModel migration;
    util::Rng rng(2014);
    for (double bg : {0.0, 0.5, 1.0}) {
      const auto out = migration.simulate(rng, bg);
      std::printf("  bg-load %.0f%%: %6.1f MB moved in %.2f s, downtime %.1f ms "
                  "(%d pre-copy rounds)\n",
                  bg * 100.0, out.migrated_mb, out.total_time_s, out.downtime_ms,
                  out.precopy_rounds);
    }
    alloc.migrate(u, d.target);
    std::printf("VM0 now colocated with its elephant peer: pair level %d\n",
                model.level(alloc, u, e));
  }
  return 0;
}
