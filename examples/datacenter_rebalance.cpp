// Always-on operation: S-CORE adapting to workload churn.
//
// The paper positions S-CORE as an *always-on* control loop (unlike initial-
// placement schemes): when traffic dynamics change, the next token rounds
// re-localise the new hotspots. This example
//   1. runs S-CORE to a stable allocation on workload A,
//   2. deploys a new service whose members are scattered (workload B),
//   3. runs further token iterations with a non-zero migration cost c_m,
// and reports how few migrations the second phase needs (only the new
// service moves — stability, Fig. 2's plateau).
//
// Run:  ./datacenter_rebalance
#include <cstdio>

#include "baselines/placement.hpp"
#include "driver/simulation.hpp"
#include "core/token_policy.hpp"
#include "topology/fat_tree.hpp"
#include "traffic/generator.hpp"

int main() {
  using namespace score;

  topo::FatTree topology(topo::FatTreeConfig{.k = 4});  // 16 hosts

  traffic::GeneratorConfig gcfg;
  gcfg.num_vms = 48;
  gcfg.seed = 17;
  traffic::TrafficMatrix tm = traffic::generate_traffic(gcfg);

  core::ServerCapacity cap;
  cap.vm_slots = 6;
  cap.ram_mb = 6 * 256.0;
  cap.cpu_cores = 6.0;
  util::Rng rng(3);
  core::Allocation alloc = baselines::make_allocation(
      topology, cap, gcfg.num_vms, core::VmSpec{},
      baselines::PlacementStrategy::kRandom, rng);

  core::CostModel model(topology, core::LinkWeights::exponential(3));

  // Operators usually price migrations: require the gain of a move to exceed
  // a fraction of a typical heavy pair's cost.
  core::EngineConfig ecfg;
  ecfg.migration_cost = model.pair_cost(1e5, 1);
  core::MigrationEngine engine(model, ecfg);

  std::printf("Phase 1: initial convergence on workload A\n");
  core::RoundRobinPolicy policy_a;
  driver::ScoreSimulation sim_a(engine, policy_a, alloc, tm);
  const auto res_a = sim_a.run();
  std::printf("  cost %.3e -> %.3e (%.1f%%), %zu migrations, %zu iterations\n",
              res_a.initial_cost, res_a.final_cost, 100.0 * res_a.reduction(),
              res_a.total_migrations, res_a.iterations.size());

  // Phase 2: a new 8-VM analytics service arrives, scattered across pods,
  // with heavy all-to-frontend traffic (ids 0..7 reused as the service).
  std::printf("\nPhase 2: new service deployed; traffic matrix changes\n");
  for (traffic::VmId member = 1; member < 8; ++member) {
    tm.apply(traffic::FlowDelta{0, member, 5e6});  // 5 Mb/s to the frontend
  }
  core::RoundRobinPolicy policy_b;
  driver::ScoreSimulation sim_b(engine, policy_b, alloc, tm);
  const auto res_b = sim_b.run();
  std::printf("  cost %.3e -> %.3e (%.1f%%), %zu migrations, %zu iterations\n",
              res_b.initial_cost, res_b.final_cost, 100.0 * res_b.reduction(),
              res_b.total_migrations, res_b.iterations.size());

  std::printf("\nPhase 2 needed %zu migrations vs %zu at cold start: the\n"
              "always-on loop only moves what the traffic change touched.\n",
              res_b.total_migrations, res_a.total_migrations);
  return 0;
}
