// bench_runner — the benchmark harness, with machine-readable output.
//
// Runs the suites that reproduce the paper's evaluation and anchor the perf
// trajectory — Fig. 2 token convergence, Fig. 3 cost-ratio-over-GA on both
// topologies, the cost-model micro benchmark, the remaining paper figures
// and ablations, and (with --scale paper) the paper-scale §VI scenarios —
// and writes every result as JSON to BENCH_results.json (override with
// --out). Each future PR reruns this and diffs against the committed
// trajectory file via tools/bench_compare.py to show its perf delta.
//
// Usage:
//   bench_runner [--out FILE] [--quick] [--scale default|paper|huge]
//               [--threads N] [--suite NAME]
//               [--mode both|centralized|distributed]
//
//   --quick   shrink the GA normaliser budget and micro rep counts so the
//             whole run finishes in a few seconds (CI smoke); ratios are
//             slightly noisier.
//   --scale   "paper" additionally runs the paper-scale suites: fat-tree
//             k=16 (1024 hosts) and k=32 (8192 hosts), and the canonical
//             tree at 2560 hosts with 16 VM slots per host (§VI), plus the
//             tokens × threads ablation (parallel token rounds on the
//             fat-tree k=16 scenario: wall-clock scaling + cost parity)
//             and the distributed-vs-centralized suite (the end-to-end
//             message-passing runtime against the shared-memory loop:
//             final-cost ratio, rounds, token messages/bytes, loss
//             robustness, trace determinism — all hard-checked).
//             These skip the GA normaliser (intractable at that size) and
//             report absolute reduction plus cached/brute-force cost-oracle
//             timings. "huge" is a superset of "paper": it additionally runs
//             the mega-scale suite — fat-tree k=48 (27648 hosts) and k=64
//             (65536 hosts), and the canonical 1M-VM world (128000 hosts,
//             16 VM slots per host at 50% occupancy) — recording peak-RSS
//             bytes_per_vm and end-to-end ns_per_migration, both hard-gated
//             one-sided. Default: "default" (the fast trajectory subset).
//   --threads max worker threads for the tokens × threads ablation
//             (default 4).
//   --suite   run only one suite of kSuites below (default: all suites the
//             selected scale includes). The CI multi-core re-measure job
//             uses `--scale paper --suite tokens-threads`. figures is Fig.
//             3a-c, 4, 5a, 5b-d and control-plane overhead; ablations is
//             A1-A4, A6 and A7. steady-state is the §VI-B
//             continuous-operation suite: VM lifecycle churn over dynamic
//             traffic epochs, distributed re-optimisation per epoch,
//             hard-gated against per-epoch fresh centralized
//             re-optimisation (and trace determinism). streaming-ingest is
//             the flow-delta suite: O(1) fold throughput (gated >= 1e6
//             deltas/sec, folded total == brute-force rebuild) plus
//             drift-triggered streaming runs gated at the <= 1.05 band vs
//             fresh re-optimisation.
//   --mode    restrict the dist-vs-centralized suite to one execution mode
//             (cross-mode hard checks need "both", the default).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "baselines/ga_optimizer.hpp"
#include "bench_support.hpp"
#include "core/cost_model.hpp"
#include "core/scenario_io.hpp"
#include "core/token_policy.hpp"
#include "driver/continuous.hpp"
#include "driver/convergence.hpp"
#include "driver/multi_token.hpp"
#include "driver/simulation.hpp"
#include "driver/streaming.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "traffic/ingest.hpp"
#include "util/exec_policy.hpp"
#include "util/stats.hpp"

namespace {

using namespace score;
using bench::RunOptions;

// Fig. 2: ratio of migrated VMs per token-passing iteration, canonical tree,
// both policies. The paper's claim: the ratio plummets after iteration 2.
bool run_fig2(const RunOptions& /*opt*/, bench::JsonReport& report) {
  for (const std::string policy_name : {"round-robin", "highest-level-first"}) {
    bench::Stopwatch sw;
    auto s =
        bench::make_scenario("canonical-tree", traffic::Intensity::kSparse);
    s.bind_cache();
    core::MigrationEngine engine(*s.model);
    auto policy = core::make_policy(policy_name);

    driver::SimConfig cfg;
    cfg.iterations = 5;
    cfg.stop_when_stable = false;
    driver::ScoreSimulation sim(engine, *policy, *s.alloc, s.tm);
    const driver::SimResult res = sim.run(cfg);

    bench::BenchRecord rec;
    rec.suite = "fig2-convergence";
    rec.scenario = "canonical-tree/" + policy_name;
    rec.wall_time_s = sw.elapsed_s();
    rec.cost_reduction_pct = 100.0 * res.reduction();
    rec.migrations = res.total_migrations;
    for (std::size_t i = 0; i < res.iterations.size(); ++i) {
      rec.metric("migrated_ratio_iter" + std::to_string(i + 1),
                 res.iterations[i].migrated_ratio);
    }
    rec.metric("sim_duration_s", res.duration_s);
    report.add(rec);
    std::cerr << "[fig2] " << rec.scenario << ": reduction "
              << rec.cost_reduction_pct << "%, " << rec.migrations
              << " migrations in " << rec.wall_time_s << "s\n";
  }
  return true;
}

// Fig. 3d-i: final communication-cost ratio over the GA-approximated
// optimum, canonical tree (3d-f) and fat-tree (3g-i), at the sparse, medium
// (x10) and dense (x50) intensities. The same base TM is scaled per
// intensity (the paper's methodology); density effects come from the
// bandwidth constraint binding at the higher scales.
bool run_fig3(const RunOptions& opt, bench::JsonReport& report) {
  baselines::GaConfig ga_cfg;
  ga_cfg.polish = baselines::GaPolish::kFinal;  // see GaPolish docs
  ga_cfg.population = opt.quick ? 32 : 96;
  ga_cfg.max_generations = opt.quick ? 60 : 400;
  ga_cfg.stop_window = opt.quick ? 10 : 20;

  for (const std::string topo_name : {"canonical-tree", "fat-tree"}) {
    for (const traffic::Intensity intensity :
         {traffic::Intensity::kSparse, traffic::Intensity::kMedium,
          traffic::Intensity::kDense}) {
      const std::string intensity_name = traffic::intensity_name(intensity);
      const std::uint64_t seed = 42;

      // GA normaliser: one search per intensity, from the same initial state.
      bench::Stopwatch ga_sw;
      auto ga_scenario = bench::make_scenario(topo_name, intensity, seed);
      baselines::GaOptimizer ga(*ga_scenario.model, ga_cfg);
      const auto ga_res = ga.optimize(*ga_scenario.alloc, ga_scenario.tm);
      const double opt_cost = ga_res.best_cost;
      const double ga_time = ga_sw.elapsed_s();

      for (const std::string policy_name :
           {"round-robin", "highest-level-first"}) {
        bench::Stopwatch sw;
        auto s = bench::make_scenario(topo_name, intensity, seed);
        s.bind_cache();
        core::MigrationEngine engine(*s.model);
        auto policy = core::make_policy(policy_name);
        driver::SimConfig cfg;
        cfg.iterations = 8;
        driver::ScoreSimulation sim(engine, *policy, *s.alloc, s.tm);
        const driver::SimResult res = sim.run(cfg);

        bench::BenchRecord rec;
        rec.suite = "fig3-cost-ratio";
        rec.scenario = topo_name + "/" + intensity_name + "/" + policy_name;
        rec.wall_time_s = sw.elapsed_s();
        rec.cost_reduction_pct = 100.0 * res.reduction();
        rec.migrations = res.total_migrations;
        const double final_ratio =
            opt_cost > 0.0 ? res.final_cost / opt_cost : 0.0;
        rec.metric("initial_ratio",
                   opt_cost > 0.0 ? res.initial_cost / opt_cost : 0.0);
        rec.metric("final_ratio", final_ratio);
        rec.metric("ga_cost", opt_cost);
        rec.metric("ga_time_s", ga_time);
        report.add(rec);
        std::cerr << "[fig3] " << rec.scenario << ": final ratio "
                  << final_ratio << " in " << rec.wall_time_s << "s\n";
      }
    }
  }
  return true;
}

// Micro benchmark: the operations that bound per-token-hold work in dom0,
// plus the cached cost oracle the drivers now run on. "total_cost" measures
// the production path (CachedCostModel, O(1) on the bound pair);
// "total_cost_bruteforce" keeps the Eq. (2) re-walk as the reference;
// "apply_migration" measures the O(degree) incremental fold.
bool run_micro(const RunOptions& opt, bench::JsonReport& report) {
  const std::size_t num_vms = 256;
  topo::CanonicalTreeConfig tcfg;
  tcfg.racks = 64;
  tcfg.hosts_per_rack = 10;
  tcfg.racks_per_pod = 8;
  tcfg.cores = 4;
  topo::CanonicalTree topology(tcfg);
  core::CachedCostModel model(topology, core::LinkWeights::exponential(3));
  core::CostModel brute(topology, core::LinkWeights::exponential(3));

  traffic::GeneratorConfig gen;
  gen.num_vms = num_vms;
  traffic::TrafficMatrix tm = traffic::generate_traffic(gen);

  util::Rng rng(1);
  core::ServerCapacity cap;
  cap.vm_slots = 8;
  cap.ram_mb = 8 * 256.0;
  cap.cpu_cores = 8.0;
  core::Allocation alloc = baselines::make_allocation(
      topology, cap, num_vms, core::VmSpec{}, baselines::PlacementStrategy::kRandom, rng);
  model.bind(alloc, tm);
  core::MigrationEngine engine(model);

  // Rep counts are whole multiples of the per-VM cycle (num_vms, or 2 for
  // the ping-pong), so checksum/calls is invariant across --quick and full
  // runs — that per-call checksum is what the CI gate compares.
  const auto time_op = [&](const std::string& name, std::size_t reps,
                           auto&& op) {
    // Untimed warmup (even count, preserving the ping-pong parity) so cold
    // caches don't dominate the small --quick rep counts.
    const std::size_t warmup = std::max<std::size_t>(2, reps / 10) & ~std::size_t{1};
    double sink = 0.0;
    for (std::size_t i = 0; i < warmup; ++i) sink += op(i);
    sink = 0.0;
    bench::Stopwatch sw;
    for (std::size_t i = 0; i < reps; ++i) sink += op(i);
    const double elapsed = sw.elapsed_s();

    bench::BenchRecord rec;
    rec.suite = "micro-cost-model";
    rec.scenario = name;
    rec.wall_time_s = elapsed;
    rec.metric("ns_per_call", 1e9 * elapsed / static_cast<double>(reps));
    rec.metric("calls", static_cast<double>(reps));
    rec.metric("checksum", sink);  // defeats dead-code elimination
    rec.metric("checksum_per_call", sink / static_cast<double>(reps));
    report.add(rec);
    std::cerr << "[micro] " << name << ": "
              << 1e9 * elapsed / static_cast<double>(reps) << " ns/call\n";
  };

  time_op("total_cost", opt.quick ? 8 * num_vms : 80 * num_vms,
          [&](std::size_t) { return model.total_cost(alloc, tm); });
  time_op("total_cost_bruteforce", opt.quick ? 20 : 200,
          [&](std::size_t) { return brute.total_cost(alloc, tm); });
  time_op("migration_delta", opt.quick ? 8 * num_vms : 80 * num_vms,
          [&](std::size_t i) {
    const auto vm = static_cast<core::VmId>(i % num_vms);
    return model.migration_delta(alloc, tm, vm,
                                 (vm * 37) % topology.num_hosts());
  });
  time_op("engine_evaluate", opt.quick ? num_vms : 8 * num_vms,
          [&](std::size_t i) {
    const auto vm = static_cast<core::VmId>(i % num_vms);
    return engine.evaluate(alloc, tm, vm).delta;
  });

  // Ping-pong one VM between its home server and a feasible alternative so
  // every call commits a real move through the incremental path. Even rep
  // counts restore the initial placement.
  {
    const core::VmId vm = 0;
    const core::ServerId home = alloc.server_of(vm);
    core::ServerId away = core::kInvalidServer;
    for (core::ServerId s = 0; s < topology.num_hosts(); ++s) {
      if (s != home && alloc.can_host(s, alloc.spec(vm))) {
        away = s;
        break;
      }
    }
    if (away != core::kInvalidServer) {
      time_op("apply_migration", opt.quick ? 2000 : 20000, [&](std::size_t i) {
        model.apply_migration(alloc, tm, vm, i % 2 == 0 ? away : home);
        return model.total_cost(alloc, tm);
      });
    }
  }
  return true;
}

// Paper §VI fleet shared by the paper-scale suite and the tokens × threads
// ablation: 16 VM slots per host, fleet at 50% slot occupancy, one fixed
// workload/placement seed — keeping both suites on the *same* scenario so
// their rows in BENCH_results.json stay cross-comparable.
struct PaperFleet {
  core::ServerCapacity cap;
  std::size_t num_vms;
  traffic::TrafficMatrix tm;
  core::Allocation alloc;
};

PaperFleet make_paper_fleet(const topo::Topology& topology) {
  core::ServerCapacity cap;
  cap.vm_slots = 16;
  cap.ram_mb = 16 * 256.0;
  cap.cpu_cores = 16.0;
  const std::size_t num_vms = topology.num_hosts() * cap.vm_slots / 2;

  traffic::GeneratorConfig gen;
  gen.num_vms = num_vms;
  gen.mean_service_size = 24;
  gen.intra_service_degree = 4.0;
  gen.cross_service_prob = 0.3;
  gen.seed = 42;
  traffic::TrafficMatrix tm = traffic::generate_traffic(gen);

  util::Rng rng(43);
  core::Allocation alloc = baselines::make_allocation(
      topology, cap, num_vms, core::VmSpec{},
      baselines::PlacementStrategy::kRandom, rng);
  return {cap, num_vms, std::move(tm), std::move(alloc)};
}

// Tokens × threads ablation (paper suite): the wall-clock scaling claim of
// parallel token rounds. Fat-tree k=16 at paper scale, k concurrent tokens
// walking disjoint partitions under seq / par(1) / par(2) / par(n) execution
// policies. Results are policy-invariant by construction (the determinism
// tests enforce it), so every scenario must report the *same* final cost —
// checked here, hard failure on divergence — while sim_wall_s shrinks with
// the thread count. speedup_vs_par1 is the headline metric.
bool run_tokens_threads(const RunOptions& opt, bench::JsonReport& report) {
  const std::unique_ptr<topo::Topology> topology =
      bench::make_topology("fat-tree-k16");
  const PaperFleet fleet = make_paper_fleet(*topology);
  const traffic::TrafficMatrix& tm = fleet.tm;
  const std::size_t num_vms = fleet.num_vms;

  // --threads caps the widest policy: never spawn more workers than asked.
  std::vector<util::ExecPolicy> policies = {util::ExecPolicy::seq(),
                                            util::ExecPolicy::par(1)};
  if (opt.threads >= 2) policies.push_back(util::ExecPolicy::par(2));
  if (opt.threads > 2) policies.push_back(util::ExecPolicy::par(opt.threads));

  bool ok = true;
  for (const std::size_t tokens : {4u, 16u}) {
    double seq_final_cost = 0.0;
    double par1_wall_s = 0.0;
    for (const util::ExecPolicy& policy : policies) {
      core::Allocation alloc = fleet.alloc;
      core::CachedCostModel model(*topology, core::LinkWeights::exponential(3));
      model.bind(alloc, tm);
      core::MigrationEngine engine(model);

      driver::MultiTokenConfig cfg;
      cfg.tokens = tokens;
      cfg.iterations = 2;  // fixed pass count: wall-clock comparable across rows
      cfg.stop_when_stable = false;
      cfg.policy = policy;

      bench::Stopwatch sim_sw;
      driver::MultiTokenSimulation sim(engine, alloc, tm);
      const driver::SimResult res = sim.run(cfg);
      const double sim_wall = sim_sw.elapsed_s();

      if (policy == util::ExecPolicy::seq()) seq_final_cost = res.final_cost;
      if (policy == util::ExecPolicy::par(1)) par1_wall_s = sim_wall;

      // Cost-reduction parity: every policy must land on the sequential
      // final cost (bit-identical modulo summation rounding).
      const double rel = std::abs(res.final_cost - seq_final_cost) /
                         (1.0 + std::abs(seq_final_cost));
      if (rel > 1e-9) {
        std::cerr << "[tokens-threads] PARITY FAILURE: tokens=" << tokens
                  << " policy=" << policy.name() << " final cost "
                  << res.final_cost << " != sequential " << seq_final_cost
                  << " (rel " << rel << ")\n";
        ok = false;
      }

      bench::BenchRecord rec;
      rec.suite = "ablation-tokens-threads";
      rec.scenario = "fat-tree-k16/tokens" + std::to_string(tokens) + "/" +
                     policy.name();
      rec.wall_time_s = sim_wall;
      rec.cost_reduction_pct = 100.0 * res.reduction();
      rec.migrations = res.total_migrations;
      rec.metric("num_vms", static_cast<double>(num_vms));
      rec.metric("tokens", static_cast<double>(tokens));
      rec.metric("threads", policy.parallel()
                                ? static_cast<double>(policy.requested_threads())
                                : 0.0);
      // Hardware context: on a single-CPU host par(n) can only show parity
      // (speedup_vs_par1 ~ 1); the scaling claim needs hw_threads > 1.
      rec.metric("hw_threads",
                 static_cast<double>(std::thread::hardware_concurrency()));
      rec.metric("passes", static_cast<double>(res.iterations.size()));
      rec.metric("sim_wall_s", sim_wall);
      rec.metric("sim_duration_s", res.duration_s);
      rec.metric("final_cost", res.final_cost);
      if (policy.parallel() && policy.requested_threads() > 1 && par1_wall_s > 0.0) {
        rec.metric("speedup_vs_par1", par1_wall_s / sim_wall);
      }
      report.add(rec);
      std::cerr << "[tokens-threads] " << rec.scenario << ": " << sim_wall
                << "s wall, reduction " << rec.cost_reduction_pct << "%, "
                << rec.migrations << " migrations"
                << (policy.parallel() && policy.requested_threads() > 1 &&
                            par1_wall_s > 0.0
                        ? " (speedup vs par(1): " +
                              std::to_string(par1_wall_s / sim_wall) + "x)"
                        : "")
                << "\n";
    }
  }
  return ok;
}

// Paper-scale suite (§VI topologies): short Round-Robin runs plus cost-
// oracle timings at the sizes the paper evaluates. No GA normaliser — the
// reduction is reported against the initial random placement.
bool run_paper_scale(const RunOptions& opt, bench::JsonReport& report) {
  for (const std::string name :
       {"canonical-2560", "fat-tree-k16", "fat-tree-k32"}) {
    const std::unique_ptr<topo::Topology> topo_ptr = bench::make_topology(name);
    bench::Stopwatch sw;
    const topo::Topology& topology = *topo_ptr;
    core::CachedCostModel model(topology, core::LinkWeights::exponential(3));
    core::CostModel brute(topology, core::LinkWeights::exponential(3));

    PaperFleet fleet = make_paper_fleet(topology);
    const std::size_t num_vms = fleet.num_vms;
    traffic::TrafficMatrix& tm = fleet.tm;
    core::Allocation& alloc = fleet.alloc;
    model.bind(alloc, tm);

    core::MigrationEngine engine(model);
    core::RoundRobinPolicy rr;
    driver::SimConfig cfg;
    // Fixed iteration count even under --quick: the reduction and migration
    // numbers stay comparable across runs (only the timing reps shrink).
    cfg.iterations = 2;
    cfg.stop_when_stable = false;
    driver::ScoreSimulation sim(engine, rr, alloc, tm);

    bench::Stopwatch sim_sw;
    const driver::SimResult res = sim.run(cfg);
    const double sim_wall = sim_sw.elapsed_s();

    // Cost-oracle timings at this scale, post-convergence state.
    const std::size_t cached_reps = opt.quick ? 2000 : 20000;
    bench::Stopwatch cached_sw;
    double sink = 0.0;
    for (std::size_t i = 0; i < cached_reps; ++i) sink += model.total_cost(alloc, tm);
    const double cached_ns = 1e9 * cached_sw.elapsed_s() / static_cast<double>(cached_reps);
    const std::size_t brute_reps = opt.quick ? 2 : 5;
    bench::Stopwatch brute_sw;
    for (std::size_t i = 0; i < brute_reps; ++i) sink += brute.total_cost(alloc, tm);
    const double brute_ns = 1e9 * brute_sw.elapsed_s() / static_cast<double>(brute_reps);

    bench::BenchRecord rec;
    rec.suite = "paper-scale";
    rec.scenario = name;
    rec.wall_time_s = sw.elapsed_s();
    rec.cost_reduction_pct = 100.0 * res.reduction();
    rec.migrations = res.total_migrations;
    rec.metric("num_hosts", static_cast<double>(topology.num_hosts()));
    rec.metric("num_vms", static_cast<double>(num_vms));
    rec.metric("iterations", static_cast<double>(res.iterations.size()));
    rec.metric("sim_wall_s", sim_wall);
    rec.metric("total_cost_cached_ns", cached_ns);
    rec.metric("total_cost_bruteforce_ns", brute_ns);
    // `calls` keys the gate's raw-checksum guard: --quick shrinks the rep
    // counts, so mismatched runs skip the (rep-dependent) checksum.
    rec.metric("calls", static_cast<double>(cached_reps + brute_reps));
    rec.metric("checksum", sink);
    report.add(rec);
    std::cerr << "[paper-scale] " << rec.scenario << ": " << topology.num_hosts()
              << " hosts, " << num_vms << " VMs, reduction "
              << rec.cost_reduction_pct << "% in " << sim_wall
              << "s sim (cached total_cost " << cached_ns << " ns, brute "
              << brute_ns << " ns)\n";
  }
  return true;
}

// Distributed-vs-centralized suite (paper suite): the paper's headline claim
// quantified end to end. The message-passing dom0 runtime — deciding from
// flow-table measurements and location/capacity probes only — must land
// within 1% of the centralized shared-memory loop's final cost on the §VI
// topologies, stay there under 5% control-message loss (probe timeouts +
// token retransmission), and reproduce its exact wire trace for a fixed
// seed. All three properties are hard checks: divergence fails the run.
bool run_dist_vs_centralized(const RunOptions& opt, bench::JsonReport& report) {
  constexpr std::size_t kMaxRounds = 8;
  constexpr double kRatioTolerance = 0.01;
  bool ok = true;

  for (const std::string name : {"canonical-2560", "fat-tree-k16"}) {
    const std::unique_ptr<topo::Topology> topo_ptr = bench::make_topology(name);
    const topo::Topology& topology = *topo_ptr;
    const PaperFleet fleet = make_paper_fleet(topology);

    driver::ConvergenceReport central;
    if (opt.mode != "distributed") {
      core::Allocation alloc = fleet.alloc;
      core::CachedCostModel model(topology, core::LinkWeights::exponential(3));
      model.bind(alloc, fleet.tm);
      core::MigrationEngine engine(model);
      core::RoundRobinPolicy rr;
      driver::SimConfig cfg;
      cfg.iterations = kMaxRounds;
      bench::Stopwatch sw;
      driver::ScoreSimulation sim(engine, rr, alloc, fleet.tm);
      central = driver::summarize(sim.run(cfg));

      bench::BenchRecord rec;
      rec.suite = "distributed-vs-centralized";
      rec.scenario = name + "/centralized";
      rec.wall_time_s = sw.elapsed_s();
      rec.cost_reduction_pct = 100.0 * central.reduction();
      rec.migrations = central.migrations;
      rec.metric("num_hosts", static_cast<double>(topology.num_hosts()));
      rec.metric("num_vms", static_cast<double>(fleet.num_vms));
      rec.metric("rounds_to_convergence", static_cast<double>(central.rounds));
      rec.metric("final_cost", central.final_cost);
      rec.metric("sim_duration_s", central.duration_s);
      report.add(rec);
      std::cerr << "[dist-vs-cent] " << rec.scenario << ": reduction "
                << rec.cost_reduction_pct << "% in " << central.rounds
                << " rounds (" << rec.wall_time_s << "s wall)\n";
    }

    if (opt.mode == "centralized") continue;

    const auto run_distributed = [&](double loss_rate,
                                     hypervisor::RuntimeResult& out) {
      core::Allocation alloc = fleet.alloc;
      core::CachedCostModel model(topology, core::LinkWeights::exponential(3));
      model.bind(alloc, fleet.tm);
      hypervisor::RuntimeConfig rcfg;
      rcfg.policy = "round-robin";
      rcfg.iterations = kMaxRounds;
      rcfg.message_loss_rate = loss_rate;
      rcfg.retransmit_timeout_s = 30.0;  // > decision + probes + one transfer
      bench::Stopwatch sw;
      hypervisor::DistributedScoreRuntime runtime(model, alloc, fleet.tm, rcfg);
      out = runtime.run();
      return sw.elapsed_s();
    };

    for (const double loss : {0.0, 0.05}) {
      hypervisor::RuntimeResult res;
      const double wall = run_distributed(loss, res);
      const driver::ConvergenceReport rep = res.report();

      bench::BenchRecord rec;
      rec.suite = "distributed-vs-centralized";
      rec.scenario =
          name + (loss == 0.0 ? "/distributed" : "/distributed-loss5");
      rec.wall_time_s = wall;
      rec.cost_reduction_pct = 100.0 * rep.reduction();
      rec.migrations = rep.migrations;
      rec.metric("num_hosts", static_cast<double>(topology.num_hosts()));
      rec.metric("num_vms", static_cast<double>(fleet.num_vms));
      rec.metric("rounds_to_convergence", static_cast<double>(rep.rounds));
      rec.metric("final_cost", rep.final_cost);
      rec.metric("sim_duration_s", rep.duration_s);
      rec.metric("token_messages", static_cast<double>(rep.token_messages));
      rec.metric("token_bytes", static_cast<double>(rep.token_bytes));
      rec.metric("control_messages", static_cast<double>(rep.control_messages));
      rec.metric("control_bytes", static_cast<double>(rep.control_bytes));
      rec.metric("messages_lost", static_cast<double>(res.messages_lost));
      rec.metric("token_retransmits", static_cast<double>(res.token_reinjections));
      rec.metric("probe_timeouts", static_cast<double>(res.probe_timeouts));
      rec.metric("migrated_mb", res.migrated_mb);
      double ratio = 0.0;
      if (opt.mode == "both" && central.final_cost > 0.0) {
        ratio = rep.final_cost / central.final_cost;
        rec.metric("final_cost_ratio_vs_centralized", ratio);
        // One-sided: distributed must not end more than 1% above the
        // centralized final cost. Ending *below* it is fine — under loss,
        // token retransmissions grant some VMs extra holds, which can only
        // find additional strictly cost-reducing moves.
        if (ratio - 1.0 > kRatioTolerance) {
          std::cerr << "[dist-vs-cent] CONVERGENCE FAILURE: " << rec.scenario
                    << " final cost " << rep.final_cost << " vs centralized "
                    << central.final_cost << " (ratio " << ratio
                    << ", tolerance " << kRatioTolerance << ")\n";
          ok = false;
        }
      }
      report.add(rec);
      std::cerr << "[dist-vs-cent] " << rec.scenario << ": reduction "
                << rec.cost_reduction_pct << "% in " << rep.rounds
                << " rounds, " << rep.token_messages << " token msgs ("
                << rep.token_bytes << " B)"
                << (ratio > 0.0
                        ? ", ratio vs centralized " + std::to_string(ratio)
                        : std::string())
                << " (" << wall << "s wall)\n";

      // Determinism seam: the loss-free run must reproduce its wire trace
      // bit for bit under the same seed.
      if (loss == 0.0) {
        hypervisor::RuntimeResult repeat;
        run_distributed(0.0, repeat);
        if (repeat.trace_hash != res.trace_hash ||
            repeat.final_cost != res.final_cost) {
          std::cerr << "[dist-vs-cent] DETERMINISM FAILURE: " << name
                    << " trace hash " << std::hex << res.trace_hash << " vs "
                    << repeat.trace_hash << std::dec << "\n";
          ok = false;
        }
      }
    }
  }
  return ok;
}

// Steady-state suite (paper suite): §VI-B continuous operation quantified.
// The world churns — tenants arrive and depart while hotspots drift across
// traffic epochs — and the *distributed* runtime re-runs token rounds each
// epoch from the carried (drifted) state. The hard gate: every epoch's
// steady-state cost must stay within kSteadyBand of a fresh centralized
// re-optimisation of the same epoch (the paper's stability claim — tracking
// churn incrementally is as good as starting over). A fixed lifecycle seed
// must also reproduce the event timeline and structural trace hash exactly
// (checked by a second run on the fat-tree scenario).
bool run_steady_state(const RunOptions& opt, bench::JsonReport& report) {
  // One-sided band: continued cost may beat the fresh reference (carried
  // state is a head start) but must not exceed it by more than 5%.
  constexpr double kSteadyBand = 0.05;
  bool ok = true;

  for (const std::string name : {"canonical-2560", "fat-tree-k16"}) {
    const std::unique_ptr<topo::Topology> topo_ptr = bench::make_topology(name);
    const topo::Topology& topology = *topo_ptr;
    for (const traffic::Intensity intensity :
         {traffic::Intensity::kSparse, traffic::Intensity::kDense}) {
      driver::ContinuousConfig cfg;
      cfg.server_capacity.vm_slots = 16;
      cfg.server_capacity.ram_mb = 16 * 256.0;
      cfg.server_capacity.cpu_cores = 16.0;
      cfg.generator.num_vms = topology.num_hosts() * cfg.server_capacity.vm_slots / 2;
      cfg.generator.mean_service_size = 24;
      cfg.generator.intra_service_degree = 4.0;
      cfg.generator.cross_service_prob = 0.3;
      cfg.generator.seed = 42;
      cfg.dynamics.seed = 43;
      cfg.intensity_scale = traffic::intensity_scale(intensity);
      cfg.epochs = opt.quick ? 2 : 4;
      cfg.tenant_vms = 32;
      cfg.initial_active_fraction = 0.8;
      cfg.arrival_prob = 0.3;
      cfg.departure_prob = 0.1;
      cfg.lifecycle_seed = 77;
      cfg.iterations_per_epoch = 4;
      cfg.reopt_iterations = 8;
      cfg.mode = "distributed";
      // Nonzero Theorem-1 migration cost: with c_m = 0 every decision is
      // scale-invariant and the intensity sweep would be a no-op. At ×1 this
      // prunes marginal moves; at ×50 almost every win clears it.
      cfg.engine.migration_cost = 1e6;

      bench::Stopwatch sw;
      driver::ContinuousEngine engine(topology, cfg);
      const driver::SteadyStateReport res = engine.run();
      const double wall = sw.elapsed_s();

      double initial_cost = 0.0, final_cost = 0.0, steady_max = 0.0;
      for (const driver::EpochReport& er : res.epochs) {
        if (er.epoch == 0) initial_cost = er.cost_before;
        final_cost = er.cost_after;
        if (er.epoch >= 1) steady_max = std::max(steady_max, er.cost_ratio());
        // Epoch 0 is the cold start from a fresh random placement — the
        // steady-state claim begins once the system has converged, so the
        // band gates every epoch after it (epoch 0 is still reported). A
        // non-empty epoch with an undefined (NaN) ratio fails the band too.
        if (er.epoch >= 1 && er.active_vms > 0 &&
            !(er.cost_ratio() - 1.0 <= kSteadyBand)) {
          std::cerr << "[steady-state] BAND FAILURE: " << name << "/"
                    << traffic::intensity_name(intensity) << " epoch "
                    << er.epoch << " cost " << er.cost_after
                    << " vs fresh re-opt " << er.fresh_cost << " (ratio "
                    << er.cost_ratio() << ", band " << 1.0 + kSteadyBand
                    << ")\n";
          ok = false;
        }
      }

      bench::BenchRecord rec;
      rec.suite = "steady-state";
      rec.scenario =
          name + "/" + traffic::intensity_name(intensity) + "/distributed";
      rec.wall_time_s = wall;
      rec.cost_reduction_pct =
          initial_cost > 0.0 ? 100.0 * (1.0 - final_cost / initial_cost) : 0.0;
      rec.migrations = res.total_migrations();
      rec.metric("num_hosts", static_cast<double>(topology.num_hosts()));
      rec.metric("world_vms", static_cast<double>(cfg.generator.num_vms));
      rec.metric("epochs", static_cast<double>(res.epochs.size()));
      rec.metric("lifecycle_events", static_cast<double>(res.world.timeline.size()));
      rec.metric("mean_cost_ratio_vs_reopt", res.mean_cost_ratio());
      rec.metric("max_cost_ratio_vs_reopt", res.max_cost_ratio());
      rec.metric("max_cost_ratio_steady", steady_max);  // the gated value
      rec.metric("migrations_per_epoch",
                 static_cast<double>(res.total_migrations()) /
                     static_cast<double>(res.epochs.size()));
      rec.metric("migrated_mb", res.total_migrated_mb());
      for (const driver::EpochReport& er : res.epochs) {
        rec.metric("cost_ratio_epoch" + std::to_string(er.epoch), er.cost_ratio());
        rec.metric("reconverge_rounds_epoch" + std::to_string(er.epoch),
                   static_cast<double>(er.rounds));
      }
      report.add(rec);
      std::cerr << "[steady-state] " << rec.scenario << ": mean ratio "
                << res.mean_cost_ratio() << " (max " << res.max_cost_ratio()
                << "), " << res.total_migrations() << " migrations, "
                << res.world.timeline.size() << " events in " << wall
                << "s wall\n";

      // Determinism seam: one re-run on the smaller topology must reproduce
      // the event timeline and the structural trace hash bit for bit.
      if (name == "fat-tree-k16" &&
          intensity == traffic::Intensity::kSparse) {
        driver::ContinuousEngine repeat_engine(topology, cfg);
        const driver::SteadyStateReport repeat = repeat_engine.run();
        if (repeat.trace_hash != res.trace_hash ||
            !(repeat.world.timeline == res.world.timeline)) {
          std::cerr << "[steady-state] DETERMINISM FAILURE: " << rec.scenario
                    << " trace hash " << std::hex << res.trace_hash << " vs "
                    << repeat.trace_hash << std::dec << "\n";
          ok = false;
        }
      }
    }
  }
  return ok;
}

// Streaming-ingest suite (paper suite): the flow-delta API quantified.
//
// Fold throughput (canonical-2560): pre-generated FlowDeltaBatches applied
// to a live matrix whose bound CachedCostModel folds each delta through the
// TrafficObserver seam. Hard gates: >= 1e6 folded deltas/sec, the folded
// Eq. (2) total must equal a brute-force rebuild (rel <= 1e-7), and the
// whole stream must cause zero rebuilds beyond the initial bind.
//
// Drift-triggered runs (canonical-2560 + fat-tree-k16): the full streaming
// engine — ingest thread, O(1) folds, re-optimisation only on cost drift.
// Hard gate: every triggered re-opt (and the final state) lands within the
// <= 1.05 band of a fresh per-event re-optimisation; headline metrics are
// the re-opt count and deltas folded per re-opt.
bool run_streaming_ingest(const RunOptions& opt, bench::JsonReport& report) {
  bool ok = true;

  // ---- fold throughput ------------------------------------------------------
  {
    const std::unique_ptr<topo::Topology> topology =
        bench::make_topology("canonical-2560");
    PaperFleet fleet = make_paper_fleet(*topology);
    traffic::TrafficMatrix& tm = fleet.tm;
    core::CachedCostModel model(*topology, core::LinkWeights::exponential(3));
    core::CostModel brute(*topology, core::LinkWeights::exponential(3));
    model.bind(fleet.alloc, tm);

    traffic::FlowEventConfig ecfg;
    ecfg.events_per_tick = 4096;
    ecfg.seed = 97;
    traffic::FlowEventStream stream(tm, ecfg);
    const std::size_t num_batches = opt.quick ? 32 : 256;
    std::vector<traffic::FlowDeltaBatch> batches;
    batches.reserve(num_batches);
    std::uint64_t updates = 0;
    for (std::size_t i = 0; i < num_batches; ++i) {
      batches.push_back(stream.next_batch());
      updates += batches.back().size();
    }

    const std::uint64_t rebuilds_before = model.rebuilds();
    const std::uint64_t folded_before = model.deltas_folded();
    std::vector<double> batch_ns;
    batch_ns.reserve(batches.size());
    bench::Stopwatch sw;
    for (const traffic::FlowDeltaBatch& batch : batches) {
      bench::Stopwatch batch_sw;
      tm.apply(batch);
      batch_ns.push_back(batch_sw.elapsed_s() * 1e9);
    }
    const double folded_total = model.total_cost(fleet.alloc, tm);
    const double elapsed = sw.elapsed_s();

    const double updates_per_sec =
        elapsed > 0.0 ? static_cast<double>(updates) / elapsed : 0.0;
    const double brute_total = brute.total_cost(fleet.alloc, tm);
    const double rel = std::abs(folded_total - brute_total) /
                       (1.0 + std::abs(brute_total));
    const std::uint64_t extra_rebuilds = model.rebuilds() - rebuilds_before;
    const std::uint64_t folded = model.deltas_folded() - folded_before;

    if (updates_per_sec < 1e6) {
      std::cerr << "[streaming-ingest] THROUGHPUT FAILURE: " << updates_per_sec
                << " folded deltas/sec < 1e6\n";
      ok = false;
    }
    if (rel > 1e-7) {
      std::cerr << "[streaming-ingest] FOLD DIVERGENCE: folded total "
                << folded_total << " vs brute-force " << brute_total
                << " (rel " << rel << " > 1e-7)\n";
      ok = false;
    }
    if (extra_rebuilds != 0) {
      std::cerr << "[streaming-ingest] REBUILD FAILURE: " << extra_rebuilds
                << " cache rebuilds on the pure-delta ingest path\n";
      ok = false;
    }

    bench::BenchRecord rec;
    rec.suite = "streaming-ingest";
    rec.scenario = "canonical-2560/fold-throughput";
    rec.wall_time_s = elapsed;
    rec.metric("num_vms", static_cast<double>(fleet.num_vms));
    rec.metric("batches", static_cast<double>(num_batches));
    rec.metric("updates", static_cast<double>(updates));
    rec.metric("updates_per_sec", updates_per_sec);
    rec.metric("ns_per_update", elapsed > 0.0
                                    ? 1e9 * elapsed / static_cast<double>(updates)
                                    : 0.0);
    rec.metric("deltas_folded", static_cast<double>(folded));
    rec.metric("extra_rebuilds", static_cast<double>(extra_rebuilds));
    rec.metric("fold_vs_brute_rel", rel);
    // Per-batch apply latency: the tail is what bounds staleness under load.
    rec.metric("fold_p50_ns", util::percentile(batch_ns, 50.0));
    rec.metric("fold_p99_ns", util::percentile(batch_ns, 99.0));
    // Rep-dependent: only comparable at equal `calls` (the gate skips it
    // otherwise, e.g. --quick vs full).
    rec.metric("calls", static_cast<double>(updates));
    rec.metric("checksum", folded_total);
    report.add(rec);
    std::cerr << "[streaming-ingest] fold-throughput: " << updates
              << " deltas folded at " << updates_per_sec
              << "/s (rel vs brute " << rel << ", extra rebuilds "
              << extra_rebuilds << ")\n";
  }

  // ---- drift-triggered streaming runs --------------------------------------
  constexpr double kDriftBand = 0.05;

  // The drift-triggered scenario of every row below.
  const auto drift_config = [&opt](const topo::Topology& topology) {
    driver::StreamingConfig cfg;
    cfg.server_capacity.vm_slots = 16;
    cfg.server_capacity.ram_mb = 16 * 256.0;
    cfg.server_capacity.cpu_cores = 16.0;
    cfg.generator.num_vms =
        topology.num_hosts() * cfg.server_capacity.vm_slots / 2;
    cfg.generator.mean_service_size = 24;
    cfg.generator.intra_service_degree = 4.0;
    cfg.generator.cross_service_prob = 0.3;
    cfg.generator.seed = 42;
    cfg.placement_seed = 43;
    // Equal churn intensity per VM across topologies (0.5 events/VM/tick):
    // a fixed absolute rate under-drives large fleets — drift never crosses
    // the trigger threshold while accumulated mis-placement still drifts the
    // fleet out of the fresh-re-opt band.
    cfg.events.events_per_tick = cfg.generator.num_vms / 2;
    cfg.events.seed = 97;
    // Quick mode still needs enough ticks for drift to cross the trigger
    // threshold on the big fleet (3 events/VM total at 6 ticks).
    cfg.ticks = opt.quick ? 6 : 12;
    // Bounded ingest: the producer easily outruns a consumer that stops to
    // re-optimise, so backpressure is what keeps the backlog (and staleness)
    // finite. The queue's high-water mark is hard-gated below.
    cfg.queue_capacity = 4;
    cfg.drift_threshold = 0.05;
    cfg.tokens = 4;
    // Match the re-opt budget to the fresh reference's: the band compares
    // steady-state quality, not optimiser strength (stop_when_stable ends
    // converged runs early either way).
    cfg.iterations_per_reopt = 8;
    cfg.fresh_reference = true;
    cfg.reopt_iterations = 8;
    return cfg;
  };

  // Hard gates on every row: every ratio is defined and within the <= 1.05
  // band vs fresh, and the bounded queue respects its capacity.
  for (const std::string name : {"canonical-2560", "fat-tree-k16"}) {
    const std::unique_ptr<topo::Topology> topo_ptr = bench::make_topology(name);
    const topo::Topology& topology = *topo_ptr;
    const driver::StreamingConfig cfg = drift_config(topology);
    const std::string scenario = name + "/drift-trigger";

    bench::Stopwatch sw;
    driver::StreamingEngine engine(topology, cfg);
    const driver::StreamingReport res = engine.run();
    const double wall = sw.elapsed_s();

    if (res.undefined_cost_ratios() > 0 ||
        res.max_cost_ratio() - 1.0 > kDriftBand) {
      std::cerr << "[streaming-ingest] BAND FAILURE: " << scenario
                << " max cost ratio " << res.max_cost_ratio()
                << " (undefined " << res.undefined_cost_ratios()
                << ") vs band " << 1.0 + kDriftBand << "\n";
      ok = false;
    }
    // Backpressure gate: a bounded queue's depth can never exceed its
    // capacity — a violation means push() stopped blocking on full.
    if (res.max_queue_depth > cfg.queue_capacity) {
      std::cerr << "[streaming-ingest] BACKPRESSURE FAILURE: " << scenario
                << " max queue depth " << res.max_queue_depth
                << " > capacity " << cfg.queue_capacity << "\n";
      ok = false;
    }

    std::size_t migrations = 0;
    for (const driver::ReoptEvent& ev : res.reopts) {
      migrations += ev.migrations;
    }

    bench::BenchRecord rec;
    rec.suite = "streaming-ingest";
    rec.scenario = scenario;
    rec.wall_time_s = wall;
    rec.cost_reduction_pct =
        res.initial_cost > 0.0
            ? 100.0 * (1.0 - res.final_cost / res.initial_cost)
            : 0.0;
    rec.migrations = migrations;
    rec.metric("num_hosts", static_cast<double>(topology.num_hosts()));
    rec.metric("num_vms", static_cast<double>(cfg.generator.num_vms));
    rec.metric("ticks", static_cast<double>(res.ticks));
    rec.metric("deltas_applied", static_cast<double>(res.deltas_applied));
    rec.metric("deltas_folded", static_cast<double>(res.deltas_folded));
    rec.metric("cache_rebuilds", static_cast<double>(res.cache_rebuilds));
    rec.metric("queue_capacity", static_cast<double>(cfg.queue_capacity));
    rec.metric("max_queue_depth", static_cast<double>(res.max_queue_depth));
    rec.metric("reopts", static_cast<double>(res.reopts.size()));
    rec.metric("deltas_per_reopt", res.deltas_per_reopt());
    rec.metric("updates_per_sec",
               wall > 0.0 ? static_cast<double>(res.deltas_applied) / wall
                          : 0.0);
    rec.metric("initial_cost", res.initial_cost);
    rec.metric("final_cost", res.final_cost);
    rec.metric("final_fresh_cost", res.final_fresh_cost);
    rec.metric("max_cost_ratio_vs_fresh", res.max_cost_ratio());
    rec.metric("fold_p50_ns", res.fold_p50_ns());
    rec.metric("fold_p99_ns", res.fold_p99_ns());
    rec.metric("trigger_p50_ns", res.trigger_p50_ns());
    rec.metric("trigger_p99_ns", res.trigger_p99_ns());
    report.add(rec);
    std::cerr << "[streaming-ingest] " << scenario << ": "
              << res.reopts.size() << " re-opts over " << res.deltas_applied
              << " deltas (" << res.deltas_per_reopt()
              << " per re-opt), max ratio vs fresh " << res.max_cost_ratio()
              << ", fold p99 " << res.fold_p99_ns() << " ns in " << wall
              << "s wall\n";
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Huge-scale suite (--scale huge): the mega-scale memory/latency envelope.
// ---------------------------------------------------------------------------

/// Peak resident set of this process, in bytes. Prefers VmHWM from
/// /proc/self/status (resettable via /proc/self/clear_refs, so per-scenario
/// peaks don't shadow each other); falls back to the monotone getrusage
/// ru_maxrss where procfs is unavailable.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::uint64_t kb = 0;
      for (const char c : line) {
        if (c >= '0' && c <= '9') kb = kb * 10 + static_cast<std::uint64_t>(c - '0');
      }
      if (kb > 0) return kb * 1024;
    }
  }
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KB on Linux
  }
#endif
  return 0;
}

/// Reset the kernel's peak-RSS watermark (Linux: "5" to clear_refs). Best
/// effort — when it fails, peak_rss_bytes() degrades to a monotone peak and
/// bytes_per_vm becomes an upper bound (still valid for the one-sided gate).
void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (clear_refs) clear_refs << "5\n";
}

// Mega-scale suite: the CSR traffic store, arena-packed oracle, and O(1)
// comm-level topology carried to datacenter sizes the per-VM-vector layout
// could not reach. Fat-tree k=48 (27648 hosts / 221184 VMs), k=64 (65536
// hosts / 524288 VMs), and the canonical 1M-VM world (128000 hosts /
// 1024000 VMs) each run end-to-end: generate the fleet, bind the cached
// oracle, run fixed Round-Robin token passes, and stream the scenario
// snapshot through the O(max_degree) writer. Two hard one-sided gates:
//   bytes_per_vm        peak RSS / num_vms        <= kMaxBytesPerVm
//   ns_per_migration    sim wall / migrations     <= kMaxNsPerMigration
// --quick trims the suite to fat-tree-k48 (the CI smoke tier).
bool run_huge_scale(const RunOptions& opt, bench::JsonReport& report) {
  std::vector<std::string> names = {"fat-tree-k48"};
  if (!opt.quick) {
    names.push_back("fat-tree-k64");
    names.push_back("canonical-1m-vm");
  }

  // Measured on the reference host: ~250-290 bytes/VM and ~5.5-6.5 us per
  // migration across all three scenarios. The gates leave ~4x (memory) and
  // ~15x (latency, noisier across hosts) headroom — a per-VM-vector layout
  // or an O(n) begin_pass regression blows through either immediately.
  constexpr double kMaxBytesPerVm = 1024.0;
  constexpr double kMaxNsPerMigration = 100000.0;  // 100 us end-to-end
  bool ok = true;

  for (const std::string& name : names) {
    reset_peak_rss();
    bench::Stopwatch sw;
    const std::unique_ptr<topo::Topology> topology = bench::make_topology(name);
    PaperFleet fleet = make_paper_fleet(*topology);
    const std::size_t num_vms = fleet.num_vms;
    traffic::TrafficMatrix& tm = fleet.tm;
    core::Allocation& alloc = fleet.alloc;

    core::CachedCostModel model(*topology, core::LinkWeights::exponential(3));
    model.bind(alloc, tm);
    core::MigrationEngine engine(model);
    core::RoundRobinPolicy rr;
    driver::SimConfig cfg;
    cfg.iterations = 2;  // fixed even under --quick: rows stay comparable
    cfg.stop_when_stable = false;
    driver::ScoreSimulation sim(engine, rr, alloc, tm);

    bench::Stopwatch sim_sw;
    const driver::SimResult res = sim.run(cfg);
    const double sim_wall = sim_sw.elapsed_s();

    // Streaming snapshot writer: the whole world through O(max_degree)
    // buffering (a 1M-VM scenario must not materialise a pairs() vector).
    bench::Stopwatch save_sw;
    std::ofstream null_out("/dev/null");
    core::save_scenario(null_out, alloc, tm);
    const double save_wall = save_sw.elapsed_s();

    const std::uint64_t peak_rss = peak_rss_bytes();
    const double bytes_per_vm =
        num_vms > 0 ? static_cast<double>(peak_rss) / static_cast<double>(num_vms)
                    : 0.0;
    const double ns_per_migration =
        res.total_migrations > 0
            ? 1e9 * sim_wall / static_cast<double>(res.total_migrations)
            : 0.0;

    if (bytes_per_vm <= 0.0 || bytes_per_vm > kMaxBytesPerVm) {
      std::cerr << "[huge-scale] MEMORY FAILURE: " << name << " "
                << bytes_per_vm << " bytes/VM outside (0, " << kMaxBytesPerVm
                << "] (peak RSS " << peak_rss << " B over " << num_vms
                << " VMs)\n";
      ok = false;
    }
    if (ns_per_migration <= 0.0 || ns_per_migration > kMaxNsPerMigration) {
      std::cerr << "[huge-scale] LATENCY FAILURE: " << name << " "
                << ns_per_migration << " ns/migration outside (0, "
                << kMaxNsPerMigration << "] (" << res.total_migrations
                << " migrations in " << sim_wall << "s)\n";
      ok = false;
    }

    bench::BenchRecord rec;
    rec.suite = "huge-scale";
    rec.scenario = name;
    rec.wall_time_s = sw.elapsed_s();
    rec.cost_reduction_pct = 100.0 * res.reduction();
    rec.migrations = res.total_migrations;
    rec.metric("num_hosts", static_cast<double>(topology->num_hosts()));
    rec.metric("num_vms", static_cast<double>(num_vms));
    rec.metric("iterations", static_cast<double>(res.iterations.size()));
    rec.metric("sim_wall_s", sim_wall);
    rec.metric("peak_rss_bytes", static_cast<double>(peak_rss));
    rec.metric("bytes_per_vm", bytes_per_vm);
    rec.metric("ns_per_migration", ns_per_migration);
    rec.metric("scenario_save_s", save_wall);
    rec.metric("traffic_pairs", static_cast<double>(tm.num_pairs()));
    rec.metric("csr_entries", static_cast<double>(tm.csr_entries()));
    rec.metric("overflow_entries", static_cast<double>(tm.overflow_entries()));
    rec.metric("compactions", static_cast<double>(tm.compactions()));
    rec.metric("final_cost", res.final_cost);
    report.add(rec);
    std::cerr << "[huge-scale] " << name << ": " << topology->num_hosts()
              << " hosts, " << num_vms << " VMs, " << bytes_per_vm
              << " bytes/VM peak, " << ns_per_migration << " ns/migration ("
              << res.total_migrations << " migrations, reduction "
              << rec.cost_reduction_pct << "%), snapshot streamed in "
              << save_wall << "s\n";
  }
  return ok;
}

// --scale values, each a superset of the one before: a single `--scale huge`
// run regenerates every row of BENCH_results.json (default + paper + huge).
constexpr const char* kScales[] = {"default", "paper", "huge"};

struct Suite {
  const char* name;   ///< --suite value
  std::size_t scale;  ///< index into kScales of the smallest scale running it
  /// Runs the suite; false when one of its hard checks failed.
  bool (*run)(const RunOptions&, bench::JsonReport&);
};

// Run order is table order. The figure and ablation suites run last, so the
// memory they free never sits in the huge tier's peak-RSS window.
constexpr Suite kSuites[] = {
    {"fig2", 0, run_fig2},
    {"fig3", 0, run_fig3},
    {"micro", 0, run_micro},
    {"paper-scale", 1, run_paper_scale},
    {"tokens-threads", 1, run_tokens_threads},
    {"dist-vs-centralized", 1, run_dist_vs_centralized},
    {"steady-state", 1, run_steady_state},
    {"streaming-ingest", 1, run_streaming_ingest},
    {"huge-scale", 2, run_huge_scale},
    {"figures", 0, bench::run_figures},
    {"ablations", 0, bench::run_ablations},
};

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string out_path = "BENCH_results.json";
  std::string scale = "default";
  std::string suite = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      const int n = std::atoi(argv[++i]);
      if (n < 1) {
        std::cerr << "bench_runner: --threads must be >= 1\n";
        return 2;
      }
      opt.threads = static_cast<std::size_t>(n);
    } else if (arg == "--scale" && i + 1 < argc) {
      scale = argv[++i];
      if (std::find(std::begin(kScales), std::end(kScales), scale) ==
          std::end(kScales)) {
        std::cerr << "bench_runner: --scale must be 'default', 'paper' or "
                     "'huge'\n";
        return 2;
      }
    } else if (arg == "--suite" && i + 1 < argc) {
      suite = argv[++i];
      if (suite != "all" &&
          std::none_of(std::begin(kSuites), std::end(kSuites),
                       [&suite](const Suite& s) { return suite == s.name; })) {
        std::cerr << "bench_runner: --suite must be one of all";
        for (const Suite& s : kSuites) std::cerr << ", " << s.name;
        std::cerr << "\n";
        return 2;
      }
    } else if (arg == "--mode" && i + 1 < argc) {
      opt.mode = argv[++i];
      if (opt.mode != "both" && opt.mode != "centralized" &&
          opt.mode != "distributed") {
        std::cerr << "bench_runner: --mode must be 'both', 'centralized' or "
                     "'distributed'\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_runner [--out FILE] [--quick] "
                   "[--scale default|paper|huge] [--threads N] [--suite NAME] "
                   "[--mode both|centralized|distributed]\n";
      return 2;
    }
  }
  const auto scale_index = static_cast<std::size_t>(
      std::find(std::begin(kScales), std::end(kScales), scale) -
      std::begin(kScales));

  score::bench::JsonReport report(scale);
  score::bench::Stopwatch total;
  bool ok = true;
  for (const Suite& s : kSuites) {
    if (s.scale <= scale_index && (suite == "all" || suite == s.name)) {
      ok = s.run(opt, report) && ok;
    }
  }
  if (report.size() == 0) {
    std::cerr << "bench_runner: --suite " << suite
              << " selected no benches at --scale " << scale << "\n";
    return 2;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_runner: cannot open " << out_path << " for writing\n";
    return 1;
  }
  report.write(out);
  std::cerr << "wrote " << report.size() << " results to " << out_path
            << " in " << total.elapsed_s() << "s\n";
  if (!ok) {
    std::cerr << "bench_runner: FAILED (hard check violated — see messages "
                 "above)\n";
    return 1;
  }
  return 0;
}
