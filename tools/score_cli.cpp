// score_cli — run S-CORE experiments from the command line.
//
// Wires the whole library behind flags: topology (canonical tree or fat-tree,
// any size), workload (generator intensity/seed), initial placement, token
// policy / token count, migration cost, the GA normaliser and the
// message-passing distributed runtime. Prints a summary and, optionally, the
// cost-vs-time series as CSV — enough to reproduce any of the paper's
// simulation figures at arbitrary scales without writing code.
//
// World construction is shared with score_scheduler / score_agent
// (world_builder.hpp), so a score_cli invocation and a multi-process run
// with the same flags operate on bit-identical worlds.
//
// Flag errors (unknown flags, bad values, combinations that contradict the
// selected mode) print a one-line diagnostic and exit 2.
//
// Examples:
//   score_cli --topology fattree --k 8 --vms 256 --policy hlf --ga
//   score_cli --topology canonical --racks 128 --hosts-per-rack 20
//             --vms 4096 --intensity dense --series
//   score_cli --mode distributed --vms 128 --iterations 3 --loss 0.05
//   score_cli --topology fattree --k 16 --vms 8192 --tokens 16 --threads 4
//   score_cli --mode continuous --vms 256 --epochs 8 --arrival-prob 0.3
//             --departure-prob 0.1 --save world.v2
//   score_cli --mode streaming --vms 256 --ticks 128 --batch-size 2048
//             --drift-threshold 0.08
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "baselines/ga_optimizer.hpp"
#include "baselines/placement.hpp"
#include "core/metrics.hpp"
#include "core/scenario_io.hpp"
#include "core/token_policy.hpp"
#include "driver/continuous.hpp"
#include "driver/convergence.hpp"
#include "driver/multi_token.hpp"
#include "driver/simulation.hpp"
#include "driver/streaming.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "world_builder.hpp"

namespace {

using namespace score;

/// A fresh-reference ratio as printed: NaN is "n/a", never a silent 1.0.
std::string fmt_ratio(double r) {
  if (std::isnan(r)) return "n/a";
  if (std::isinf(r)) return "inf";
  std::ostringstream os;
  os << std::setprecision(4) << r;
  return os.str();
}

/// Continuous mode re-optimises through the distributed runtime when --loss
/// or --budget-mb is nonzero (NaN included, so the runtime rejects it).
bool runs_runtime(const util::Flags& flags) {
  return flags.get_double("loss") != 0.0 ||
         flags.get_double("budget-mb") != 0.0;
}

/// Reject flag combinations that contradict the selected mode, with a
/// one-line diagnostic naming both the flag and the mode it needs. Only
/// flags the user actually passed are checked — defaults never conflict.
void validate_mode_combos(const util::Flags& flags) {
  const std::string mode = flags.get_string("mode");
  if (mode != "centralized" && mode != "distributed" &&
      mode != "continuous" && mode != "streaming") {
    throw std::invalid_argument(
        "--mode must be centralized, distributed, continuous or streaming");
  }
  const auto require = [&](const char* flag, bool ok, const char* needs) {
    if (flags.is_set(flag) && !ok) {
      throw std::invalid_argument(std::string("--") + flag +
                                  " is incompatible with --mode " + mode +
                                  " (requires " + needs + ")");
    }
  };
  const bool dist = mode == "distributed";
  const bool cont = mode == "continuous";
  const bool strm = mode == "streaming";
  // Failure model and trace hash live in the message-passing runtime
  // (continuous mode embeds it per epoch).
  require("loss", dist || cont, "--mode distributed or continuous");
  require("budget-mb", dist || cont, "--mode distributed or continuous");
  require("trace", dist || cont, "--mode distributed or continuous");
  // Multi-token parallelism and the GA normaliser are centralized-loop
  // features (continuous and streaming modes reuse the multi-token walk).
  require("tokens", !dist, "--mode centralized, continuous or streaming");
  require("threads", !dist, "--mode centralized, continuous or streaming");
  // --policy orders the single-token loop and the runtime's token; the
  // multi-token walk (streaming, --tokens > 1, continuous without the
  // runtime) always visits VMs in Round-Robin order.
  const bool single_token =
      mode == "centralized" && flags.get_count("tokens") <= 1;
  require("policy", single_token || dist || (cont && runs_runtime(flags)),
          "a single-token centralized run, --mode distributed, or --mode "
          "continuous with --loss or --budget-mb");
  require("ga", !dist && !cont && !strm, "--mode centralized");
  // Continuous-mode-only knobs.
  require("epochs", cont, "--mode continuous");
  require("tenant-vms", cont, "--mode continuous");
  require("arrival-prob", cont, "--mode continuous");
  require("departure-prob", cont, "--mode continuous");
  require("lifecycle-seed", cont, "--mode continuous");
  // Streaming-mode-only knobs.
  require("ticks", strm, "--mode streaming");
  require("batch-size", strm, "--mode streaming");
  require("drift-threshold", strm, "--mode streaming");
}

// Continuous-operation mode: VM lifecycle churn over dynamic traffic epochs,
// re-optimised every epoch (driver/continuous). Prints the per-epoch
// steady-state table; --save dumps the world + realized timeline as a
// scenario_io v2 snapshot, --load replays a previously dumped one.
int run_continuous(const topo::Topology& topology, const util::Flags& flags) {
  driver::ContinuousConfig cfg;
  cfg.generator.num_vms = flags.get_count("vms");
  cfg.generator.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  cfg.dynamics.seed = cfg.generator.seed + 1;
  cfg.intensity_scale = traffic::intensity_scale(
      tools::parse_intensity(flags.get_string("intensity")));
  cfg.epochs = flags.get_count("epochs");
  cfg.tenant_vms = flags.get_count("tenant-vms");
  cfg.arrival_prob = flags.get_double("arrival-prob");
  cfg.departure_prob = flags.get_double("departure-prob");
  cfg.lifecycle_seed = static_cast<std::uint64_t>(flags.get_int("lifecycle-seed"));
  cfg.placement = tools::parse_placement(flags.get_string("placement"));
  cfg.server_capacity = tools::server_capacity(flags);
  cfg.iterations_per_epoch = flags.get_count("iterations");
  cfg.engine.migration_cost = flags.get_double("cm");
  cfg.tokens = flags.get_count("tokens");
  cfg.exec = tools::exec_policy(flags);
  if (runs_runtime(flags)) {
    cfg.mode = "distributed";
    cfg.runtime.message_loss_rate = flags.get_double("loss");
    cfg.runtime.migration_budget_mb = flags.get_double("budget-mb");
  }
  // --policy reaches the distributed per-epoch optimiser only; the
  // centralized multi-token path visits VMs in Round-Robin order.
  cfg.runtime.policy = tools::runtime_policy(flags);

  driver::ContinuousEngine engine(topology, cfg);
  driver::SteadyStateReport report;
  if (!flags.get_string("load").empty()) {
    std::ifstream in(flags.get_string("load"));
    if (!in) throw std::runtime_error("cannot open " + flags.get_string("load"));
    const core::WorldScenario world = core::load_scenario_v2(in);
    report = engine.replay(world);
  } else {
    report = engine.run();
  }

  std::cout << "continuous S-CORE (" << report.mode << "), "
            << report.epochs.size() << " epochs, world of "
            << report.world.num_vms() << " VMs\n";
  std::cout << "epoch  active  +arr  -dep  cost_before    cost_after     "
               "fresh_reopt    ratio   migr  MB      rounds\n";
  for (const driver::EpochReport& er : report.epochs) {
    std::cout << std::setw(5) << er.epoch << std::setw(8) << er.active_vms
              << std::setw(6) << er.arrived_vms << std::setw(6)
              << er.departed_vms << "  " << std::setw(13) << er.cost_before
              << "  " << std::setw(13) << er.cost_after << "  " << std::setw(13)
              << er.fresh_cost << "  " << std::setw(6)
              << fmt_ratio(er.cost_ratio()) << std::setw(7) << er.migrations
              << std::setw(8) << static_cast<long long>(er.migrated_mb)
              << std::setw(7) << er.rounds << "\n";
  }
  std::cout << "steady state: mean cost ratio vs fresh re-opt "
            << fmt_ratio(report.mean_cost_ratio()) << " (max "
            << fmt_ratio(report.max_cost_ratio());
  if (report.undefined_cost_ratios() > 0) {
    std::cout << ", " << report.undefined_cost_ratios() << " undefined";
  }
  std::cout << "), " << report.total_migrations() << " migrations, "
            << report.total_migrated_mb() << " MB pre-copied, "
            << report.world.timeline.size() << " lifecycle events\n";
  if (flags.get_bool("trace")) {
    std::cout << "trace hash: " << std::hex << report.trace_hash << std::dec
              << "\n";
  }
  if (!flags.get_string("save").empty()) {
    std::ofstream out(flags.get_string("save"));
    if (!out) throw std::runtime_error("cannot open " + flags.get_string("save"));
    core::save_scenario_v2(out, report.world);
    std::cout << "world snapshot (v2) written to " << flags.get_string("save")
              << "\n";
  }
  return 0;
}

// Streaming mode: flow-delta ingest folded into the live cost cache, with
// re-optimisation launched only when the cached total drifts past
// --drift-threshold (driver/streaming). Prints the per-trigger table and the
// fold/rebuild counters that show the observer seam at work.
int run_streaming(const topo::Topology& topology, const util::Flags& flags) {
  driver::StreamingConfig cfg;
  cfg.generator.num_vms = flags.get_count("vms");
  cfg.generator.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  cfg.intensity_scale = traffic::intensity_scale(
      tools::parse_intensity(flags.get_string("intensity")));
  cfg.placement = tools::parse_placement(flags.get_string("placement"));
  cfg.server_capacity = tools::server_capacity(flags);
  cfg.placement_seed = cfg.generator.seed + 1;
  cfg.events.seed = cfg.generator.seed + 2;
  cfg.events.events_per_tick = flags.get_count("batch-size");
  cfg.ticks = flags.get_count("ticks");
  cfg.drift_threshold = flags.get_double("drift-threshold");
  cfg.tokens = flags.get_count("tokens");
  cfg.exec = tools::exec_policy(flags);
  cfg.iterations_per_reopt = flags.get_count("iterations");
  cfg.engine.migration_cost = flags.get_double("cm");

  driver::StreamingEngine engine(topology, cfg);
  const driver::StreamingReport report = engine.run();

  std::cout << "streaming S-CORE, " << report.ticks << " ticks, "
            << report.deltas_applied << " flow deltas ("
            << report.deltas_folded << " folded O(1), "
            << report.cache_rebuilds << " cache rebuilds)\n";
  std::cout << "tick   drift    cost_before    cost_after     fresh_reopt    "
               "ratio   migr  rounds\n";
  for (const driver::ReoptEvent& ev : report.reopts) {
    std::cout << std::setw(5) << ev.tick << "  " << std::setw(6)
              << std::setprecision(4) << ev.drift << std::setprecision(6)
              << "  " << std::setw(13) << ev.cost_before << "  "
              << std::setw(13) << ev.cost_after << "  " << std::setw(13)
              << ev.fresh_cost << "  " << std::setw(6)
              << fmt_ratio(ev.cost_ratio()) << std::setw(7) << ev.migrations
              << std::setw(7) << ev.rounds << "\n";
  }
  std::cout << "drift trigger: " << report.reopts.size()
            << " re-optimisations, " << report.deltas_per_reopt()
            << " deltas/re-opt, final cost " << report.final_cost
            << " (ratio vs fresh re-opt "
            << fmt_ratio(driver::fresh_ratio(report.final_cost,
                                             report.final_fresh_cost,
                                             report.final_fresh_computed))
            << ", worst " << fmt_ratio(report.max_cost_ratio());
  if (report.undefined_cost_ratios() > 0) {
    std::cout << ", " << report.undefined_cost_ratios() << " undefined";
  }
  std::cout << ")\n";
  std::cout << "ingest latency: fold p50 " << report.fold_p50_ns()
            << " ns, p99 " << report.fold_p99_ns() << " ns; trigger p50 "
            << report.trigger_p50_ns() << " ns, p99 "
            << report.trigger_p99_ns() << " ns\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  tools::register_world_flags(flags);
  flags.add_int("tokens", 1, "concurrent tokens (>1 uses the multi-token extension, RR order)");
  flags.add_int("threads", 0,
                "worker threads for multi-token shard walks (0 = sequential; "
                "results are identical for every thread count)");
  flags.add_bool("ga", false, "also run the GA normaliser and report the ratio");
  flags.add_string("mode", "centralized",
                   "execution mode: centralized (shared-memory loop) | "
                   "distributed (message-passing dom0 runtime) | "
                   "continuous (lifecycle churn over dynamic traffic epochs) | "
                   "streaming (flow-delta ingest, drift-triggered re-opt)");
  flags.add_int("epochs", 6, "continuous mode: traffic epochs to run");
  flags.add_int("tenant-vms", 8, "continuous mode: world VMs per tenant block");
  flags.add_double("arrival-prob", 0.25,
                   "continuous mode: per-epoch dormant-tenant arrival probability");
  flags.add_double("departure-prob", 0.08,
                   "continuous mode: per-epoch active-tenant departure probability");
  flags.add_int("lifecycle-seed", 7, "continuous mode: lifecycle stream seed");
  flags.add_int("ticks", 64, "streaming mode: ingest ticks to consume");
  flags.add_int("batch-size", 1024,
                "streaming mode: flow events per ingest tick");
  flags.add_double("drift-threshold", 0.05,
                   "streaming mode: relative cached-cost drift that launches "
                   "a re-optimisation");
  flags.add_bool("series", false, "print the cost-vs-time series as CSV");
  flags.add_string("save", "", "write the generated scenario snapshot to this file");
  flags.add_string("load", "", "load the scenario from a snapshot instead of generating");
  flags.add_bool("trace", false,
                 "print the wire-trace hash (determinism seam; distributed "
                 "mode only)");

  try {
    if (!flags.parse(argc, argv)) {
      std::cout << flags.help("score_cli");
      return 0;
    }
    validate_mode_combos(flags);

    const std::string mode = flags.get_string("mode");
    if (mode == "streaming") {
      auto topology = tools::make_topology(flags);
      return run_streaming(*topology, flags);
    }
    if (mode == "continuous") {
      auto topology = tools::make_topology(flags);
      return run_continuous(*topology, flags);
    }

    tools::World w = tools::build_world(flags);
    const core::CostModel& model = *w.model;
    traffic::TrafficMatrix& tm = *w.tm;
    core::Allocation& alloc = *w.alloc;

    if (!flags.get_string("load").empty()) {
      std::ifstream in(flags.get_string("load"));
      if (!in) throw std::runtime_error("cannot open " + flags.get_string("load"));
      core::Scenario s = core::load_scenario(in);
      if (s.allocation.num_servers() != w.topology->num_hosts()) {
        throw std::runtime_error("snapshot server count does not match the topology");
      }
      alloc = std::move(s.allocation);
      tm = std::move(s.tm);
    }
    if (!flags.get_string("save").empty()) {
      std::ofstream out(flags.get_string("save"));
      if (!out) throw std::runtime_error("cannot open " + flags.get_string("save"));
      core::save_scenario(out, alloc, tm);
      std::cout << "scenario written to " << flags.get_string("save") << "\n";
    }

    core::MigrationEngine engine(model, w.runtime.engine);

    driver::SimResult result;
    if (mode == "distributed") {
      hypervisor::DistributedScoreRuntime runtime(model, alloc, tm, w.runtime);
      const hypervisor::RuntimeResult r = runtime.run();
      const driver::ConvergenceReport rep = r.report();
      std::cout << rep.mode << " S-CORE: cost " << rep.initial_cost << " -> "
                << rep.final_cost << " (" << 100.0 * rep.reduction()
                << "% reduction), " << rep.migrations << " migrations, "
                << rep.rounds << " rounds, " << rep.duration_s
                << " s simulated\n";
      std::cout << "control plane: " << rep.token_messages << " token msgs ("
                << rep.token_bytes << " B), " << r.location_messages
                << " location msgs, " << r.capacity_messages
                << " capacity msgs, " << rep.control_bytes
                << " control bytes total";
      if (r.messages_lost > 0) {
        std::cout << ", " << r.messages_lost << " lost / "
                  << r.token_reinjections << " token retransmits / "
                  << r.probe_timeouts << " probe timeouts";
      }
      std::cout << "\n";
      std::cout << "live migration: " << r.migrated_mb << " MB pre-copied in "
                << r.migration_time_s << " s";
      if (r.budget_rejected > 0) {
        std::cout << " (" << r.budget_rejected << " wins rejected by budget)";
      }
      std::cout << "\n";
      if (flags.get_bool("trace")) {
        std::cout << "trace hash: " << std::hex << r.trace_hash << std::dec
                  << " (epoch " << r.final_epoch << ", ring position "
                  << r.final_ring_pos << ")\n";
      }
      return 0;
    }

    if (const std::size_t tokens = flags.get_count("tokens"); tokens > 1) {
      driver::MultiTokenConfig mcfg;
      mcfg.tokens = tokens;
      mcfg.iterations = flags.get_count("iterations");
      mcfg.policy = tools::exec_policy(flags);
      driver::MultiTokenSimulation sim(engine, alloc, tm);
      result = sim.run(mcfg);
    } else {
      auto policy = core::make_policy(
          flags.get_string("policy"),
          static_cast<std::uint64_t>(flags.get_int("seed")));
      driver::SimConfig scfg;
      scfg.iterations = flags.get_count("iterations");
      driver::ScoreSimulation sim(engine, *policy, alloc, tm);
      result = sim.run(scfg);
    }

    const driver::ConvergenceReport rep = driver::summarize(result);
    std::cout << rep.mode << " S-CORE: cost " << rep.initial_cost << " -> "
              << rep.final_cost << " (" << 100.0 * rep.reduction()
              << "% reduction), " << rep.migrations << " migrations, "
              << rep.rounds << " rounds, " << rep.duration_s
              << " s simulated\n";

    const auto loads = core::link_loads_for(*w.topology, alloc, tm);
    std::cout << "max utilisation after: core " << loads.max_utilization(3)
              << ", aggregation " << loads.max_utilization(2) << ", ToR "
              << loads.max_utilization(1) << "\n";

    if (flags.get_bool("ga")) {
      baselines::GaConfig gcfg;
      gcfg.population = 96;
      gcfg.max_generations = 400;
      gcfg.stop_window = 20;
      baselines::GaOptimizer ga(model, gcfg);
      // Normalise against the same starting state.
      util::Rng rng2(static_cast<std::uint64_t>(flags.get_int("seed")) + 1);
      core::Allocation fresh = baselines::make_allocation(
          *w.topology, tools::server_capacity(flags), flags.get_count("vms"),
          core::VmSpec{}, tools::parse_placement(flags.get_string("placement")),
          rng2);
      const auto ga_res = ga.optimize(fresh, tm);
      std::cout << "GA normaliser: cost " << ga_res.best_cost << " ("
                << ga_res.generations_run << " generations); S-CORE/GA ratio "
                << result.final_cost / ga_res.best_cost << "\n";
    }

    if (flags.get_bool("series")) {
      util::CsvWriter csv;
      csv.header({"time_s", "cost", "migrations"});
      for (const auto& pt : result.series) {
        csv.row(pt.time_s, pt.cost, pt.migrations);
      }
    }
    return 0;
  } catch (const std::invalid_argument& e) {
    std::cerr << "score_cli: " << e.what() << " (--help for usage)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "score_cli: " << e.what() << "\n";
    return 1;
  }
}
