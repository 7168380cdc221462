// bench_runner's paper-figure and ablation suites (`--suite figures`,
// `--suite ablations`): the §VI figures and ablations beyond Fig. 2 and
// Fig. 3d-i, each reduced to the numbers its paper claim is stated in.
// Raw plot series (heat-map cells, CDF points, per-hold cost series) are not
// emitted: every row is a score-bench/v1 record that bench_compare.py gates.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "baselines/remedy.hpp"
#include "bench_support.hpp"
#include "core/metrics.hpp"
#include "core/token_policy.hpp"
#include "driver/simulation.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "hypervisor/flow_table.hpp"
#include "hypervisor/live_migration.hpp"
#include "sim/flow_sim.hpp"
#include "traffic/dynamics.hpp"
#include "util/stats.hpp"

namespace score::bench {
namespace {

constexpr traffic::Intensity kIntensities[] = {traffic::Intensity::kSparse,
                                               traffic::Intensity::kMedium,
                                               traffic::Intensity::kDense};

/// Adds `rec` to the report and logs it on stderr.
void emit(JsonReport& report, BenchRecord rec) {
  std::cerr << "[" << rec.suite << "] " << rec.scenario << ": reduction "
            << rec.cost_reduction_pct << "%, " << rec.migrations
            << " migrations";
  for (const auto& [name, value] : rec.metrics) {
    std::cerr << ", " << name << " " << value;
  }
  std::cerr << "\n";
  report.add(std::move(rec));
}

BenchRecord sim_record(const std::string& suite, const std::string& scenario,
                       const driver::SimResult& res) {
  BenchRecord rec;
  rec.suite = suite;
  rec.scenario = scenario;
  rec.cost_reduction_pct = 100.0 * res.reduction();
  rec.migrations = res.total_migrations;
  return rec;
}

/// Median, p90 and max link utilisation at `level` (the Fig. 4a CDFs).
void add_util_quantiles(BenchRecord& rec, const std::string& layer,
                        const topo::LinkLoadMap& loads, int level) {
  const std::vector<double> utils = loads.utilizations_at_level(level);
  rec.metric(layer + "_util_p50", util::percentile(utils, 50.0));
  rec.metric(layer + "_util_p90", util::percentile(utils, 90.0));
  rec.metric(layer + "_util_max", util::percentile(utils, 100.0));
}

// Fig. 3a-c: ToR-level traffic-matrix structure at the sparse, medium (x10)
// and dense (x50) intensities, on the initial placement. Paper claim: the TM
// is sparse — only a handful of ToR pairs are hotspots — while a large share
// of the bytes sits on the heaviest VM pairs.
void run_fig3_tor_matrix(JsonReport& report) {
  for (const traffic::Intensity intensity : kIntensities) {
    Stopwatch sw;
    const Scenario s = make_scenario("canonical-tree", intensity);
    const auto matrix = core::tor_level_matrix(*s.topology, *s.alloc, s.tm);
    const double peak = core::tor_matrix_peak(matrix);
    std::size_t hot = 0, visible = 0, offdiag = 0;
    for (std::size_t r = 0; r < matrix.size(); ++r) {
      for (std::size_t c = r + 1; c < matrix.size(); ++c) {
        ++offdiag;
        if (matrix[r][c] > 0.5 * peak) ++hot;
        if (matrix[r][c] > 0.05 * peak) ++visible;
      }
    }
    BenchRecord rec;
    rec.suite = "fig3-tor-matrix";
    rec.scenario =
        std::string("canonical-tree/") + traffic::intensity_name(intensity);
    rec.metric("tor_pairs", static_cast<double>(offdiag));
    rec.metric("fill_fraction", core::tor_matrix_fill(matrix));
    rec.metric("fill_above_5pct_peak",
               static_cast<double>(visible) / static_cast<double>(offdiag));
    rec.metric("hotspot_pairs_above_half_peak", static_cast<double>(hot));
    rec.metric("total_load_bps", s.tm.total_load());
    rec.metric("top10pct_byte_share", traffic::top_pair_byte_share(s.tm, 0.10));
    rec.wall_time_s = sw.elapsed_s();
    emit(report, std::move(rec));
  }
}

// Fig. 4: S-CORE vs Remedy on the canonical tree. Paper claim: S-CORE cuts
// the communication cost far more than Remedy (~40% vs ~10%) and greatly
// lowers core and aggregation link utilisation, which Remedy only
// marginally alleviates. Rows: the initial traffic-agnostic placement, then
// each system's stable state.
//
// The paper runs this comparison under its sparse TM, whose absolute rates
// are high enough to congest links. Our generator's medium (x10) intensity
// is the operating point with the same property (the base TM leaves every
// link below 25% utilisation, where neither system has anything to do).
void run_fig4_remedy(JsonReport& report) {
  const auto row = [&report](const std::string& system, const Scenario& s,
                             double reduction, std::size_t migrations,
                             double wall_s) {
    BenchRecord rec;
    rec.suite = "fig4-remedy";
    rec.scenario = "canonical-tree/medium/" + system;
    rec.wall_time_s = wall_s;
    rec.cost_reduction_pct = 100.0 * reduction;
    rec.migrations = migrations;
    const auto loads = core::link_loads_for(*s.topology, *s.alloc, s.tm);
    add_util_quantiles(rec, "core", loads, 3);
    add_util_quantiles(rec, "agg", loads, 2);
    emit(report, std::move(rec));
  };

  Scenario s_score =
      make_scenario("canonical-tree", traffic::Intensity::kMedium);
  row("initial", s_score, 0.0, 0, 0.0);

  baselines::RemedyConfig rcfg;
  rcfg.congestion_threshold = 0.25;
  rcfg.rounds = 30;
  rcfg.max_migrations_per_round = 8;
  Scenario s_remedy =
      make_scenario("canonical-tree", traffic::Intensity::kMedium);
  baselines::Remedy remedy(*s_remedy.model, rcfg);

  // S-CORE's c_m from Remedy's dirty-rate byte model, for a fair comparison
  // (paper: "we have used Remedy's migration cost model ... and set S-CORE's
  // cm accordingly"): the bytes one migration moves, amortised over a 600 s
  // measurement window and priced as level-3 traffic.
  const double migrated_bytes =
      remedy.estimate_migrated_mb(core::VmSpec{}.ram_mb) * 1e6;
  const double window_s = 600.0;
  core::EngineConfig ecfg;
  ecfg.migration_cost =
      2.0 * (migrated_bytes / window_s) * s_score.model->weights().prefix(3);

  Stopwatch score_sw;
  s_score.bind_cache();
  core::MigrationEngine engine(*s_score.model, ecfg);
  core::HighestLevelFirstPolicy hlf;
  driver::SimConfig scfg;
  scfg.iterations = 8;
  driver::ScoreSimulation sim(engine, hlf, *s_score.alloc, s_score.tm);
  const driver::SimResult score_res = sim.run(scfg);
  row("s-core", s_score, score_res.reduction(), score_res.total_migrations,
      score_sw.elapsed_s());

  Stopwatch remedy_sw;
  const baselines::RemedyResult remedy_res =
      remedy.run(*s_remedy.alloc, s_remedy.tm);
  row("remedy", s_remedy,
      remedy_res.initial_cost > 0.0
          ? 1.0 - remedy_res.final_cost / remedy_res.initial_cost
          : 0.0,
      remedy_res.total_migrations, remedy_sw.elapsed_s());
}

// Fig. 5a: flow-table stress test — add, lookup, lookup-by-IP and delete
// over tables of 100 to 10^6 simultaneous flows, for two populations:
//   type1: every source IP unique (10^6 singleton per-IP buckets),
//   type2: groups of 1000 flows share a source IP (10^3 buckets of 10^3).
// Paper claim: Type 2 operations are cheaper than Type 1, and at a realistic
// load (~100 concurrent flows) every operation stays far below 100 ms.
// The per-operation times are not named ns_per_call: on a shared 4-vCPU
// host they move up to ~1.8x between runs with the allocator's heap state,
// far past that gate's band.
// --quick drops the 10^6-flow tables.
void run_fig5a_flow_table(const RunOptions& opt, JsonReport& report) {
  using hypervisor::FlowKey;
  const auto make_key = [](std::size_t i, bool type2) {
    FlowKey k;
    if (type2) {
      k.src_ip = static_cast<std::uint32_t>(i / 1000);  // 1000 flows per IP
      k.src_port = static_cast<std::uint16_t>(i % 1000);
      k.dst_port = static_cast<std::uint16_t>((i / 1000) % 65521);
    } else {
      k.src_ip = static_cast<std::uint32_t>(i);  // all-unique sources
      k.src_port = 7;
      k.dst_port = 80;
    }
    k.dst_ip = 0xC0A80001;  // common sink, as in the testbed's iperf server
    return k;
  };

  std::vector<std::size_t> sizes = {100, 10'000};
  if (!opt.quick) sizes.push_back(1'000'000);
  for (const bool type2 : {false, true}) {
    for (const std::size_t n : sizes) {
      // Whole passes over the table: 10^6 operations of each kind in all
      // (10^5 under --quick).
      const std::size_t passes =
          std::max<std::size_t>(1, (opt.quick ? 100'000 : 1'000'000) / n);
      const std::size_t ips = type2 ? (n + 999) / 1000 : n;
      double add_s = 0.0, lookup_s = 0.0, ip_s = 0.0, delete_s = 0.0;
      std::size_t found = 0, ip_flows = 0, removed = 0;
      for (std::size_t pass = 0; pass < passes; ++pass) {
        hypervisor::FlowTable table;
        Stopwatch add_sw;
        for (std::size_t i = 0; i < n; ++i) {
          table.update(make_key(i, type2), 1500, 1, 0.0);
        }
        add_s += add_sw.elapsed_s();
        Stopwatch lookup_sw;
        for (std::size_t i = 0; i < n; ++i) {
          found += table.lookup(make_key(i, type2)) != nullptr ? 1 : 0;
        }
        lookup_s += lookup_sw.elapsed_s();
        Stopwatch ip_sw;
        for (std::size_t ip = 0; ip < ips; ++ip) {
          ip_flows += table.flows_for_ip(static_cast<std::uint32_t>(ip)).size();
        }
        ip_s += ip_sw.elapsed_s();
        Stopwatch delete_sw;
        for (std::size_t i = 0; i < n; ++i) {
          removed += table.remove(make_key(i, type2)) ? 1 : 0;
        }
        delete_s += delete_sw.elapsed_s();
      }
      const double ops = static_cast<double>(passes * n);
      const double ip_calls = static_cast<double>(passes * ips);
      BenchRecord rec;
      rec.suite = "fig5a-flow-table";
      rec.scenario = std::string(type2 ? "type2/" : "type1/") +
                     std::to_string(n) + "-flows";
      rec.wall_time_s = add_s + lookup_s + ip_s + delete_s;
      rec.metric("flows", static_cast<double>(n));
      rec.metric("table_passes", static_cast<double>(passes));
      rec.metric("add_ns", 1e9 * add_s / ops);
      rec.metric("lookup_ns", 1e9 * lookup_s / ops);
      rec.metric("lookup_by_ip_ns", 1e9 * ip_s / ip_calls);
      rec.metric("delete_ns", 1e9 * delete_s / ops);
      // Flows one lookup-by-IP returns: 1 for type1, up to 1000 for type2.
      rec.metric("flows_per_ip_lookup",
                 static_cast<double>(ip_flows) / ip_calls);
      // 1.0 unless a lookup or delete missed a flow it had added.
      rec.metric("found_fraction",
                 static_cast<double>(found + removed) / (2.0 * ops));
      emit(report, std::move(rec));
    }
  }
}

// Fig. 5b-d: live-migration testbed quantities from the pre-copy model.
//   5b: migrated MB per migration at an idle network (paper: flat and wide,
//       mean ~127 MB, sigma ~11 MB, all below 150 MB for 196 MB guests).
//   5c: total migration time vs background CBR load on the 1 Gb/s link
//       (paper: 2.94 s idle -> 4.29 s at 10% -> 9.34 s at 100%, sub-linear).
//   5d: downtime vs background load (paper: below 50 ms even at ~100%).
void run_fig5bcd_precopy(JsonReport& report) {
  const hypervisor::PreCopyMigrationModel model;
  util::Rng rng(2014);
  {
    Stopwatch sw;
    util::RunningStats mb;
    const int samples = 2000;
    for (int i = 0; i < samples; ++i) {
      mb.add(model.simulate(rng, 0.0).migrated_mb);
    }
    BenchRecord rec;
    rec.suite = "fig5bcd-precopy";
    rec.scenario = "migrated-mb/idle";
    rec.wall_time_s = sw.elapsed_s();
    rec.metric("samples", samples);
    rec.metric("mean_mb", mb.mean());
    rec.metric("stddev_mb", mb.stddev());
    rec.metric("min_mb", mb.min());
    rec.metric("max_mb", mb.max());
    emit(report, std::move(rec));
  }
  for (int step = 0; step <= 10; ++step) {
    Stopwatch sw;
    const double load = step / 10.0;
    const int samples = 400;
    std::vector<double> times, downs;
    for (int i = 0; i < samples; ++i) {
      const hypervisor::MigrationOutcome out = model.simulate(rng, load);
      times.push_back(out.total_time_s);
      downs.push_back(out.downtime_ms);
    }
    BenchRecord rec;
    rec.suite = "fig5bcd-precopy";
    rec.scenario = "background-load/" + std::to_string(step * 10) + "pct";
    rec.wall_time_s = sw.elapsed_s();
    rec.metric("samples", samples);
    rec.metric("total_time_mean_s", util::mean(times));
    rec.metric("total_time_p10_s", util::percentile(times, 10.0));
    rec.metric("total_time_p90_s", util::percentile(times, 90.0));
    rec.metric("downtime_mean_ms", util::mean(downs));
    rec.metric("downtime_p10_ms", util::percentile(downs, 10.0));
    rec.metric("downtime_p90_ms", util::percentile(downs, 90.0));
    rec.metric("effective_bw_MBps", model.effective_bandwidth_MBps(load));
    emit(report, std::move(rec));
  }
}

// Control-plane overhead of the distributed protocol (paper §IV/§V-A):
// S-CORE's scalability argument rests on one O(|V|)-sized token circulating
// serially plus per-hold location and capacity probes bounded by the
// holder's neighbour count. One Round-Robin iteration of the full
// message-passing runtime at growing fleet sizes.
void run_control_overhead(JsonReport& report) {
  const auto topology = make_topology("canonical-tree");
  const core::CostModel model(*topology, core::LinkWeights::exponential(3));
  for (const std::size_t num_vms : {64, 128, 256, 512}) {
    Stopwatch sw;
    traffic::GeneratorConfig gen;
    gen.num_vms = num_vms;
    gen.mean_service_size = 24;
    gen.cross_service_prob = 0.3;
    const traffic::TrafficMatrix tm = traffic::generate_traffic(gen);
    util::Rng rng(1);
    core::Allocation alloc = baselines::make_allocation(
        *topology, server_capacity(), num_vms, core::VmSpec{},
        baselines::PlacementStrategy::kRandom, rng);

    hypervisor::RuntimeConfig rcfg;
    rcfg.iterations = 1;
    rcfg.stop_when_stable = false;
    hypervisor::DistributedScoreRuntime runtime(model, alloc, tm, rcfg);
    const hypervisor::RuntimeResult res = runtime.run();

    BenchRecord rec;
    rec.suite = "control-overhead";
    rec.scenario = "canonical-tree/" + std::to_string(num_vms) + "-vms";
    rec.wall_time_s = sw.elapsed_s();
    rec.cost_reduction_pct = 100.0 * res.reduction();
    rec.migrations = res.total_migrations;
    rec.metric("num_vms", static_cast<double>(num_vms));
    rec.metric("token_messages", static_cast<double>(res.token_messages));
    rec.metric("token_bytes", static_cast<double>(res.token_bytes));
    rec.metric("location_messages", static_cast<double>(res.location_messages));
    rec.metric("capacity_messages", static_cast<double>(res.capacity_messages));
    rec.metric("control_bytes", static_cast<double>(res.control_bytes));
    rec.metric("control_bytes_per_vm", static_cast<double>(res.control_bytes) /
                                           static_cast<double>(num_vms));
    emit(report, std::move(rec));
  }
}

// A1: link-weight schemes. The paper uses exponentially growing weights
// c_i = e^{i-1} and notes the assignment is operator policy; exponential
// weights should localise core traffic most aggressively. Each scheme's
// reduction is measured in its own weights.
void run_ablation_weights(JsonReport& report) {
  for (const std::string scheme : {"exponential", "linear", "uniform"}) {
    Stopwatch sw;
    Scenario s = make_scenario("canonical-tree", traffic::Intensity::kMedium);
    const core::LinkWeights weights = scheme == "exponential"
                                          ? core::LinkWeights::exponential(3)
                                      : scheme == "linear"
                                          ? core::LinkWeights::linear(3)
                                          : core::LinkWeights::uniform(3);
    core::CachedCostModel model(*s.topology, weights);
    model.bind(*s.alloc, s.tm);
    core::MigrationEngine engine(model);
    core::HighestLevelFirstPolicy hlf;
    const double core_before =
        core::link_loads_for(*s.topology, *s.alloc, s.tm).max_utilization(3);
    driver::ScoreSimulation sim(engine, hlf, *s.alloc, s.tm);
    const driver::SimResult res = sim.run();

    const auto after = core::link_loads_for(*s.topology, *s.alloc, s.tm);
    double core_load = 0.0, total_load = 0.0;
    for (const auto& link : s.topology->links()) {
      total_load += after.load_bps(link.id);
      if (link.level == 3) core_load += after.load_bps(link.id);
    }
    BenchRecord rec =
        sim_record("ablation-weights", "canonical-tree/medium/" + scheme, res);
    rec.wall_time_s = sw.elapsed_s();
    rec.metric("max_core_util_before", core_before);
    rec.metric("max_core_util_after", after.max_utilization(3));
    rec.metric("core_load_share_after",
               total_load > 0.0 ? core_load / total_load : 0.0);
    emit(report, std::move(rec));
  }
}

// A2: migration-cost c_m sweep (paper §VI: an operator "may wish to limit
// the number of VM migrations over a temporal interval"). Higher c_m
// suppresses migrations at the price of a worse final allocation. The unit
// is the mean level-3 pair cost of the workload.
void run_ablation_cm(JsonReport& report) {
  const Scenario probe =
      make_scenario("canonical-tree", traffic::Intensity::kMedium);
  const double unit = probe.model->pair_cost(
      probe.tm.total_load() / static_cast<double>(probe.tm.num_pairs()), 3);
  for (const double factor : {0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0}) {
    Stopwatch sw;
    Scenario s = make_scenario("canonical-tree", traffic::Intensity::kMedium);
    s.bind_cache();
    core::EngineConfig ecfg;
    ecfg.migration_cost = factor * unit;
    core::MigrationEngine engine(*s.model, ecfg);
    core::HighestLevelFirstPolicy hlf;
    driver::ScoreSimulation sim(engine, hlf, *s.alloc, s.tm);
    const driver::SimResult res = sim.run();

    char name[48];
    std::snprintf(name, sizeof(name), "canonical-tree/medium/cm-%gx", factor);
    BenchRecord rec = sim_record("ablation-cm", name, res);
    rec.wall_time_s = sw.elapsed_s();
    rec.metric("cm_over_unit", factor);
    rec.metric("passes", static_cast<double>(res.iterations.size()));
    emit(report, std::move(rec));
  }
}

// A3: token-passing policies — the paper's Round-Robin and
// Highest-Level-First against random permutation and highest-traffic-first.
// Paper claim (§VI-B): HLF harvests the cost reduction fastest, visible in
// the cost ratio after the first pass.
void run_ablation_policies(JsonReport& report) {
  for (const std::string name : {"round-robin", "highest-level-first",
                                 "random", "highest-traffic-first"}) {
    Stopwatch sw;
    Scenario s = make_scenario("canonical-tree", traffic::Intensity::kMedium);
    s.bind_cache();
    core::MigrationEngine engine(*s.model);
    const auto policy = core::make_policy(name, /*seed=*/7);
    driver::SimConfig cfg;
    cfg.iterations = 10;
    driver::ScoreSimulation sim(engine, *policy, *s.alloc, s.tm);
    const driver::SimResult res = sim.run(cfg);

    BenchRecord rec =
        sim_record("ablation-policies", "canonical-tree/medium/" + name, res);
    rec.wall_time_s = sw.elapsed_s();
    rec.metric("passes", static_cast<double>(res.iterations.size()));
    rec.metric("cost_ratio_iter1",
               res.iterations.front().cost_at_end / res.initial_cost);
    rec.metric("sim_duration_s", res.duration_s);
    emit(report, std::move(rec));
  }
}

// A4: VM stability under traffic churn (paper §VI-B). S-CORE avoids
// oscillation because it averages pairwise loads over a measurement window
// and DC hotspots change slowly. After converging on epoch 0, replay 10
// churned epochs and count re-migrations when decisions see the
// instantaneous epoch matrix vs a sliding 4-epoch average.
void run_ablation_stability(JsonReport& report) {
  const std::size_t epochs = 10;
  const std::size_t window = 4;
  for (const std::string mode : {"instantaneous", "window-average"}) {
    Stopwatch sw;
    Scenario s = make_scenario("canonical-tree", traffic::Intensity::kSparse);
    traffic::GeneratorConfig gen;
    gen.num_vms = fleet_size(*s.topology);
    gen.mean_service_size = 24;
    gen.intra_service_degree = 4.0;
    gen.cross_service_prob = 0.3;
    traffic::DynamicsConfig dcfg;
    dcfg.mice_churn = 0.5;
    traffic::TrafficDynamics dyn(gen, dcfg);
    core::MigrationEngine engine(*s.model);
    {
      core::HighestLevelFirstPolicy hlf;
      driver::ScoreSimulation sim(engine, hlf, *s.alloc, dyn.epoch(0));
      (void)sim.run();
    }

    std::size_t migrations = 0, max_epoch = 0;
    double overlap = 0.0;
    for (std::size_t e = 1; e <= epochs; ++e) {
      traffic::TrafficMatrix averaged(gen.num_vms);
      const traffic::TrafficMatrix* decision_tm = &dyn.epoch(e);
      if (mode == "window-average") {
        std::vector<const traffic::TrafficMatrix*> recent;
        for (std::size_t k = e >= window ? e - window + 1 : 0; k <= e; ++k) {
          recent.push_back(&dyn.epoch(k));
        }
        averaged = traffic::average_tms(recent);
        decision_tm = &averaged;
      }
      std::size_t epoch_migrations = 0;
      for (traffic::VmId u = 0; u < gen.num_vms; ++u) {
        if (engine.evaluate_and_apply(*s.alloc, *decision_tm, u).migrate) {
          ++epoch_migrations;
        }
      }
      migrations += epoch_migrations;
      max_epoch = std::max(max_epoch, epoch_migrations);
      overlap += dyn.elephant_overlap(e - 1, e);
    }

    BenchRecord rec;
    rec.suite = "ablation-stability";
    rec.scenario = "canonical-tree/sparse/" + mode;
    rec.wall_time_s = sw.elapsed_s();
    rec.migrations = migrations;
    rec.metric("epochs", static_cast<double>(epochs));
    rec.metric("migrations_per_epoch",
               static_cast<double>(migrations) / static_cast<double>(epochs));
    rec.metric("max_epoch_migrations", static_cast<double>(max_epoch));
    rec.metric("final_epoch_cost",
               s.model->total_cost(*s.alloc, dyn.epoch(epochs)));
    rec.metric("mean_elephant_overlap", overlap / static_cast<double>(epochs));
    emit(report, std::move(rec));
  }
}

// A6: elephant flow completion times before/after S-CORE (the point of the
// paper's §I motivation: congestion from traffic-agnostic placement
// throttles flows). The top decile of pair rates becomes finite flows of 60 s
// of traffic each, run through the max-min fair flow-level simulator.
void run_ablation_fct(JsonReport& report) {
  Scenario s = make_scenario("canonical-tree", traffic::Intensity::kMedium);
  const sim::FlowLevelSimulator flow_sim(*s.topology);
  const auto pairs = s.tm.pairs();
  std::vector<double> rates;
  for (const auto& [u, v, rate] : pairs) {
    (void)u;
    (void)v;
    rates.push_back(rate);
  }
  const double threshold = util::percentile(rates, 90.0);

  // Adds the FCTs of the current placement to `rec` and emits it.
  const auto add_fct = [&](BenchRecord rec) {
    Stopwatch sw;
    std::vector<sim::FlowSpec> flows;
    for (const auto& [u, v, rate] : pairs) {
      if (rate < threshold) continue;
      sim::FlowSpec f;
      f.src = s.alloc->server_of(u);
      f.dst = s.alloc->server_of(v);
      f.size_bytes = rate * 60.0 / 8.0;
      f.ecmp_hash = (static_cast<std::uint64_t>(u) << 32) | v;
      flows.push_back(f);
    }
    std::vector<double> fct;
    for (const sim::FlowOutcome& o : flow_sim.run(flows)) {
      fct.push_back(o.finish_s);
    }
    rec.wall_time_s += sw.elapsed_s();
    rec.metric("flows", static_cast<double>(fct.size()));
    rec.metric("fct_mean_s", util::mean(fct));
    rec.metric("fct_p50_s", util::percentile(fct, 50.0));
    rec.metric("fct_p99_s", util::percentile(fct, 99.0));
    rec.metric("fct_max_s", util::percentile(fct, 100.0));
    emit(report, std::move(rec));
  };

  BenchRecord before;
  before.suite = "ablation-fct";
  before.scenario = "canonical-tree/medium/before-s-core";
  add_fct(std::move(before));

  Stopwatch sw;
  s.bind_cache();
  core::MigrationEngine engine(*s.model);
  core::HighestLevelFirstPolicy hlf;
  driver::ScoreSimulation sim(engine, hlf, *s.alloc, s.tm);
  BenchRecord after = sim_record(
      "ablation-fct", "canonical-tree/medium/after-s-core", sim.run());
  after.wall_time_s = sw.elapsed_s();
  add_fct(std::move(after));
}

// A7: topology neutrality (paper §VIII: S-CORE "is equally applicable to
// diverse DC network architectures"). The identical workload and policy on
// the canonical tree, fat-tree and two-tier leaf-spine, with exponential
// weights over each topology's levels; reports top-layer relief.
void run_ablation_topology(JsonReport& report) {
  const std::size_t num_vms = 320;
  for (const std::string name : {"canonical-tree", "fat-tree", "leaf-spine"}) {
    Stopwatch sw;
    const auto topology = make_topology(name);
    const int top = topology->max_level();
    core::CachedCostModel model(*topology, core::LinkWeights::exponential(top));
    traffic::GeneratorConfig gen;
    gen.num_vms = num_vms;
    gen.mean_service_size = 24;
    gen.cross_service_prob = 0.3;
    const traffic::TrafficMatrix tm =
        traffic::generate_traffic(gen, traffic::Intensity::kMedium);
    util::Rng rng(43);
    core::Allocation alloc = baselines::make_allocation(
        *topology, server_capacity(), num_vms, core::VmSpec{},
        baselines::PlacementStrategy::kRandom, rng);
    const double util_before =
        core::link_loads_for(*topology, alloc, tm).max_utilization(top);

    model.bind(alloc, tm);
    core::MigrationEngine engine(model);
    core::HighestLevelFirstPolicy hlf;
    driver::ScoreSimulation sim(engine, hlf, alloc, tm);
    const driver::SimResult res = sim.run();

    BenchRecord rec = sim_record("ablation-topology", name + "/medium", res);
    rec.wall_time_s = sw.elapsed_s();
    rec.metric("num_hosts", static_cast<double>(topology->num_hosts()));
    rec.metric("passes", static_cast<double>(res.iterations.size()));
    rec.metric("max_top_util_before", util_before);
    rec.metric("max_top_util_after",
               core::link_loads_for(*topology, alloc, tm).max_utilization(top));
    emit(report, std::move(rec));
  }
}

}  // namespace

bool run_figures(const RunOptions& opt, JsonReport& report) {
  run_fig3_tor_matrix(report);
  run_fig4_remedy(report);
  run_fig5a_flow_table(opt, report);
  run_fig5bcd_precopy(report);
  run_control_overhead(report);
  return true;
}

bool run_ablations(const RunOptions& /*opt*/, JsonReport& report) {
  run_ablation_weights(report);
  run_ablation_cm(report);
  run_ablation_policies(report);
  run_ablation_stability(report);
  run_ablation_fct(report);
  run_ablation_topology(report);
  return true;
}

}  // namespace score::bench
