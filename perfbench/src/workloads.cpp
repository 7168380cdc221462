#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/cost_model.hpp"
#include "core/migration_engine.hpp"
#include "core/token_policy.hpp"
#include "driver/multi_token.hpp"
#include "driver/streaming.hpp"
#include "hypervisor/agent.hpp"
#include "hypervisor/communicator.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "probes.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

namespace driver = score::driver;
namespace hv = score::hypervisor;

/// Iteration cap of the untimed run-to-stability references; never reached
/// (they stop on the first pass without a migration).
constexpr std::size_t kRunToStability = 1000;
/// Fixed pass budgets of the timed runs. Running to stability adds a tail of
/// passes that commit < 1% of the migrations and whose number depends on the
/// seed (13-16 passes on fat-tree k=48, 6-10 rounds on k=16), which would
/// make the time a property of the seed. Every seed is still committing at
/// these budgets, so each run does the same amount of work. Two passes keep
/// one incremental begin_pass in the timed work and make a repetition short
/// (1.5-2.5 s), so the fastest of many lands in a quiet stretch of the host.
constexpr std::size_t kConvergePasses = 2;
constexpr std::size_t kDistRounds = 2;
/// Token passes per streaming re-optimisation (and for the initial one).
constexpr std::size_t kReoptPasses = 3;
constexpr double kFreshRatioBand = 1.15;
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMinSetupSamples = 5;
constexpr double kMinSetupSeconds = 2.0;

std::string str(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

/// Calls `rep` at least kMinReps times, and again while the next call (as
/// long as the last one) is expected to end within `seconds`. Each workload
/// runs one untimed warm-up execution first: the first in a process pays for
/// first-touch page faults (about 30% on converge-ft48).
template <class F>
void repeat_within(double seconds, F&& rep) {
  const Clock::time_point start = Clock::now();
  double last = 0.0;
  for (std::size_t i = 0;
       i < kMinReps || seconds_since(start) + last <= seconds; ++i) {
    last = time_s(rep);
  }
}

struct Samples {
  std::vector<double> setup;
  std::vector<double> run;
  std::vector<Fingerprint> prints;
};

/// Builds the world at least kMinSetupSamples times and for at least
/// kMinSetupSeconds, recording each set-up time, and keeps the last build
/// for the executions.
World build_measured(const WorldSpec& spec, const Seeds& seeds, Samples& s) {
  double total = 0.0;
  for (;;) {
    World w = build_world(spec, seeds);
    s.setup.push_back(w.times.total());
    total += s.setup.back();
    if (s.setup.size() >= kMinSetupSamples && total >= kMinSetupSeconds) return w;
  }
}

/// `rss_bytes` is the peak RSS read right after the timed repetitions, before
/// any untimed reference or probe adds its own buffers.
void report_end_to_end(Report& r, const Samples& s, std::uint64_t rss_bytes,
                       std::size_t num_vms, double reduction_pct) {
  const auto print = [](const char* what, const std::vector<double>& v) {
    std::cerr << "perfbench: " << what << " samples (s):";
    for (const double x : v) std::cerr << ' ' << x;
    std::cerr << "\n";
  };
  print("setup", s.setup);
  print("run", s.run);
  // The fastest repetition: contention from other tenants only ever adds
  // time, and slow episodes outlast several repetitions, so the minimum
  // varies least between runs (5-run spreads of 5-9%, against 7-23% for the
  // median on the same samples).
  r.set("setup_s", *std::min_element(s.setup.begin(), s.setup.end()));
  r.set("run_s", *std::min_element(s.run.begin(), s.run.end()));
  r.set("rss_bytes_per_vm", static_cast<double>(rss_bytes) / static_cast<double>(num_vms));
  r.set("cost_reduction_pct", reduction_pct);
}

// ---- output checks -----------------------------------------------------------

void check_final_cost(Checks& checks, const topo::Topology& topology,
                      const core::Allocation& alloc,
                      const traffic::TrafficMatrix& tm, double reported) {
  const core::CostModel brute(topology, fleet_weights(topology));
  const double truth = brute.total_cost(alloc, tm);
  double seen = reported;
  if (checks.perturb("final_cost_matches_bruteforce")) seen *= 1.0 + 1e-6;
  checks.expect("final_cost_matches_bruteforce", rel_err(seen, truth) <= 1e-9,
                "reported " + str(seen) + " vs brute-force Eq. (2) " + str(truth));
}

/// Allows floating-point noise only: the reconciled pass cost may differ from
/// the running one by a few ulps.
void check_monotone(Checks& checks, std::vector<double> series) {
  if (checks.perturb("cost_series_monotone")) series.push_back(series.back() * 1.01 + 1.0);
  std::string detail;
  for (std::size_t i = 1; i < series.size(); ++i) {
    if (series[i] > series[i - 1] * (1.0 + 1e-9)) {
      detail = "point " + std::to_string(i) + " rises from " +
               str(series[i - 1]) + " to " + str(series[i]);
      break;
    }
  }
  checks.expect("cost_series_monotone", detail.empty(), detail);
}

void check_invisible(Checks& checks, const Fingerprint& untraced, Fingerprint traced) {
  if (checks.perturb("trace_invisible")) traced.front().second += 1.0;
  std::string detail;
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    if (traced.at(i).second != untraced[i].second) {
      detail += untraced[i].first + " traced " + str(traced[i].second) +
                " vs untraced " + str(untraced[i].second) + "; ";
    }
  }
  checks.expect("trace_invisible", detail.empty(), detail);
}

// ---- per-layer reporting -------------------------------------------------------

/// Counts and shares of layers a workload does not run. Each workload names
/// its absent metrics, so one it forgets to report still fails Report::json.
const std::vector<const char*> kDriverWalkMetrics = {
    "driver.passes", "driver.holds", "driver.migrations", "driver.commit_ratio"};
const std::vector<const char*> kStreamingMetrics = {
    "traffic.queue_max_depth", "driver.reopts",        "driver.reopt_migrations",
    "driver.reopt_share",      "driver.trigger_share", "driver.initial_opt_share"};
const std::vector<const char*> kHypervisorMetrics = {
    "hypervisor.rounds",           "hypervisor.token_msgs",
    "hypervisor.token_bytes",      "hypervisor.probe_msgs",
    "hypervisor.control_bytes",    "hypervisor.control_msgs_per_vm",
    "hypervisor.control_bytes_per_vm", "hypervisor.agent_share",
    "hypervisor.agent_token_share", "hypervisor.agent_probe_share",
    "hypervisor.deliveries",       "hypervisor.runtime_self_share",
    "hypervisor.messages_lost",    "hypervisor.probe_timeouts",
    "hypervisor.token_reinjections"};

void report_absent(Report& r, const std::vector<const char*>& names) {
  for (const char* name : names) r.set(name, 0.0);
}

void report_setup_layers(Report& r, const SetupTimes& t) {
  r.set("topology.build_s", t.topology_s);
  r.set("traffic.generate_s", t.generate_s);
  r.set("baselines.place_s", t.place_s);
  r.set("core.bind_s", t.bind_s);
}

void report_core(Report& r, const CoreProbe& p) {
  r.set("core.evaluate_ns", p.evaluate_ns);
  r.set("core.begin_pass_full_s", p.begin_pass_full_s);
  r.set("core.begin_pass_incr_s", p.begin_pass_incr_s);
  r.set("core.begin_pass_touched", static_cast<double>(p.touched));
  r.set("core.reconcile_s", p.reconcile_s);
}

/// Token-pass work modelled from the core probes: `holds` evaluations, one
/// full begin_pass per optimiser run, incremental ones for its later passes,
/// one reconcile per pass.
double modelled_passes_s(const CoreProbe& p, double holds, double passes, double runs) {
  return holds * p.evaluate_ns * 1e-9 + runs * p.begin_pass_full_s +
         (passes - runs) * p.begin_pass_incr_s + passes * p.reconcile_s;
}

void report_folds(Report& r, const std::vector<double>& batch_ns, double share) {
  const FoldStats folds = fold_stats(batch_ns);
  r.set("traffic.fold_s", folds.total_s);
  r.set("traffic.fold_p50_ns", folds.p50_ns);
  r.set("traffic.fold_tail_ns", folds.tail_ns);
  r.set("traffic.fold_tail_pct", folds.tail_pct);
  r.set("traffic.fold_samples", static_cast<double>(folds.samples));
  r.set("traffic.fold_share", share);
}

/// The write path measured by replaying recorded batches. On the workloads
/// without ingest this is the traffic layer's only measurement, folds
/// included (they take no share of those runs).
void report_traffic_probe(Report& r, const TrafficProbe& p, bool live_ingest) {
  r.set("traffic.next_batch_ns", p.next_batch_ns);
  r.set("traffic.apply_ns_per_delta", p.apply_ns_per_delta);
  r.set("traffic.compactions", static_cast<double>(p.compactions));
  r.set("traffic.overflow_entries", static_cast<double>(p.overflow_entries));
  if (!live_ingest) {
    r.set("traffic.deltas_applied", static_cast<double>(p.deltas));
    report_folds(r, p.batch_ns, 0.0);
  }
}

void report_driver_walk(Report& r, const driver::SimResult& res) {
  std::size_t holds = 0;
  for (const auto& it : res.iterations) holds += it.holds;
  r.set("driver.passes", static_cast<double>(res.iterations.size()));
  r.set("driver.holds", static_cast<double>(holds));
  r.set("driver.migrations", static_cast<double>(res.total_migrations));
  r.set("driver.commit_ratio", holds > 0 ? static_cast<double>(res.total_migrations) /
                                               static_cast<double>(holds)
                                         : 0.0);
}

/// Codec and fabric probes at this workload's size; the codec share charges
/// every token message one encode + decode of a token this size.
void report_wire_probes(Report& r, const topo::Topology& topology,
                        std::size_t num_vms, double token_msgs, double run_s) {
  const double codec_us = probe_token_codec_us(num_vms);
  r.set("hypervisor.token_codec_us", codec_us);
  r.set("hypervisor.token_codec_share", token_msgs * codec_us * 1e-6 / run_s);
  const SimProbe sim = probe_sim(topology, num_vms);
  r.set("sim.msg_ns", sim.msg_ns);
  r.set("sim.token_msg_us", sim.token_msg_us);
}

/// `attributed_s` may be partly modelled (probe time × call count); a model
/// that overshoots the traced run is capped at it, so the residual never goes
/// negative, and the overshoot is printed on stderr.
void report_trace(Report& r, double traced_run_s, double untraced_run_s,
                  double attributed_s) {
  if (attributed_s > traced_run_s) {
    std::cerr << "perfbench: attributed time " << attributed_s
              << " s exceeds the traced run " << traced_run_s
              << " s; capped (the modelled part overestimates)\n";
    attributed_s = traced_run_s;
  }
  r.set("trace.run_s", traced_run_s);
  r.set("trace.untraced_run_s", untraced_run_s);
  r.set("trace.overhead_pct", 100.0 * (traced_run_s - untraced_run_s) / untraced_run_s);
  r.set("trace.attributed_s", attributed_s);
  r.set("trace.residual_s", traced_run_s - attributed_s);
  r.set("trace.attributed_share", attributed_s / traced_run_s);
}

traffic::FlowEventConfig fleet_events(std::size_t num_vms, const Seeds& seeds) {
  traffic::FlowEventConfig events;
  events.events_per_tick = num_vms / 2;  // 0.5 events per VM per tick
  events.seed = seeds.events;
  return events;
}

// ---- converge-ft48 ---------------------------------------------------------------

void converge_ft48(const Options& opt, Report& report, Checks& checks) {
  WorldSpec spec;
  spec.k = opt.smoke ? 8 : 48;
  const Seeds seeds = seeds_of(opt.seed);
  driver::MultiTokenConfig cfg;
  cfg.tokens = kTokens;
  cfg.iterations = kConvergePasses;
  cfg.stop_when_stable = false;

  Samples s;
  const World w = build_measured(spec, seeds, s);
  const std::size_t num_vms = w.num_vms();

  struct Execution {
    State state;
    driver::SimResult result;
    double run_s = 0.0;
  };
  const auto execute = [&] {
    checks.op();
    Execution e;
    e.state = fresh_state(w);
    const core::MigrationEngine engine(*e.state.model);
    driver::MultiTokenSimulation sim(engine, *e.state.alloc, *w.tm);
    e.run_s = time_s([&] { e.result = sim.run(cfg); });
    check_final_cost(checks, *w.topology, *e.state.alloc, *w.tm, e.result.final_cost);
    std::vector<double> series{e.result.initial_cost};
    for (const auto& p : e.result.series) series.push_back(p.cost);
    check_monotone(checks, std::move(series));
    return e;
  };
  const auto fingerprint = [](const Execution& e) -> Fingerprint {
    return {{"final_cost", e.result.final_cost},
            {"migrations", static_cast<double>(e.result.total_migrations)},
            {"passes", static_cast<double>(e.result.iterations.size())}};
  };

  s.prints.push_back(fingerprint(execute()));  // warm-up, untimed
  double reduction = 0.0;
  repeat_within(opt.seconds, [&] {
    const Execution e = execute();
    s.run.push_back(e.run_s);
    s.prints.push_back(fingerprint(e));
    reduction = 100.0 * e.result.reduction();
  });
  expect_identical(checks, s.prints);
  report_end_to_end(report, s, peak_rss_bytes(), num_vms, reduction);
  if (!opt.trace) return;

  // Traced execution: the same calls, followed by probes on its final state.
  const Execution e = execute();
  check_invisible(checks, s.prints.front(), fingerprint(e));
  report_absent(report, kStreamingMetrics);
  report_absent(report, kHypervisorMetrics);
  report_setup_layers(report, w.times);
  const CoreProbe core =
      probe_core(*w.topology, *e.state.alloc, *w.tm, e.result.migration_log);
  report_core(report, core);
  report.set("core.deltas_folded", static_cast<double>(e.state.model->deltas_folded()));
  report.set("core.cache_rebuilds", static_cast<double>(e.state.model->rebuilds()));
  report_driver_walk(report, e.result);
  report_traffic_probe(report,
                       probe_traffic(*w.topology, *w.alloc, *w.tm,
                                     fleet_events(num_vms, seeds), 32),
                       /*live_ingest=*/false);
  report_wire_probes(report, *w.topology, num_vms, 0.0, e.run_s);
  report_trace(report, e.run_s, median(s.run),
               modelled_passes_s(core, report.get("driver.holds"),
                                 report.get("driver.passes"), 1.0));
}

// ---- dist-ft16 -------------------------------------------------------------------

/// Forwarding executor: times every delivery and probe timer around the
/// in-process agents, split by message type.
class TimedExecutor final : public hv::AgentExecutor {
 public:
  void start(hv::RuntimeCore& core) override { inner_.start(core); }
  void deliver(const score::sim::Message& msg) override {
    const double s = time_s([&] { inner_.deliver(msg); });
    (msg.type == static_cast<int>(hv::CtrlMsg::kToken) ? token_s : probe_s) += s;
    ++deliveries;
  }
  void fire_probe_timer(topo::HostId host, std::uint32_t nonce, int stage) override {
    probe_s += time_s([&] { inner_.fire_probe_timer(host, nonce, stage); });
  }
  void host_left(topo::HostId host) override { inner_.host_left(host); }
  void host_joined(topo::HostId host) override { inner_.host_joined(host); }
  void finish() override { inner_.finish(); }

  double token_s = 0.0;
  double probe_s = 0.0;
  std::uint64_t deliveries = 0;

 private:
  hv::LocalAgentExecutor inner_;
};

void dist_ft16(const Options& opt, Report& report, Checks& checks) {
  WorldSpec spec;
  spec.k = opt.smoke ? 4 : 16;
  const Seeds seeds = seeds_of(opt.seed);
  hv::RuntimeConfig rcfg;
  rcfg.policy = "round-robin";
  rcfg.iterations = kDistRounds;
  rcfg.stop_when_stable = false;
  rcfg.message_loss_rate = 0.0;
  rcfg.retransmit_timeout_s = 30.0;  // > decision + probes + one transfer

  Samples s;
  const World w = build_measured(spec, seeds, s);
  const std::size_t num_vms = w.num_vms();

  struct Execution {
    State state;
    hv::RuntimeResult result;
    double run_s = 0.0;
  };
  // `timed` non-null runs the agents behind the forwarding executor.
  const auto execute = [&](TimedExecutor* timed) {
    checks.op();
    Execution e;
    e.state = fresh_state(w);
    std::optional<hv::DistributedScoreRuntime> runtime;
    e.run_s = time_s([&] {
      if (timed != nullptr) {
        runtime.emplace(*e.state.model, *e.state.alloc, *w.tm, rcfg, *timed);
      } else {
        runtime.emplace(*e.state.model, *e.state.alloc, *w.tm, rcfg);
      }
      e.result = runtime->run();
    });
    const hv::RuntimeResult& r = e.result;
    check_final_cost(checks, *w.topology, *e.state.alloc, *w.tm, r.final_cost);
    std::vector<double> series{r.initial_cost};
    for (const auto& it : r.iterations) series.push_back(it.cost_at_end);
    check_monotone(checks, std::move(series));
    std::uint64_t faults = r.messages_lost + r.probe_timeouts + r.probe_retransmits +
                           r.token_reinjections;
    if (checks.perturb("loss_free_run")) ++faults;
    checks.expect("loss_free_run", faults == 0,
                  "loss 0 yet " + std::to_string(faults) +
                      " lost/timed-out/retransmitted/re-injected messages");
    return e;
  };
  const auto fingerprint = [](const Execution& e) -> Fingerprint {
    const hv::RuntimeResult& r = e.result;
    return {{"trace_hash_hi", static_cast<double>(r.trace_hash >> 32)},
            {"trace_hash_lo", static_cast<double>(r.trace_hash & 0xffffffffu)},
            {"final_cost", r.final_cost},
            {"migrations", static_cast<double>(r.total_migrations)},
            {"rounds", static_cast<double>(r.rounds())},
            {"token_messages", static_cast<double>(r.token_messages)},
            {"control_bytes", static_cast<double>(r.control_bytes)}};
  };

  s.prints.push_back(fingerprint(execute(nullptr)));  // warm-up, untimed
  double reduction = 0.0;
  double dist_final = 0.0;
  repeat_within(opt.seconds, [&] {
    const Execution e = execute(nullptr);
    s.run.push_back(e.run_s);
    s.prints.push_back(fingerprint(e));
    reduction = 100.0 * e.result.reduction();
    dist_final = e.result.final_cost;
  });
  expect_identical(checks, s.prints);
  const std::uint64_t rss_bytes = peak_rss_bytes();

  // Untimed centralized reference on the same world: the single-token
  // Round-Robin walk the distributed protocol implements, same pass budget.
  checks.op();
  const State ref = fresh_state(w);
  const core::MigrationEngine ref_engine(*ref.model);
  core::RoundRobinPolicy rr;
  driver::SimConfig ref_cfg;
  ref_cfg.iterations = kDistRounds;
  ref_cfg.stop_when_stable = false;
  driver::ScoreSimulation ref_sim(ref_engine, rr, *ref.alloc, *w.tm);
  const driver::SimResult ref_result = ref_sim.run(ref_cfg);
  double ratio = dist_final / ref_result.final_cost;
  if (checks.perturb("dist_within_1pct_of_centralized")) ratio += 1.0;
  checks.expect("dist_within_1pct_of_centralized", std::abs(ratio - 1.0) <= 0.01,
                "distributed / centralized final cost = " + str(ratio));
  report_end_to_end(report, s, rss_bytes, num_vms, reduction);
  if (!opt.trace) return;

  TimedExecutor timed;
  const Execution e = execute(&timed);
  check_invisible(checks, s.prints.front(), fingerprint(e));
  const hv::RuntimeResult& r = e.result;
  // The distributed runtime walks its own token, not the driver's.
  report_absent(report, kDriverWalkMetrics);
  report_absent(report, kStreamingMetrics);
  report_setup_layers(report, w.times);
  // Core layer on this world: probed on the centralized reference's walk.
  report_core(report, probe_core(*w.topology, *ref.alloc, *w.tm, ref_result.migration_log));
  report.set("core.deltas_folded", static_cast<double>(e.state.model->deltas_folded()));
  report.set("core.cache_rebuilds", static_cast<double>(e.state.model->rebuilds()));
  report_traffic_probe(report,
                       probe_traffic(*w.topology, *w.alloc, *w.tm,
                                     fleet_events(num_vms, seeds), 64),
                       /*live_ingest=*/false);

  const double n = static_cast<double>(num_vms);
  const double probe_msgs = static_cast<double>(r.location_messages + r.capacity_messages);
  const double control_msgs = static_cast<double>(r.token_messages) + probe_msgs;
  report.set("hypervisor.rounds", static_cast<double>(r.rounds()));
  report.set("hypervisor.token_msgs", static_cast<double>(r.token_messages));
  report.set("hypervisor.token_bytes", static_cast<double>(r.token_bytes));
  report.set("hypervisor.probe_msgs", probe_msgs);
  report.set("hypervisor.control_bytes", static_cast<double>(r.control_bytes));
  report.set("hypervisor.control_msgs_per_vm", control_msgs / n);
  report.set("hypervisor.control_bytes_per_vm", static_cast<double>(r.control_bytes) / n);
  const double agent_s = timed.token_s + timed.probe_s;
  report.set("hypervisor.agent_share", agent_s / e.run_s);
  report.set("hypervisor.agent_token_share", timed.token_s / e.run_s);
  report.set("hypervisor.agent_probe_share", timed.probe_s / e.run_s);
  report.set("hypervisor.deliveries", static_cast<double>(timed.deliveries));
  report.set("hypervisor.runtime_self_share", (e.run_s - agent_s) / e.run_s);
  report.set("hypervisor.messages_lost", static_cast<double>(r.messages_lost));
  report.set("hypervisor.probe_timeouts", static_cast<double>(r.probe_timeouts));
  report.set("hypervisor.token_reinjections", static_cast<double>(r.token_reinjections));
  report_wire_probes(report, *w.topology, num_vms, static_cast<double>(r.token_messages),
                     e.run_s);
  report_trace(report, e.run_s, median(s.run), agent_s);
}

// ---- stream-c2560 / ingest-c2560 -------------------------------------------------

/// Records when the first traffic rate change reaches the live matrix: the
/// end of world build and initial optimisation, the start of the live phase.
class FirstChangeTap final : public traffic::TrafficObserver {
 public:
  void on_rate_change(traffic::VmId, traffic::VmId, double, double) override {
    if (!seen_) {
      first_ = Clock::now();
      seen_ = true;
    }
  }
  void on_bulk_update() override {}
  void on_matrix_destroyed() override {}

  bool seen() const { return seen_; }
  Clock::time_point first() const { return first_; }

 private:
  bool seen_ = false;
  Clock::time_point first_{};
};

void streaming(const Options& opt, Report& report, Checks& checks, bool ingest) {
  WorldSpec spec;
  spec.fat_tree = false;
  spec.canonical = topo::CanonicalTreeConfig::paper_scale();
  // The library's small_scale (640 VMs) is too small for 4 tokens to track a
  // fresh re-optimisation within 5%; a quarter of the paper world is not.
  if (opt.smoke) spec.canonical.racks /= 4;
  const Seeds seeds = seeds_of(opt.seed);
  const std::size_t num_vms = fleet_vms(*make_topology(spec));

  driver::StreamingConfig cfg;
  cfg.generator = fleet_generator(num_vms, seeds.traffic);
  cfg.server_capacity = fleet_capacity();
  cfg.placement_seed = seeds.placement;
  cfg.events = fleet_events(num_vms, seeds);
  cfg.ticks = ingest ? (opt.smoke ? 32 : 256) : (opt.smoke ? 4 : 6);
  cfg.queue_capacity = 4;
  // stream: a threshold of 0 re-optimises after every batch. A positive one
  // fires where the seed's drift happens to cross it (7-10 times in 64 ticks
  // at 0.05), so the work would depend on the seed. ingest: never fires.
  cfg.drift_threshold = ingest ? std::numeric_limits<double>::max() : 0.0;
  cfg.tokens = kTokens;
  cfg.iterations_per_reopt = kReoptPasses;
  cfg.reopt_iterations = kRunToStability;
  cfg.fresh_reference = false;

  struct Execution {
    driver::StreamingReport result;
    double setup_s = 0.0;
    double run_s = 0.0;
  };
  const auto execute = [&] {
    checks.op();
    Execution e;
    FirstChangeTap tap;
    driver::StreamingConfig c = cfg;
    c.tap = &tap;
    const Clock::time_point start = Clock::now();
    const std::unique_ptr<topo::Topology> topology = make_topology(spec);
    e.result = driver::StreamingEngine(*topology, c).run();
    const Clock::time_point end = Clock::now();
    if (!tap.seen()) throw std::runtime_error("streaming: no rate change reached the matrix");
    e.setup_s = std::chrono::duration<double>(tap.first() - start).count();
    e.run_s = std::chrono::duration<double>(end - tap.first()).count();

    const driver::StreamingReport& r = e.result;
    std::uint64_t applied = r.deltas_applied;
    if (checks.perturb("folded_equals_applied")) ++applied;
    checks.expect("folded_equals_applied", r.deltas_folded == applied,
                  std::to_string(r.deltas_folded) + " folded vs " +
                      std::to_string(applied) + " applied");
    std::uint64_t rebuilds = r.cache_rebuilds;
    if (checks.perturb("no_rebuild_after_bind")) ++rebuilds;
    checks.expect("no_rebuild_after_bind", rebuilds == 1,
                  std::to_string(rebuilds) + " cache rebuilds (1 = the initial bind)");
    std::size_t depth = r.max_queue_depth;
    if (checks.perturb("queue_within_capacity")) depth = cfg.queue_capacity + 1;
    checks.expect("queue_within_capacity", depth <= cfg.queue_capacity,
                  "max queue depth " + std::to_string(depth) + " > capacity " +
                      std::to_string(cfg.queue_capacity));
    std::size_t reopts = r.reopts.size();
    if (checks.perturb("reopt_count")) ++reopts;
    const std::size_t want = ingest ? 0 : cfg.ticks;
    checks.expect("reopt_count", reopts == want,
                  std::to_string(reopts) + " re-optimisations, expected " +
                      std::to_string(want));
    return e;
  };
  const auto fingerprint = [](const Execution& e) -> Fingerprint {
    const driver::StreamingReport& r = e.result;
    std::size_t migrations = 0;
    for (const auto& ev : r.reopts) migrations += ev.migrations;
    return {{"final_cost", r.final_cost},
            {"initial_cost", r.initial_cost},
            {"reopts", static_cast<double>(r.reopts.size())},
            {"reopt_migrations", static_cast<double>(migrations)},
            {"deltas_applied", static_cast<double>(r.deltas_applied)}};
  };

  Samples s;
  s.prints.push_back(fingerprint(execute()));  // warm-up, untimed
  double final_cost = 0.0;
  repeat_within(opt.seconds, [&] {
    const Execution e = execute();
    s.setup.push_back(e.setup_s);
    s.run.push_back(e.run_s);
    s.prints.push_back(fingerprint(e));
    final_cost = e.result.final_cost;
  });
  expect_identical(checks, s.prints);
  const std::uint64_t rss_bytes = peak_rss_bytes();

  // Untimed reference: the same event stream replayed onto the initial
  // (random) placement. The reduction is what optimising saved on the final
  // traffic.
  const World w = build_world(spec, seeds);
  const TrafficProbe replay = probe_traffic(*w.topology, *w.alloc, *w.tm, cfg.events, cfg.ticks);
  report_end_to_end(report, s, rss_bytes, num_vms,
                    100.0 * (1.0 - final_cost / replay.final_cost));
  if (!opt.trace) return;

  const Execution e = execute();
  check_invisible(checks, s.prints.front(), fingerprint(e));
  const driver::StreamingReport& r = e.result;
  report_absent(report, kHypervisorMetrics);

  // Initial optimisation as the engine runs it, re-run from outside on the
  // same world; its walk feeds the core probes.
  report_setup_layers(report, w.times);
  const State initial_state = fresh_state(w);
  const core::MigrationEngine engine(*initial_state.model);
  driver::MultiTokenConfig mcfg;
  mcfg.tokens = kTokens;
  mcfg.iterations = cfg.iterations_per_reopt;
  driver::MultiTokenSimulation sim(engine, *initial_state.alloc, *w.tm);
  driver::SimResult initial;
  const double initial_opt_s = time_s([&] { initial = sim.run(mcfg); });
  report.set("driver.initial_opt_share", initial_opt_s / median(s.setup));
  const CoreProbe core =
      probe_core(*w.topology, *initial_state.alloc, *w.tm, initial.migration_log);
  report_core(report, core);
  report.set("core.deltas_folded", static_cast<double>(r.deltas_folded));
  report.set("core.cache_rebuilds", static_cast<double>(r.cache_rebuilds));

  // The matrix evolves independently of the placement, so the replay's
  // compactions and overflow are the live run's.
  report_traffic_probe(report, replay, /*live_ingest=*/true);
  double fold_s = 0.0;
  for (const double ns : r.fold_latency_ns) fold_s += ns * 1e-9;
  double trigger_s = 0.0;
  for (const double ns : r.trigger_latency_ns) trigger_s += ns * 1e-9;
  report_folds(report, r.fold_latency_ns, fold_s / e.run_s);
  report.set("traffic.deltas_applied", static_cast<double>(r.deltas_applied));
  report.set("traffic.queue_max_depth", static_cast<double>(r.max_queue_depth));

  // Full re-optimisations walk every VM once per round.
  std::size_t rounds = 0;
  std::size_t migrations = 0;
  for (const auto& ev : r.reopts) {
    rounds += ev.rounds;
    migrations += ev.migrations;
  }
  const double holds = static_cast<double>(rounds * num_vms);
  report.set("driver.passes", static_cast<double>(rounds));
  report.set("driver.holds", holds);
  report.set("driver.migrations", static_cast<double>(migrations));
  report.set("driver.commit_ratio", holds > 0 ? static_cast<double>(migrations) / holds : 0.0);
  report.set("driver.reopts", static_cast<double>(r.reopts.size()));
  report.set("driver.reopt_migrations", static_cast<double>(migrations));
  report.set("driver.trigger_share", trigger_s / e.run_s);
  // Without a re-opt (ingest) the rest of the live phase is queue hand-off,
  // which only the trace residual counts.
  report.set("driver.reopt_share", ingest ? 0.0 : (e.run_s - fold_s - trigger_s) / e.run_s);
  report_wire_probes(report, *w.topology, num_vms, 0.0, e.run_s);
  report_trace(report, e.run_s, median(s.run),
               fold_s + trigger_s +
                   modelled_passes_s(core, holds, static_cast<double>(rounds),
                                     static_cast<double>(r.reopts.size())));

  if (!ingest) {
    // Quality against starting over: the first ticks of the same stream with
    // the fresh reference on (untimed; each reference is a full optimisation
    // from a new random placement, so the whole stream would cost minutes).
    // The reference is itself one random local optimum: over the first 40
    // seeds the worst ratio reached 1.10, while a stream that stops
    // re-optimising reaches 1.20-1.36 in these 8 ticks, hence the band.
    checks.op();
    driver::StreamingConfig fresh_cfg = cfg;
    fresh_cfg.ticks = opt.smoke ? 4 : 8;
    fresh_cfg.fresh_reference = true;
    const std::unique_ptr<topo::Topology> topology = make_topology(spec);
    const driver::StreamingReport fresh = driver::StreamingEngine(*topology, fresh_cfg).run();
    double worst = fresh.max_cost_ratio();
    std::cerr << "perfbench: worst cost ratio vs fresh re-optimisation " << worst << "\n";
    if (checks.perturb("fresh_ratio_band")) worst += kFreshRatioBand;
    checks.expect("fresh_ratio_band",
                  worst <= kFreshRatioBand && fresh.undefined_cost_ratios() == 0,
                  "worst cost ratio vs fresh re-optimisation " + str(worst) + " with " +
                      std::to_string(fresh.undefined_cost_ratios()) + " undefined ratios");
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"converge-ft48", "dist-ft16",
                                                 "stream-c2560", "ingest-c2560"};
  return names;
}

void run_workload(const Options& opt, Report& report, Checks& checks) {
  if (opt.workload == "converge-ft48") {
    converge_ft48(opt, report, checks);
  } else if (opt.workload == "dist-ft16") {
    dist_ft16(opt, report, checks);
  } else if (opt.workload == "stream-c2560") {
    streaming(opt, report, checks, /*ingest=*/false);
  } else if (opt.workload == "ingest-c2560") {
    streaming(opt, report, checks, /*ingest=*/true);
  } else {
    throw std::invalid_argument("unknown workload " + opt.workload);
  }
}

}  // namespace perfbench
