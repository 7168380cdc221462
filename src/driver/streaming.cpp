#include "driver/streaming.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/cached_cost_model.hpp"
#include "traffic/traffic_matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace score::driver {

DriftTrigger::DriftTrigger(double threshold) : threshold_(threshold) {
  if (!(threshold >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "DriftTrigger: drift threshold must be >= 0, got " +
        std::to_string(threshold));
  }
}

double DriftTrigger::drift(double current_cost) const {
  const double diff = std::abs(current_cost - baseline_);
  if (baseline_ > 0.0) return diff / baseline_;
  return diff > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
}

namespace {

double percentile_or_zero(const std::vector<double>& samples, double p) {
  return samples.empty() ? 0.0 : util::percentile(samples, p);
}

}  // namespace

double StreamingReport::max_cost_ratio() const {
  double worst = std::numeric_limits<double>::quiet_NaN();
  auto fold_in = [&worst](double ratio) {  // a NaN ratio never wins
    if (std::isnan(worst) || ratio > worst) worst = ratio;
  };
  fold_in(fresh_ratio(final_cost, final_fresh_cost, final_fresh_computed));
  for (const ReoptEvent& ev : reopts) fold_in(ev.cost_ratio());
  return worst;
}

std::size_t StreamingReport::undefined_cost_ratios() const {
  std::size_t undefined = 0;
  if (std::isnan(fresh_ratio(final_cost, final_fresh_cost,
                             final_fresh_computed))) {
    ++undefined;
  }
  for (const ReoptEvent& ev : reopts) {
    if (!ev.cost_ratio_defined()) ++undefined;
  }
  return undefined;
}

double StreamingReport::fold_p50_ns() const {
  return percentile_or_zero(fold_latency_ns, 50.0);
}
double StreamingReport::fold_p99_ns() const {
  return percentile_or_zero(fold_latency_ns, 99.0);
}
double StreamingReport::trigger_p50_ns() const {
  return percentile_or_zero(trigger_latency_ns, 50.0);
}
double StreamingReport::trigger_p99_ns() const {
  return percentile_or_zero(trigger_latency_ns, 99.0);
}

namespace {

using SteadyClock = std::chrono::steady_clock;

double ns_since(SteadyClock::time_point start) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 SteadyClock::now() - start)
                                 .count());
}

/// Joins the producer on every run() exit path: closing the queue first
/// wakes a producer blocked on backpressure (its push throws, which the
/// producer treats as "consumer gone"), so the join cannot hang and a
/// throwing consumer can never destroy a joinable std::thread.
struct ProducerGuard {
  traffic::IngestQueue& queue;
  std::thread thread;

  ~ProducerGuard() {
    queue.close();
    if (thread.joinable()) thread.join();
  }
};

/// Deregisters an externally owned tap observer at scope exit (before the
/// matrix itself dies, so the tap never sees a dangling notification).
/// Non-copyable: a copy's destructor would deregister the live guard's tap
/// behind its back.
struct TapGuard {
  traffic::TrafficMatrix* tm = nullptr;
  traffic::TrafficObserver* tap = nullptr;

  TapGuard() = default;
  TapGuard(const TapGuard&) = delete;
  TapGuard& operator=(const TapGuard&) = delete;
  ~TapGuard() {
    if (tm != nullptr && tap != nullptr) tm->remove_observer(tap);
  }
};

}  // namespace

StreamingEngine::StreamingEngine(const topo::Topology& topology,
                                 StreamingConfig config)
    : topology_(&topology), config_(std::move(config)) {
  if (config_.generator.num_vms < 2) {
    throw std::invalid_argument("StreamingEngine: need at least 2 VMs");
  }
  config_.validate();
  DriftTrigger{config_.drift_threshold};  // reject a bad threshold up front
  if (config_.iterations_per_reopt == 0) {
    throw std::invalid_argument(
        "StreamingConfig::iterations_per_reopt must be >= 1");
  }
}

StreamingReport StreamingEngine::run() {
  StreamingReport report;

  // ---- scenario: matrix, placement, bound cache ----------------------------
  traffic::TrafficMatrix tm = traffic::generate_traffic(config_.generator);
  if (config_.intensity_scale != 1.0) tm = tm.scaled(config_.intensity_scale);
  util::Rng place_rng(config_.placement_seed);
  core::Allocation alloc =
      baselines::make_allocation(*topology_, config_.server_capacity,
                                 tm.num_vms(), config_.vm_spec,
                                 config_.placement, place_rng);
  const core::LinkWeights weights =
      core::LinkWeights::exponential(topology_->max_level());
  core::CachedCostModel model(*topology_, weights);
  model.bind(alloc, tm);

  TapGuard tap_guard;
  if (config_.tap != nullptr) {
    tm.add_observer(config_.tap);
    tap_guard.tm = &tm;
    tap_guard.tap = config_.tap;
  }

  // What starting over on the live matrix would achieve; `salt` keeps every
  // reference's placement draw distinct.
  auto fresh_reference = [&](std::uint64_t salt) {
    return fresh_reference_cost(*topology_, tm, config_.server_capacity,
                                config_.vm_spec, config_.placement,
                                config_.placement_seed * 104729ull + salt,
                                config_);
  };

  // ---- initial optimisation + trigger arm ----------------------------------
  reoptimize(model, alloc, tm, config_, config_.iterations_per_reopt);
  report.initial_cost = model.total_cost(alloc, tm);
  DriftTrigger trigger(config_.drift_threshold);
  trigger.arm(report.initial_cost);

  // ---- producer thread: synthesise batches over the queue ------------------
  // The stream snapshots the matrix at spawn time and never touches it
  // again; the queue is the only shared state (mutex + cv inside). The
  // guard below closes the queue and joins on every exit path — a closed
  // queue makes a blocked push throw, which the producer reads as "the
  // consumer is gone" and exits cleanly instead of terminating the process.
  traffic::IngestQueue queue(config_.queue_capacity);
  ProducerGuard producer{queue, std::thread([this, &queue, &tm] {
                           try {
                             traffic::FlowEventStream stream(tm, config_.events);
                             for (std::size_t t = 0; t < config_.ticks; ++t) {
                               queue.push(stream.next_batch());
                             }
                           } catch (const std::logic_error&) {
                             return;  // queue closed under us: consumer aborted
                           }
                           queue.close();
                         })};

  // ---- consumer loop: fold deltas, fire on drift ---------------------------
  std::size_t tick = 0;
  traffic::FlowDeltaBatch batch;
  while (queue.pop(batch)) {
    const auto fold_start = SteadyClock::now();
    tm.apply(batch);
    report.deltas_applied += batch.size();
    report.fold_latency_ns.push_back(ns_since(fold_start));

    const auto decision_start = SteadyClock::now();
    const double current = model.total_cost(alloc, tm);  // O(1): folded
    const bool fire = trigger.should_reoptimize(current);
    report.trigger_latency_ns.push_back(ns_since(decision_start));

    if (fire) {
      ReoptEvent ev;
      ev.tick = tick;
      ev.drift = trigger.drift(current);
      ev.cost_before = current;
      const ConvergenceReport res =
          reoptimize(model, alloc, tm, config_, config_.iterations_per_reopt);
      ev.cost_after = model.total_cost(alloc, tm);
      ev.migrations = res.migrations;
      ev.rounds = res.rounds;
      if (config_.fresh_reference) {
        ev.fresh_cost = fresh_reference(31ull * tick + 17ull);
        ev.fresh_computed = true;
      }
      trigger.arm(ev.cost_after);
      report.reopts.push_back(ev);
    }
    ++tick;
  }

  report.ticks = tick;
  report.final_cost = model.total_cost(alloc, tm);
  if (config_.fresh_reference) {
    report.final_fresh_cost = fresh_reference(0xF1A7ull);
    report.final_fresh_computed = true;
  }
  report.deltas_folded = model.deltas_folded();
  report.cache_rebuilds = model.rebuilds();
  report.max_queue_depth = queue.max_depth();
  return report;
}

}  // namespace score::driver
