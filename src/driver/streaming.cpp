#include "driver/streaming.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/cached_cost_model.hpp"
#include "core/sharded_cost_oracle.hpp"
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

/// Attributes every effective rate transition an apply commits (post-clamp
/// new − old, the exact amount the bound cache folded) to the ingest shards
/// owning its endpoints: each endpoint adds ½·pair_cost(|Δλ|, ℓ(u,v)) to its
/// shard's batch total, so a pair inside one shard adds twice that once.
/// Levels are read from the allocation, which no apply moves.
class DriftRecorder final : public traffic::TrafficObserver {
 public:
  DriftRecorder(traffic::TrafficMatrix& tm, const traffic::ShardMap& map,
                const core::CostModel& model, const core::Allocation& alloc)
      : tm_(&tm), map_(&map), model_(&model), alloc_(&alloc),
        batch_drift_(map.num_shards(), 0.0) {
    tm.add_observer(this);
  }
  ~DriftRecorder() override {
    if (tm_) tm_->remove_observer(this);
  }
  DriftRecorder(const DriftRecorder&) = delete;
  DriftRecorder& operator=(const DriftRecorder&) = delete;

  void on_rate_change(traffic::VmId u, traffic::VmId v, double old_rate,
                      double new_rate) override {
    const int level = model_->level(*alloc_, u, v);
    const double per_endpoint =
        0.5 * model_->pair_cost(std::abs(new_rate - old_rate), level);
    const std::size_t su = map_->shard_of(u);
    const std::size_t sv = map_->shard_of(v);
    if (su == sv) {
      batch_drift_[su] += 2.0 * per_endpoint;
    } else {
      batch_drift_[su] += per_endpoint;
      batch_drift_[sv] += per_endpoint;
    }
  }
  void on_bulk_update() override { bulk_ = true; }
  void on_matrix_destroyed() override { tm_ = nullptr; }

  /// Adds each shard's attribution since the last drain into `acc` and
  /// zeroes the batch totals. True if a bulk (non-attributable) mutation
  /// landed since the last drain; the engine then treats every shard as
  /// drifted.
  bool drain_into(std::vector<double>& acc) {
    for (std::size_t t = 0; t < batch_drift_.size(); ++t) {
      acc[t] += batch_drift_[t];
      batch_drift_[t] = 0.0;
    }
    return std::exchange(bulk_, false);
  }

 private:
  traffic::TrafficMatrix* tm_;
  const traffic::ShardMap* map_;
  const core::CostModel* model_;
  const core::Allocation* alloc_;
  std::vector<double> batch_drift_;
  bool bulk_ = false;
};

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

  // ---- sharded ingest state ------------------------------------------------
  const std::size_t num_vms = tm.num_vms();
  std::unique_ptr<traffic::ShardMap> smap;
  std::vector<core::VmRange> shard_ranges;
  std::vector<DriftTrigger> shard_triggers;
  std::vector<double> drift_acc;  ///< per-shard attributed Eq. (1) drift
  std::unique_ptr<DriftRecorder> recorder;
  if (config_.ingest_shards > 1) {
    smap = std::make_unique<traffic::ShardMap>(num_vms, config_.ingest_shards);
    shard_ranges = core::partition_vms(num_vms, smap->num_shards());
    shard_triggers.assign(smap->num_shards(),
                          DriftTrigger(config_.drift_threshold));
    drift_acc.assign(smap->num_shards(), 0.0);
    recorder = std::make_unique<DriftRecorder>(tm, *smap, model, alloc);
  }
  const bool sharded = smap != nullptr;
  const std::size_t shards = sharded ? smap->num_shards() : 1;
  // Dom0 agents walk their whole world, so only centralized re-opts narrow.
  const bool partial_scope = sharded && !config_.distributed();
  report.ingest_shards = shards;

  // Current Eq. (2) partial sum of every shard, served from the bound cache
  // in O(1) per VM.
  auto shard_sums = [&] {
    std::vector<double> sums(shards);
    for (std::size_t t = 0; t < shards; ++t) {
      sums[t] = 0.5 * core::shard_partial_sum(model, alloc, tm, shard_ranges[t]);
    }
    return sums;
  };

  // Arm every shard trigger on its current partial sum and zero the
  // attribution accumulators (initialisation / full re-optimisation).
  auto arm_shards = [&] {
    const std::vector<double> sums = shard_sums();
    for (std::size_t t = 0; t < shards; ++t) {
      shard_triggers[t].arm(sums[t]);
      drift_acc[t] = 0.0;
    }
  };

  // Token shards (the re-optimiser's carve-up) overlapping the drifted
  // ingest shards' VM ranges; empty when every token shard is implicated —
  // a full pass is cheaper than a restriction that restricts nothing.
  const auto token_partitions = core::partition_vms(
      num_vms, std::max<std::size_t>(1, config_.tokens));
  auto restriction_for = [&](const std::vector<std::size_t>& drifted) {
    std::vector<std::size_t> restrict_shards;
    for (std::size_t j = 0; j < token_partitions.size(); ++j) {
      const core::VmRange& tr = token_partitions[j];
      for (const std::size_t t : drifted) {
        const core::VmRange& ir = shard_ranges[t];
        if (tr.first <= ir.last && ir.first <= tr.last) {
          restrict_shards.push_back(j);
          break;
        }
      }
    }
    if (restrict_shards.size() == token_partitions.size()) {
      restrict_shards.clear();
    }
    return restrict_shards;
  };

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
  if (sharded) arm_shards();

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
  std::vector<std::size_t> drifted;
  while (queue.pop(batch)) {
    const auto fold_start = SteadyClock::now();
    tm.apply(batch);
    report.deltas_applied += batch.size();

    bool fire = false;
    double fire_drift = 0.0;
    drifted.clear();
    if (sharded) {
      const bool bulk = recorder->drain_into(drift_acc);
      report.fold_latency_ns.push_back(ns_since(fold_start));

      const auto decision_start = SteadyClock::now();
      for (std::size_t t = 0; t < shards; ++t) {
        if (bulk) {
          // Non-attributable mutation: conservatively treat every shard as
          // drifted rather than trusting stale accumulators.
          drifted.push_back(t);
          fire_drift = std::numeric_limits<double>::infinity();
          continue;
        }
        const double current = shard_triggers[t].baseline() + drift_acc[t];
        if (shard_triggers[t].should_reoptimize(current)) {
          drifted.push_back(t);
          fire_drift = std::max(fire_drift, shard_triggers[t].drift(current));
        }
      }
      fire = !drifted.empty();
      report.trigger_latency_ns.push_back(ns_since(decision_start));

#ifdef SCORE_CHECK_CACHE
      if (!bulk) {
        // Attribution contract: the accumulated per-shard drift dominates
        // the true movement of the shard's Eq. (2) partial sum since arming
        // (triangle inequality over the recorded transitions; communication
        // levels are stable between re-opts). Verified brute-force so the
        // check shares no state with the fold.
        const core::CostModel brute(*topology_, weights);
        for (std::size_t t = 0; t < shards; ++t) {
          const double now_sum =
              0.5 * core::shard_partial_sum(brute, alloc, tm, shard_ranges[t]);
          const double armed = shard_triggers[t].baseline();
          const double moved = std::abs(now_sum - armed);
          const double tol = 1e-6 * (std::abs(now_sum) + std::abs(armed) + 1.0);
          if (drift_acc[t] + tol < moved) {
            throw std::logic_error(
                "StreamingEngine: attributed drift under-counts shard " +
                std::to_string(t) + " partial-sum movement");
          }
        }
      }
#endif
    } else {
      report.fold_latency_ns.push_back(ns_since(fold_start));
      const auto decision_start = SteadyClock::now();
      const double current = model.total_cost(alloc, tm);  // O(1): folded
      fire = trigger.should_reoptimize(current);
      if (fire) fire_drift = trigger.drift(current);
      report.trigger_latency_ns.push_back(ns_since(decision_start));
    }

    if (fire) {
      ReoptEvent ev;
      ev.tick = tick;
      ev.drift = fire_drift;
      ev.cost_before = model.total_cost(alloc, tm);
      ev.drifted_shards = drifted;
      std::vector<std::size_t> restrict_shards;
      if (partial_scope) restrict_shards = restriction_for(drifted);
      ev.partial = !restrict_shards.empty();
#ifdef SCORE_CHECK_CACHE
      std::optional<core::Allocation> pre_alloc;
      if (ev.partial) pre_alloc = alloc;
#endif
      std::vector<double> pre_sums;
      if (sharded) pre_sums = shard_sums();
      const ConvergenceReport res = reoptimize(
          model, alloc, tm, config_, config_.iterations_per_reopt,
          restrict_shards);
      ev.cost_after = model.total_cost(alloc, tm);
      ev.migrations = res.migrations;
      ev.rounds = res.rounds;
#ifdef SCORE_CHECK_CACHE
      if (pre_alloc) {
        // Partial re-opt cross-checks. Note a per-event quality band vs the
        // full walk is deliberately NOT asserted: a restriction can
        // legitimately leave most of the removable cost sitting in
        // un-drifted shards — that is the locality trade-off, and the
        // un-walked accumulators guarantee those shards' own triggers fire
        // later (the report-level ≤ 1.05 band vs fresh is the quality gate).
        // What IS invariant:
        // (1) commits are revalidated against the live master, so the
        //     restricted rounds can never raise the Eq. (2) total;
        if (ev.cost_after >
            ev.cost_before + 1e-6 * (std::abs(ev.cost_before) + 1.0)) {
          throw std::logic_error(
              "StreamingEngine: partial re-opt increased the Eq. (2) total");
        }
        // (2) containment: a VM outside the walked token shards must not
        //     have moved (the touched-set obligation restrict_shards owes
        //     the oracle's incremental resync);
        std::vector<bool> in_walked(num_vms, false);
        for (const std::size_t j : restrict_shards) {
          for (core::VmId u = token_partitions[j].first;
               u <= token_partitions[j].last; ++u) {
            in_walked[u] = true;
          }
        }
        for (core::VmId u = 0; u < num_vms; ++u) {
          if (!in_walked[u] && alloc.server_of(u) != pre_alloc->server_of(u)) {
            throw std::logic_error(
                "StreamingEngine: partial re-opt moved VM " +
                std::to_string(u) + " outside the restricted token shards");
          }
        }
        // (3) an unrestricted re-opt replayed from the identical
        //     pre-trigger state on the same live matrix must be monotone
        //     too — catches the restriction corrupting state the full walk
        //     shares (matrix, weights, engine config).
        core::CachedCostModel full_model(*topology_, weights);
        full_model.bind(*pre_alloc, tm);
        reoptimize(full_model, *pre_alloc, tm, config_,
                   config_.iterations_per_reopt);
        const double full_after = full_model.total_cost(*pre_alloc, tm);
        if (full_after >
            ev.cost_before + 1e-6 * (std::abs(ev.cost_before) + 1.0)) {
          throw std::logic_error(
              "StreamingEngine: full-reopt cross-check increased the "
              "Eq. (2) total");
        }
      }
#endif
      if (config_.fresh_reference) {
        ev.fresh_cost = fresh_reference(31ull * tick + 17ull);
        ev.fresh_computed = true;
      }
      trigger.arm(ev.cost_after);
      if (sharded) {
        // Re-arm only the shards whose VM ranges actually took token rounds.
        // Re-arming an unwalked shard would absorb its accumulated (but
        // sub-threshold) degradation into a fresh baseline — a ratchet that
        // starves it of re-optimisation forever. Instead an unwalked shard
        // keeps its baseline and accumulator, topped up by the re-opt's
        // cross-shard effect on its partial sum (walked VMs moving change
        // the levels of pairs that cross into unwalked ranges), which
        // preserves the triangle-inequality attribution contract
        // D_t ≥ |S_t − B_t|.
        if (!ev.partial) {
          arm_shards();
        } else {
          std::vector<bool> walked(shards, false);
          for (const std::size_t j : restrict_shards) {
            const core::VmRange& tr = token_partitions[j];
            for (std::size_t t = 0; t < shards; ++t) {
              const core::VmRange& ir = shard_ranges[t];
              if (tr.first <= ir.last && ir.first <= tr.last) walked[t] = true;
            }
          }
          const std::vector<double> post_sums = shard_sums();
          for (std::size_t t = 0; t < shards; ++t) {
            if (walked[t]) {
              shard_triggers[t].arm(post_sums[t]);
              drift_acc[t] = 0.0;
            } else {
              drift_acc[t] += std::abs(post_sums[t] - pre_sums[t]);
            }
          }
        }
      }
      if (ev.partial) ++report.partial_reopts;
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
