// Streaming ingest tests: the FlowDelta API and observer seam (folded costs
// must agree with a from-scratch rebuild under any interleaving of applies,
// batches, rescales and re-opts), the drift trigger (below threshold => no
// re-opt, above => exactly one), the IngestQueue producer/consumer handoff,
// and the StreamingEngine end to end — including the concurrent ingest +
// optimiser shape the TSan CI job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <thread>

#include "core/cached_cost_model.hpp"
#include "core/sharded_cost_oracle.hpp"
#include "driver/multi_token.hpp"
#include "driver/streaming.hpp"
#include "helpers.hpp"
#include "traffic/ingest.hpp"

namespace {

using score::core::Allocation;
using score::core::CachedCostModel;
using score::core::CostModel;
using score::core::LinkWeights;
using score::driver::DriftTrigger;
using score::driver::StreamingConfig;
using score::driver::StreamingEngine;
using score::driver::StreamingReport;
using score::testing::random_allocation;
using score::testing::random_tm;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::traffic::FlowDelta;
using score::traffic::FlowDeltaBatch;
using score::traffic::FlowEventConfig;
using score::traffic::FlowEventStream;
using score::traffic::IngestQueue;
using score::traffic::TrafficMatrix;
using score::traffic::VmId;
using score::util::Rng;

// Relative agreement between an incrementally folded total and a brute-force
// rebuild: the SCORE_CHECK_CACHE contract tolerance.
void expect_matches_brute(const CostModel& brute, const CachedCostModel& cached,
                          const Allocation& alloc, const TrafficMatrix& tm) {
  const double b = brute.total_cost(alloc, tm);
  const double c = cached.total_cost(alloc, tm);
  EXPECT_NEAR(c, b, 1e-7 * (1.0 + std::abs(b)));
}

// ---------------------------------------------------------------- FlowDelta

TEST(FlowDelta, ApplyAddsClampsAndRemoves) {
  TrafficMatrix tm(4);
  tm.apply(FlowDelta{0, 1, 5.0});
  EXPECT_DOUBLE_EQ(tm.rate(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(tm.rate(1, 0), 5.0);  // symmetric
  tm.apply(FlowDelta{1, 0, -2.0});
  EXPECT_DOUBLE_EQ(tm.rate(0, 1), 3.0);
  // Driving past zero clamps and removes the pair.
  tm.apply(FlowDelta{0, 1, -100.0});
  EXPECT_DOUBLE_EQ(tm.rate(0, 1), 0.0);
  EXPECT_EQ(tm.num_pairs(), 0u);
  EXPECT_THROW(tm.apply(FlowDelta{2, 2, 1.0}), std::invalid_argument);
}

TEST(FlowDelta, ZeroDeltaAndNoOpApplyDoNotBumpVersion) {
  TrafficMatrix tm(4, {{0, 1, 5.0}});
  const std::uint64_t v = tm.version();
  tm.apply(FlowDelta{0, 1, 0.0});
  tm.apply(FlowDelta{0, 1, 1e-300});  // 5.0 + 1e-300 == 5.0: true no-op
  EXPECT_EQ(tm.version(), v);
  tm.apply(FlowDelta{0, 1, 1.0});
  EXPECT_EQ(tm.version(), v + 1);
}

TEST(FlowDelta, BatchAppliesInOrderAndAccumulates) {
  TrafficMatrix tm(4);
  FlowDeltaBatch batch;
  batch.push(0, 1, 2.0);
  batch.push(0, 1, 3.0);  // same pair accumulates
  batch.push(2, 3, 7.0);
  tm.apply(batch);
  EXPECT_DOUBLE_EQ(tm.rate(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(tm.rate(2, 3), 7.0);
}

// ------------------------------------------------------------ observer seam

TEST(ObserverSeam, PureDeltaPathNeverRebuilds) {
  CanonicalTree topo(tiny_tree_config());
  Rng rng(5);
  TrafficMatrix tm = random_tm(48, 3.0, rng);
  Allocation alloc = random_allocation(topo, 48, rng);
  CachedCostModel cached(topo, LinkWeights::exponential(3));
  cached.bind(alloc, tm);
  EXPECT_EQ(cached.rebuilds(), 1u);

  CostModel brute(topo, LinkWeights::exponential(3));
  std::uint64_t applied = 0;
  for (int i = 0; i < 500; ++i) {
    const auto u = static_cast<VmId>(rng.index(48));
    auto v = static_cast<VmId>(rng.index(48));
    if (u == v) v = (v + 1) % 48;
    const double rate_before = tm.rate(u, v);
    double delta = rng.uniform(-5.0, 20.0);
    if (rate_before + delta != rate_before) ++applied;
    tm.apply(FlowDelta{u, v, delta});
    expect_matches_brute(brute, cached, alloc, tm);
  }
  EXPECT_EQ(cached.rebuilds(), 1u);  // every delta folded, zero rebuilds
  EXPECT_GE(cached.deltas_folded(), applied / 2);
}

TEST(ObserverSeam, RescaleAppliedAsABatchFoldsPerPair) {
  CanonicalTree topo(tiny_tree_config());
  Rng rng(7);
  TrafficMatrix tm = random_tm(32, 2.0, rng);
  Allocation alloc = random_allocation(topo, 32, rng);
  CachedCostModel cached(topo, LinkWeights::exponential(3));
  CostModel brute(topo, LinkWeights::exponential(3));
  cached.bind(alloc, tm);

  // rate + 0.5·rate rounds to the same double as 1.5·rate, so the batch
  // lands exactly on the rescaled matrix.
  const TrafficMatrix target = tm.scaled(1.5);
  FlowDeltaBatch batch;
  for (const auto& [u, v, rate] : tm.pairs()) batch.push(u, v, rate * 0.5);
  tm.apply(batch);
  EXPECT_EQ(tm.pairs(), target.pairs());
  expect_matches_brute(brute, cached, alloc, tm);
  EXPECT_EQ(cached.rebuilds(), 1u);  // every pair folded, no rebuild
  EXPECT_GT(cached.deltas_folded(), 0u);
}

TEST(ObserverSeam, UnregisteredConsumerFallsBackToVersionCounter) {
  CanonicalTree topo(tiny_tree_config());
  Rng rng(9);
  TrafficMatrix tm = random_tm(32, 2.0, rng);
  Allocation alloc = random_allocation(topo, 32, rng);
  CachedCostModel cached(topo, LinkWeights::exponential(3));
  CostModel brute(topo, LinkWeights::exponential(3));
  cached.bind(alloc, tm);
  // Deregister by hand: the cache must now detect mutations through the
  // version counter and rebuild instead of serving stale sums.
  tm.remove_observer(&cached);
  tm.apply(FlowDelta{0, 1, 999.0});
  expect_matches_brute(brute, cached, alloc, tm);
  EXPECT_EQ(cached.rebuilds(), 2u);
}

TEST(ObserverSeam, BulkAssignmentForcesRebuild) {
  CanonicalTree topo(tiny_tree_config());
  Rng rng(13);
  TrafficMatrix tm = random_tm(32, 2.0, rng);
  TrafficMatrix other = random_tm(32, 4.0, rng);
  Allocation alloc = random_allocation(topo, 32, rng);
  CachedCostModel cached(topo, LinkWeights::exponential(3));
  CostModel brute(topo, LinkWeights::exponential(3));
  cached.bind(alloc, tm);
  tm = other;  // wholesale change: observers get on_bulk_update
  expect_matches_brute(brute, cached, alloc, tm);
  EXPECT_EQ(cached.rebuilds(), 2u);
}

TEST(ObserverSeam, MatrixDestructionUnbindsSafely) {
  CanonicalTree topo(tiny_tree_config());
  Rng rng(17);
  CachedCostModel cached(topo, LinkWeights::exponential(3));
  {
    TrafficMatrix tm = random_tm(16, 2.0, rng);
    Allocation alloc = random_allocation(topo, 16, rng);
    cached.bind(alloc, tm);
    EXPECT_TRUE(cached.bound());
  }  // tm dies first: observer must be told
  EXPECT_FALSE(cached.bound());
}

TEST(ObserverSeam, CopiesStartUnbound) {
  CanonicalTree topo(tiny_tree_config());
  Rng rng(19);
  TrafficMatrix tm = random_tm(16, 2.0, rng);
  Allocation alloc = random_allocation(topo, 16, rng);
  CachedCostModel cached(topo, LinkWeights::exponential(3));
  cached.bind(alloc, tm);
  CachedCostModel copy(cached);
  EXPECT_FALSE(copy.bound());
  // The copy still answers (brute force) and can be bound independently.
  CostModel brute(topo, LinkWeights::exponential(3));
  EXPECT_DOUBLE_EQ(copy.total_cost(alloc, tm), brute.total_cost(alloc, tm));
  copy.bind(alloc, tm);
  expect_matches_brute(brute, copy, alloc, tm);
}

// The oracle's shards hold plain snapshots, so an apply after begin_pass
// has nothing to fold there: reconcile must read the updated matrix.
TEST(ObserverSeam, ReconcileTracksDeltasAfterBeginPass) {
  CanonicalTree topo(tiny_tree_config());
  Rng rng(29);
  TrafficMatrix tm = random_tm(48, 3.0, rng);
  Allocation master = random_allocation(topo, 48, rng);
  score::core::ShardedCostOracle oracle(topo, LinkWeights::exponential(3),
                                        score::core::partition_vms(48, 4));
  oracle.begin_pass(master, tm, score::util::ExecPolicy::seq());

  CostModel brute(topo, LinkWeights::exponential(3));
  const double before = brute.total_cost(master, tm);
  FlowDeltaBatch batch;
  batch.push(0, 1, 12.5);
  batch.push(10, 40, 3.25);
  tm.apply(batch);

  const double expected = brute.total_cost(master, tm);
  ASSERT_NE(expected, before);
  for (const auto policy :
       {score::util::ExecPolicy::seq(), score::util::ExecPolicy::par(2)}) {
    EXPECT_NEAR(oracle.reconcile(master, tm, policy), expected,
                1e-7 * (1.0 + std::abs(expected)))
        << policy.name();
  }
}

// A random interleaving of single applies, batches, absolute-rate applies,
// rescales (bulk assignment) and token-round re-opts keeps the folded total
// equal to a from-scratch rebuild at every step.
TEST(ObserverSeam, FuzzInterleavedMutationsAndReopts) {
  CanonicalTree topo(tiny_tree_config());
  LinkWeights weights = LinkWeights::exponential(3);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 7919);
    TrafficMatrix tm = random_tm(40, 3.0, rng);
    Allocation alloc = random_allocation(topo, 40, rng);
    CachedCostModel cached(topo, weights);
    CostModel brute(topo, weights);
    cached.bind(alloc, tm);
    score::core::MigrationEngine engine(cached);

    for (int step = 0; step < 120; ++step) {
      const double pick = rng.uniform();
      if (pick < 0.35) {
        const auto u = static_cast<VmId>(rng.index(40));
        auto v = static_cast<VmId>(rng.index(40));
        if (u == v) v = (v + 1) % 40;
        tm.apply(FlowDelta{u, v, rng.uniform(-10.0, 30.0)});
      } else if (pick < 0.6) {
        FlowDeltaBatch batch;
        const int n = 1 + static_cast<int>(rng.index(16));
        for (int i = 0; i < n; ++i) {
          const auto u = static_cast<VmId>(rng.index(40));
          auto v = static_cast<VmId>(rng.index(40));
          if (u == v) v = (v + 1) % 40;
          batch.push(u, v, rng.uniform(-10.0, 30.0));
        }
        tm.apply(batch);
      } else if (pick < 0.7) {
        const auto u = static_cast<VmId>(rng.index(39));
        tm.apply(FlowDelta{u, 39, rng.uniform(0.0, 50.0) - tm.rate(u, 39)});
      } else if (pick < 0.8) {
        tm = tm.scaled(rng.uniform(0.8, 1.25));
      } else {
        // Token-round re-opt through the cached model's migration hook.
        score::driver::MultiTokenConfig mcfg;
        mcfg.tokens = 2;
        mcfg.iterations = 1;
        score::driver::MultiTokenSimulation sim(engine, alloc, tm);
        sim.run(mcfg);
      }
      expect_matches_brute(brute, cached, alloc, tm);
    }
  }
}

// ------------------------------------------------------------- drift trigger

TEST(DriftTriggerUnit, FiresOnlyPastThreshold) {
  DriftTrigger trigger(0.05);
  trigger.arm(100.0);
  EXPECT_FALSE(trigger.should_reoptimize(100.0));
  EXPECT_FALSE(trigger.should_reoptimize(104.9));
  EXPECT_FALSE(trigger.should_reoptimize(95.1));
  EXPECT_TRUE(trigger.should_reoptimize(105.1));
  EXPECT_TRUE(trigger.should_reoptimize(94.9));
  EXPECT_DOUBLE_EQ(trigger.drift(110.0), 0.1);
  // Re-arming moves the baseline.
  trigger.arm(200.0);
  EXPECT_FALSE(trigger.should_reoptimize(205.0));
  // A dead baseline fires on any nonzero cost.
  trigger.arm(0.0);
  EXPECT_TRUE(trigger.should_reoptimize(1.0));
  EXPECT_FALSE(trigger.should_reoptimize(0.0));
  EXPECT_THROW(DriftTrigger(-0.1), std::invalid_argument);
  // `drift > NaN` never holds, so a NaN threshold would silently disable
  // re-optimisation; the largest finite threshold stays legal.
  EXPECT_THROW(DriftTrigger(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_NO_THROW(DriftTrigger(std::numeric_limits<double>::max()));
}

StreamingConfig small_streaming_config() {
  StreamingConfig cfg;
  cfg.generator.num_vms = 64;
  cfg.generator.seed = 42;
  cfg.server_capacity.vm_slots = 4;
  cfg.server_capacity.ram_mb = 1024.0;
  cfg.server_capacity.cpu_cores = 4.0;
  cfg.vm_spec.ram_mb = 196.0;
  cfg.vm_spec.cpu_cores = 1.0;
  cfg.events.events_per_tick = 128;
  cfg.events.seed = 97;
  cfg.ticks = 8;
  cfg.fresh_reference = false;  // speed: references tested separately
  return cfg;
}

TEST(DriftTriggerEngine, BelowThresholdNoReopt) {
  CanonicalTree topo(tiny_tree_config());
  StreamingConfig cfg = small_streaming_config();
  cfg.ticks = 1;
  cfg.drift_threshold = 1e9;  // unreachable
  StreamingEngine engine(topo, cfg);
  const StreamingReport report = engine.run();
  EXPECT_EQ(report.reopts.size(), 0u);
  EXPECT_GT(report.deltas_applied, 0u);
}

TEST(DriftTriggerEngine, AboveThresholdExactlyOne) {
  CanonicalTree topo(tiny_tree_config());
  StreamingConfig cfg = small_streaming_config();
  cfg.ticks = 1;                // one batch ...
  cfg.drift_threshold = 1e-12;  // ... that certainly drifts past this
  StreamingEngine engine(topo, cfg);
  const StreamingReport report = engine.run();
  EXPECT_EQ(report.reopts.size(), 1u);
}

TEST(DriftTriggerEngine, ConstructorRejectsNanThreshold) {
  // Rejected before run() builds the world, like every other config error.
  CanonicalTree topo(tiny_tree_config());
  StreamingConfig cfg = small_streaming_config();
  cfg.drift_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(StreamingEngine(topo, cfg), std::invalid_argument);
}

TEST(DriftTriggerEngine, ConstructorRejectsZeroRoundBudgets) {
  // A zero budget ran one round in some drivers and none in others.
  // Rejected before run() starts the producer, naming the field.
  CanonicalTree topo(tiny_tree_config());
  const std::pair<const char*, std::size_t StreamingConfig::*> fields[] = {
      {"iterations_per_reopt", &StreamingConfig::iterations_per_reopt},
      {"reopt_iterations", &StreamingConfig::reopt_iterations},
  };
  for (const auto& [field, member] : fields) {
    for (const char* mode : {"centralized", "distributed"}) {
      StreamingConfig cfg = small_streaming_config();
      cfg.mode = mode;
      cfg.*member = 0;
      try {
        StreamingEngine engine(topo, cfg);
        ADD_FAILURE() << field << " 0 accepted in " << mode << " mode";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(DriftTriggerEngine, ConstructorRejectsMigrationCostThatBreaksTheorem1) {
  // A NaN c_m blocks every move; a negative one commits moves that raise the
  // cost. Both are rejected before run() builds the world.
  CanonicalTree topo(tiny_tree_config());
  for (const double cm : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    StreamingConfig cfg = small_streaming_config();
    cfg.engine.migration_cost = cm;
    try {
      StreamingEngine engine(topo, cfg);
      ADD_FAILURE() << "migration_cost " << cm << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("migration_cost"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(DriftTriggerEngine, BoundedQueueReportsDepthWithinCapacity) {
  CanonicalTree topo(tiny_tree_config());
  StreamingConfig cfg = small_streaming_config();
  cfg.queue_capacity = 2;
  StreamingEngine engine(topo, cfg);
  const StreamingReport report = engine.run();
  EXPECT_GE(report.max_queue_depth, 1u);
  EXPECT_LE(report.max_queue_depth, 2u);
  // Backpressure must not drop batches: every tick still arrives.
  EXPECT_EQ(report.ticks, cfg.ticks);
}

// ------------------------------------------------------------- ingest queue

TEST(IngestQueueTest, FifoAndCloseSemantics) {
  IngestQueue queue;
  FlowDeltaBatch a;
  a.push(0, 1, 1.0);
  FlowDeltaBatch b;
  b.push(2, 3, 2.0);
  queue.push(a);
  queue.push(b);
  EXPECT_EQ(queue.size(), 2u);
  FlowDeltaBatch out;
  queue.close();
  EXPECT_TRUE(queue.pop(out));  // a closed queue still drains in order
  EXPECT_EQ(out, a);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, b);
  EXPECT_FALSE(queue.pop(out));  // closed and empty
  EXPECT_THROW(queue.push(a), std::logic_error);
}

TEST(IngestQueueTest, BoundedPushBlocksUntilPopMakesSpace) {
  IngestQueue queue(2);
  EXPECT_EQ(queue.capacity(), 2u);
  FlowDeltaBatch batch;
  batch.push(0, 1, 1.0);
  queue.push(batch);
  queue.push(batch);
  EXPECT_EQ(queue.size(), 2u);

  // A third push must block until the consumer drains a slot.
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    FlowDeltaBatch third;
    third.push(2, 3, 3.0);
    queue.push(std::move(third));  // blocks here while the queue is full
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(queue.size(), 2u);

  FlowDeltaBatch out;
  ASSERT_TRUE(queue.pop(out));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.size(), 2u);
  // Depth never exceeded the bound while the producer waited.
  EXPECT_EQ(queue.max_depth(), 2u);
}

TEST(IngestQueueTest, CloseWhileBlockedOnFullThrowsInProducer) {
  IngestQueue queue(1);
  FlowDeltaBatch batch;
  batch.push(0, 1, 1.0);
  queue.push(batch);

  std::atomic<bool> threw{false};
  std::thread producer([&] {
    try {
      FlowDeltaBatch second;
      second.push(2, 3, 2.0);
      queue.push(std::move(second));  // blocked on full ...
    } catch (const std::logic_error&) {
      threw = true;  // ... then close() lands: same contract as push-after
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
  EXPECT_TRUE(threw.load());
  // The blocked batch was never enqueued.
  FlowDeltaBatch out;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, batch);
  EXPECT_FALSE(queue.pop(out));
}

TEST(IngestQueueTest, MaxDepthTracksHighWaterMark) {
  IngestQueue queue;  // unbounded
  EXPECT_EQ(queue.capacity(), 0u);
  EXPECT_EQ(queue.max_depth(), 0u);
  FlowDeltaBatch batch;
  batch.push(0, 1, 1.0);
  for (int i = 0; i < 5; ++i) queue.push(batch);
  FlowDeltaBatch out;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.pop(out));
  queue.push(batch);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.max_depth(), 5u);  // the mark survives draining
}

TEST(IngestQueueTest, ProducerConsumerHandoff) {
  IngestQueue queue;
  constexpr int kBatches = 64;
  std::thread producer([&queue] {
    for (int i = 0; i < kBatches; ++i) {
      FlowDeltaBatch batch;
      batch.push(0, 1, static_cast<double>(i + 1));
      queue.push(std::move(batch));
    }
    queue.close();
  });
  int received = 0;
  double sum = 0.0;
  FlowDeltaBatch batch;
  while (queue.pop(batch)) {
    ++received;
    sum += batch[0].delta;
  }
  producer.join();
  EXPECT_EQ(received, kBatches);
  EXPECT_DOUBLE_EQ(sum, kBatches * (kBatches + 1) / 2.0);
}

// -------------------------------------------------------------- flow events

TEST(FlowEventStreamTest, DeterministicAndConsistentWithMatrix) {
  Rng rng(3);
  TrafficMatrix tm = random_tm(32, 2.0, rng);
  FlowEventConfig cfg;
  cfg.events_per_tick = 64;
  cfg.seed = 123;
  FlowEventStream s1(tm, cfg);
  FlowEventStream s2(tm, cfg);
  TrafficMatrix live = tm;
  for (int t = 0; t < 10; ++t) {
    const FlowDeltaBatch b1 = s1.next_batch();
    EXPECT_EQ(b1, s2.next_batch());  // same seed, same stream
    live.apply(b1);
  }
  // Total load stays non-negative by construction and the matrix is intact.
  EXPECT_GE(live.total_load(), 0.0);
  EXPECT_THROW(FlowEventStream(TrafficMatrix(1), cfg), std::invalid_argument);
}

// ---------------------------------------------------- streaming engine E2E

// The TSan target: a real producer thread streams batches while the consumer
// folds them and runs parallel token rounds. Determinism: wall-clock aside,
// the report must be identical across runs.
TEST(StreamingEngineE2E, ConcurrentIngestAndOptimiserIsDeterministic) {
  CanonicalTree topo(tiny_tree_config());
  StreamingConfig cfg = small_streaming_config();
  cfg.ticks = 12;
  cfg.drift_threshold = 0.05;
  cfg.tokens = 2;
  cfg.exec = score::util::ExecPolicy::par(2);
  StreamingEngine engine_a(topo, cfg);
  StreamingEngine engine_b(topo, cfg);
  const StreamingReport a = engine_a.run();
  const StreamingReport b = engine_b.run();
  EXPECT_EQ(a.deltas_applied, b.deltas_applied);
  EXPECT_EQ(a.reopts.size(), b.reopts.size());
  EXPECT_EQ(a.final_cost, b.final_cost);
  EXPECT_EQ(a.deltas_folded, b.deltas_folded);
  // The ingest path folds every delta; rebuilds only come from re-opts
  // moving the allocation (one resync per triggered re-opt + the bind).
  EXPECT_EQ(a.deltas_applied, a.deltas_folded);
  EXPECT_LE(a.cache_rebuilds, 2 + 2 * a.reopts.size());
}

TEST(StreamingEngineE2E, StaysWithinFreshReoptBand) {
  CanonicalTree topo(tiny_tree_config());
  StreamingConfig cfg;  // paper-default capacity: 16 VM slots per host
  cfg.generator.num_vms = 128;
  cfg.generator.seed = 42;
  cfg.events.events_per_tick = 128;
  cfg.events.seed = 97;
  cfg.ticks = 10;
  cfg.drift_threshold = 0.05;
  cfg.tokens = 2;
  cfg.iterations_per_reopt = 12;
  cfg.fresh_reference = true;
  StreamingEngine engine(topo, cfg);
  const StreamingReport report = engine.run();
  EXPECT_GT(report.reopts.size(), 0u);
  EXPECT_GT(report.final_fresh_cost, 0.0);
  // The paper's steady-state acceptance band: every drift-triggered re-opt
  // (and the final state) lands within 5% of starting over from a fresh
  // placement. Needs slack capacity — under tight packing (4 slots/host)
  // the engine has too few feasible moves for the band to be meaningful.
  EXPECT_LE(report.max_cost_ratio(), 1.05);
}

TEST(StreamingEngineE2E, DistributedModeReoptimises) {
  CanonicalTree topo(tiny_tree_config());
  StreamingConfig cfg = small_streaming_config();
  cfg.ticks = 6;
  cfg.drift_threshold = 0.02;
  cfg.mode = "distributed";
  StreamingEngine engine(topo, cfg);
  const StreamingReport report = engine.run();
  EXPECT_GT(report.deltas_applied, 0u);
  EXPECT_GT(report.final_cost, 0.0);
  StreamingConfig bad = cfg;
  bad.mode = "sideways";
  EXPECT_THROW(StreamingEngine(topo, bad), std::invalid_argument);
}

TEST(StreamingEngineE2E, ReoptDeterministicAcrossPolicies) {
  // Every re-opt is a multi-token run: seq, par(1), par(2) and par(4) must
  // report bit-identical trigger events.
  CanonicalTree topo(tiny_tree_config());
  StreamingConfig cfg = small_streaming_config();
  cfg.ticks = 12;
  cfg.drift_threshold = 0.05;
  cfg.tokens = 4;

  std::vector<StreamingReport> reports;
  for (const auto& policy :
       {score::util::ExecPolicy::seq(), score::util::ExecPolicy::par(1),
        score::util::ExecPolicy::par(2), score::util::ExecPolicy::par(4)}) {
    StreamingConfig run_cfg = cfg;
    run_cfg.exec = policy;
    StreamingEngine engine(topo, run_cfg);
    reports.push_back(engine.run());
  }
  const StreamingReport& ref = reports.front();
  EXPECT_GT(ref.reopts.size(), 0u);
  for (const StreamingReport& rep : reports) {
    EXPECT_EQ(rep.final_cost, ref.final_cost);
    EXPECT_EQ(rep.deltas_applied, ref.deltas_applied);
    ASSERT_EQ(rep.reopts.size(), ref.reopts.size());
    for (std::size_t i = 0; i < rep.reopts.size(); ++i) {
      EXPECT_EQ(rep.reopts[i].tick, ref.reopts[i].tick);
      EXPECT_EQ(rep.reopts[i].drift, ref.reopts[i].drift);
      EXPECT_EQ(rep.reopts[i].cost_before, ref.reopts[i].cost_before);
      EXPECT_EQ(rep.reopts[i].cost_after, ref.reopts[i].cost_after);
      EXPECT_EQ(rep.reopts[i].migrations, ref.reopts[i].migrations);
      EXPECT_EQ(rep.reopts[i].rounds, ref.reopts[i].rounds);
    }
  }
}

TEST(StreamingEngineE2E, LatencyPercentilesRecorded) {
  CanonicalTree topo(tiny_tree_config());
  StreamingConfig cfg = small_streaming_config();
  StreamingEngine engine(topo, cfg);
  const StreamingReport report = engine.run();
  // One fold and one trigger decision per consumed batch.
  ASSERT_EQ(report.fold_latency_ns.size(), cfg.ticks);
  ASSERT_EQ(report.trigger_latency_ns.size(), cfg.ticks);
  for (const double ns : report.fold_latency_ns) EXPECT_GE(ns, 0.0);
  EXPECT_LE(report.fold_p50_ns(), report.fold_p99_ns());
  EXPECT_LE(report.trigger_p50_ns(), report.trigger_p99_ns());
  EXPECT_GT(report.fold_p99_ns(), 0.0);
  // Empty reports degrade to 0 rather than throwing.
  EXPECT_DOUBLE_EQ(StreamingReport{}.fold_p50_ns(), 0.0);
}

// ------------------------------------------------------ bugfix regressions

// A tap observer that throws after a fixed number of rate changes — the
// consumer loop then throws out of tm.apply mid-stream. Before the RAII
// producer guard, that destroyed a joinable std::thread (std::terminate),
// with the producer potentially blocked forever on a full bounded queue.
class ThrowingTap final : public score::traffic::TrafficObserver {
 public:
  explicit ThrowingTap(std::size_t fuse) : fuse_(fuse) {}
  void on_rate_change(VmId, VmId, double, double) override {
    if (++seen_ >= fuse_) throw std::runtime_error("tap fuse blown");
  }
  void on_bulk_update() override {}
  void on_matrix_destroyed() override {}
  std::size_t seen() const { return seen_; }

 private:
  std::size_t fuse_;
  std::size_t seen_ = 0;
};

TEST(StreamingBugfix, ThrowingConsumerStillJoinsProducer) {
  CanonicalTree topo(tiny_tree_config());
  StreamingConfig cfg = small_streaming_config();
  cfg.ticks = 64;          // plenty of batches left when the fuse blows ...
  cfg.queue_capacity = 1;  // ... so the producer is blocked on backpressure
  cfg.drift_threshold = 1e9;
  ThrowingTap tap(200);
  cfg.tap = &tap;
  StreamingEngine engine(topo, cfg);
  // The exception must propagate cleanly: queue closed, producer joined. A
  // regression hangs this test (blocked producer) or aborts the process
  // (joinable thread destructor / uncaught push-after-close in the producer).
  EXPECT_THROW(engine.run(), std::runtime_error);
  EXPECT_GE(tap.seen(), 200u);
}

TEST(StreamingBugfix, TapSeesEveryEffectiveTransition) {
  CanonicalTree topo(tiny_tree_config());
  StreamingConfig cfg = small_streaming_config();
  cfg.ticks = 4;
  cfg.drift_threshold = 1e9;
  ThrowingTap tap(std::numeric_limits<std::size_t>::max());  // never throws
  cfg.tap = &tap;
  StreamingEngine engine(topo, cfg);
  const StreamingReport report = engine.run();
  // Effective transitions can be fewer than deltas (merged zero-deltas), but
  // the tap must have observed the stream, and the run must have detached it
  // before the matrix died (no crash at scope exit).
  EXPECT_GT(tap.seen(), 0u);
  EXPECT_LE(tap.seen(), report.deltas_applied);
}

TEST(StreamingBugfix, CostRatioSurfacesZeroFreshReference) {
  // A computed-zero reference beaten by a nonzero achieved cost is the
  // regression case the old code reported as a healthy 1.0.
  score::driver::ReoptEvent ev;
  ev.cost_after = 5.0;
  ev.fresh_cost = 0.0;
  ev.fresh_computed = true;
  EXPECT_TRUE(ev.cost_ratio_defined());
  EXPECT_TRUE(std::isinf(ev.cost_ratio()));

  StreamingReport report;
  report.final_cost = 5.0;
  report.final_fresh_cost = 0.0;
  report.final_fresh_computed = true;
  report.reopts.push_back(ev);
  EXPECT_TRUE(std::isinf(report.max_cost_ratio()));
  EXPECT_EQ(report.undefined_cost_ratios(), 0u);

  // Reference disabled: nothing to compare against — undefined, not 1.0.
  StreamingReport disabled;
  disabled.final_cost = 5.0;
  EXPECT_TRUE(std::isnan(disabled.max_cost_ratio()));
  EXPECT_EQ(disabled.undefined_cost_ratios(), 1u);

  // 0-cost state vs computed 0 reference: vacuous, also undefined.
  score::driver::ReoptEvent vacuous;
  vacuous.fresh_computed = true;
  EXPECT_FALSE(vacuous.cost_ratio_defined());
  EXPECT_TRUE(std::isnan(vacuous.cost_ratio()));

  // Defined ratios still dominate: the worst *defined* ratio is reported
  // even when undefined ones are present.
  StreamingReport mixed;
  mixed.final_cost = 5.0;
  mixed.final_fresh_cost = 4.0;
  mixed.final_fresh_computed = true;
  mixed.reopts.push_back(vacuous);
  EXPECT_DOUBLE_EQ(mixed.max_cost_ratio(), 1.25);
  EXPECT_EQ(mixed.undefined_cost_ratios(), 1u);

  // DriftTrigger's zero-baseline path is the same contract: no baseline to
  // measure against -> any nonzero cost is infinite drift, never "no drift".
  DriftTrigger trigger(0.05);
  trigger.arm(0.0);
  EXPECT_TRUE(std::isinf(trigger.drift(1e-300)));
  EXPECT_DOUBLE_EQ(trigger.drift(0.0), 0.0);
}

// ------------------------------------------------------- MPMC ingest queue

TEST(IngestQueueTest, MultiProducerMultiConsumerStress) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 3;
  constexpr int kBatchesPerProducer = 200;
  IngestQueue queue(2);  // tight bound: producers block constantly

  std::atomic<int> received{0};
  std::atomic<long long> sum{0};
  std::vector<std::thread> consumers;
  // Consumers start first and block on the empty-queue condvar.
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&queue, &received, &sum] {
      FlowDeltaBatch batch;
      while (queue.pop(batch)) {
        received.fetch_add(1, std::memory_order_relaxed);
        sum.fetch_add(static_cast<long long>(batch[0].delta),
                      std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kBatchesPerProducer; ++i) {
        FlowDeltaBatch batch;
        batch.push(0, 1, static_cast<double>(p * kBatchesPerProducer + i));
        queue.push(std::move(batch));
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.close();  // wakes consumers blocked on empty; they drain and exit
  for (auto& t : consumers) t.join();

  constexpr long long kTotal = kProducers * kBatchesPerProducer;
  EXPECT_EQ(received.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);  // every batch exactly once
  EXPECT_LE(queue.max_depth(), queue.capacity());
}

TEST(IngestQueueTest, CloseWakesBlockedProducersAndConsumers) {
  // Threads parked on *both* condvars — producers on space_cv_ (queue full),
  // consumers on cv_ (queue empty) — must all wake on close(). Two phases so
  // each side is provably blocked when close() lands.
  {
    IngestQueue full(1);
    FlowDeltaBatch batch;
    batch.push(0, 1, 1.0);
    full.push(batch);
    std::atomic<int> threw{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&full, &threw] {
        try {
          FlowDeltaBatch b;
          b.push(2, 3, 2.0);
          full.push(std::move(b));  // parked on space_cv_
        } catch (const std::logic_error&) {
          threw.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    full.close();
    for (auto& t : producers) t.join();
    EXPECT_EQ(threw.load(), 3);
    EXPECT_EQ(full.size(), 1u);  // no blocked batch was enqueued
  }
  {
    IngestQueue empty;
    std::atomic<int> drained{0};
    std::vector<std::thread> consumers;
    for (int c = 0; c < 3; ++c) {
      consumers.emplace_back([&empty, &drained] {
        FlowDeltaBatch out;
        if (!empty.pop(out)) drained.fetch_add(1);  // parked on cv_
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    empty.close();
    for (auto& t : consumers) t.join();
    EXPECT_EQ(drained.load(), 3);
  }
}

}  // namespace
