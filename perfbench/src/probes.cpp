#include "probes.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/migration_engine.hpp"
#include "core/sharded_cost_oracle.hpp"
#include "harness.hpp"
#include "hypervisor/communicator.hpp"
#include "hypervisor/token_codec.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

/// Median wall time of `f` over at least `min_reps` calls and `min_total_s`.
template <class F>
double median_time_s(std::size_t min_reps, double min_total_s, F&& f) {
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < min_reps || total < min_total_s) {
    samples.push_back(time_s(f));
    total += samples.back();
  }
  return median(std::move(samples));
}

}  // namespace

CoreProbe probe_core(const topo::Topology& topology,
                     const core::Allocation& final_alloc,
                     const traffic::TrafficMatrix& tm,
                     const std::vector<score::driver::MigrationRecord>& log) {
  CoreProbe probe;
  const std::size_t n = final_alloc.num_vms();
  const core::LinkWeights weights = fleet_weights(topology);

  {
    core::Allocation alloc = final_alloc;
    core::CachedCostModel model(topology, weights);
    model.bind(alloc, tm);
    const core::MigrationEngine engine(model);
    double sink = 0.0;
    const double pass_s = median_time_s(3, 0.2, [&] {
      for (core::VmId u = 0; u < n; ++u) sink += engine.evaluate(alloc, tm, u).delta;
    });
    if (sink != sink) throw std::logic_error("probe_core: NaN decision delta");
    probe.evaluate_ns = 1e9 * pass_s / static_cast<double>(n);
  }

  const score::util::ExecPolicy seq = score::util::ExecPolicy::seq();
  core::ShardedCostOracle oracle(topology, weights, core::partition_vms(n, kTokens));
  probe.begin_pass_full_s =
      median_time_s(3, 0.0, [&] { oracle.begin_pass(final_alloc, tm, seq); });
  probe.reconcile_s =
      median_time_s(3, 0.0, [&] { oracle.reconcile(final_alloc, tm, seq); });

  // Pass-start placement of the last pass that committed: undo its commits.
  std::size_t last_pass = 0;
  for (const auto& rec : log) last_pass = std::max(last_pass, rec.pass);
  core::Allocation pass_start = final_alloc;
  std::vector<core::VmId> touched;
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (it->pass != last_pass) continue;
    pass_start.migrate_unchecked(it->vm, it->from);
    touched.push_back(it->vm);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  probe.touched = touched.size();

  // Alternate between the two placements: every call resyncs every shard
  // snapshot across exactly the touched set.
  oracle.begin_pass(pass_start, tm, seq);
  bool to_final = true;
  probe.begin_pass_incr_s = median_time_s(5, 0.0, [&] {
    oracle.begin_pass(to_final ? final_alloc : pass_start, tm, seq, touched);
    to_final = !to_final;
  });
  return probe;
}

TrafficProbe probe_traffic(const topo::Topology& topology,
                           const core::Allocation& alloc,
                           const traffic::TrafficMatrix& tm,
                           const traffic::FlowEventConfig& events,
                           std::size_t ticks) {
  TrafficProbe probe;
  std::vector<traffic::FlowDeltaBatch> batches;
  batches.reserve(ticks);
  {
    traffic::FlowEventStream stream(tm, events);
    std::vector<double> ns;
    for (std::size_t t = 0; t < ticks; ++t) {
      ns.push_back(1e9 * time_s([&] { batches.push_back(stream.next_batch()); }));
    }
    probe.next_batch_ns = median(std::move(ns));
  }

  traffic::TrafficMatrix replay = tm;
  core::Allocation replay_alloc = alloc;
  core::CachedCostModel model(topology, fleet_weights(topology));
  model.bind(replay_alloc, replay);
  double total_s = 0.0;
  for (const traffic::FlowDeltaBatch& batch : batches) {
    const double s = time_s([&] { replay.apply(batch); });
    probe.batch_ns.push_back(1e9 * s);
    total_s += s;
    probe.deltas += batch.size();
  }
  probe.apply_ns_per_delta =
      probe.deltas > 0 ? 1e9 * total_s / static_cast<double>(probe.deltas) : 0.0;
  probe.compactions = replay.compactions();
  probe.overflow_entries = replay.overflow_entries();
  probe.final_cost = model.total_cost(replay_alloc, replay);
  return probe;
}

double probe_token_codec_us(std::size_t num_vms) {
  namespace hv = score::hypervisor;
  hv::Token token;
  token.entries.reserve(num_vms);
  for (std::size_t i = 0; i < num_vms; ++i) {
    token.entries.push_back({static_cast<std::uint32_t>(i),
                             static_cast<std::uint8_t>(i % 4), i % 3 == 0});
  }
  token.holder = 0;
  std::size_t sink = 0;
  const double s = median_time_s(5, 0.2, [&] {
    const std::vector<std::uint8_t> buf = hv::encode_token(token);
    sink += hv::decode_token(buf).entries.size();
  });
  if (sink == 0) throw std::logic_error("probe_token_codec_us: empty decode");
  return 1e6 * s;
}

SimProbe probe_sim(const topo::Topology& topology, std::size_t num_vms) {
  namespace sim = score::sim;
  const std::size_t hosts = topology.num_hosts();
  // Sends + steps per timed batch, and seconds of payload traffic to time.
  const auto per_message_s = [&](std::size_t payload_bytes, std::size_t count) {
    sim::EventQueue queue;
    sim::Network net(queue, topology);
    std::size_t delivered = 0;
    for (topo::HostId h = 0; h < hosts; ++h) {
      net.attach(h, [&](const sim::Message&) { ++delivered; });
    }
    const std::vector<std::uint8_t> payload(payload_bytes, 0x5a);
    std::size_t i = 0;
    const double s = median_time_s(3, 0.0, [&] {
      for (std::size_t j = 0; j < count; ++j, ++i) {
        net.send({static_cast<topo::HostId>((i * 7919) % hosts),
                  static_cast<topo::HostId>((i * 104729 + 1) % hosts),
                  static_cast<int>(score::hypervisor::CtrlMsg::kLocationResponse),
                  payload});
        queue.step();
      }
    });
    if (delivered != i) throw std::logic_error("probe_sim: lost a message");
    return s / static_cast<double>(count);
  };
  const std::size_t token_bytes = score::hypervisor::token_frame_bytes(num_vms);
  SimProbe probe;
  probe.msg_ns = 1e9 * per_message_s(12, 100000);
  probe.token_msg_us =
      1e6 * per_message_s(token_bytes,
                          std::max<std::size_t>(20, (64u << 20) / token_bytes));
  return probe;
}

FoldStats fold_stats(const std::vector<double>& latencies_ns) {
  FoldStats s;
  s.samples = latencies_ns.size();
  if (latencies_ns.empty()) return s;
  for (const double ns : latencies_ns) s.total_s += ns * 1e-9;
  const double n = static_cast<double>(s.samples);
  s.p50_ns = score::util::percentile(latencies_ns, 50.0);
  s.tail_pct = std::max(0.0, 100.0 * (1.0 - 10.0 / n));
  s.tail_ns = score::util::percentile(latencies_ns, s.tail_pct);
  return s;
}

}  // namespace perfbench
