// Shared scaffolding for bench_runner's suites: the named topologies every
// suite runs on, the default-scale scenario builder, and the score-bench/v1
// record emitter.
//
// Default-scale scenarios are scaled down from the paper (160-host canonical
// tree / k = 8 fat-tree, 4 VM slots per host) so every figure suite finishes
// in seconds on one core while preserving the qualitative shapes; the
// paper-scale and huge suites build the §VI topologies by name instead.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/placement.hpp"
#include "core/cached_cost_model.hpp"
#include "topology/canonical_tree.hpp"
#include "topology/fat_tree.hpp"
#include "topology/leaf_spine.hpp"
#include "traffic/generator.hpp"
#include "util/rng.hpp"

namespace score::bench {

/// Command-line settings the suites read.
struct RunOptions {
  bool quick = false;         ///< --quick: smaller GA budgets and rep counts
  std::size_t threads = 4;    ///< --threads: widest tokens-ablation policy
  std::string mode = "both";  ///< --mode: dist-vs-centralized restriction
};

/// Every topology a suite runs on, by the name its rows carry. Default
/// scale: "canonical-tree" (160 hosts), "fat-tree" (k = 8, 128 hosts),
/// "leaf-spine" (160 hosts). Paper §VI: "canonical-2560", "fat-tree-k16",
/// "fat-tree-k32". Huge tier: "fat-tree-k48", "fat-tree-k64",
/// "canonical-1m-vm" (128000 hosts).
inline std::unique_ptr<topo::Topology> make_topology(const std::string& name) {
  if (name == "canonical-tree") {
    return std::make_unique<topo::CanonicalTree>(topo::CanonicalTreeConfig{
        .racks = 32, .hosts_per_rack = 5, .racks_per_pod = 4, .cores = 4});
  }
  if (name == "fat-tree") {
    return std::make_unique<topo::FatTree>(topo::FatTreeConfig{.k = 8});
  }
  if (name == "leaf-spine") {
    return std::make_unique<topo::LeafSpine>(
        topo::LeafSpineConfig{.leaves = 32, .hosts_per_leaf = 5, .spines = 4});
  }
  if (name == "canonical-2560") {
    return std::make_unique<topo::CanonicalTree>(
        topo::CanonicalTreeConfig::paper_scale());
  }
  if (name == "canonical-1m-vm") {
    return std::make_unique<topo::CanonicalTree>(
        topo::CanonicalTreeConfig::huge_scale());
  }
  for (const std::size_t k : {16, 32, 48, 64}) {
    if (name == "fat-tree-k" + std::to_string(k)) {
      return std::make_unique<topo::FatTree>(topo::FatTreeConfig{.k = k});
    }
  }
  throw std::invalid_argument("bench_runner: unknown topology " + name);
}

inline core::ServerCapacity server_capacity() {
  core::ServerCapacity cap;
  cap.vm_slots = 4;
  cap.ram_mb = static_cast<double>(cap.vm_slots) * 256.0;
  cap.cpu_cores = static_cast<double>(cap.vm_slots);
  return cap;
}

/// Fleet sized at ~50% slot occupancy so migrations have room to move.
inline std::size_t fleet_size(const topo::Topology& topology) {
  return topology.num_hosts() * server_capacity().vm_slots / 2;
}

struct Scenario {
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<core::CachedCostModel> model;
  traffic::TrafficMatrix tm{1};
  std::unique_ptr<core::Allocation> alloc;

  /// Bind the cost cache to (alloc, tm). Call only once the Scenario sits in
  /// its final location — the cache stores the addresses of `*alloc` and
  /// `tm`, and `tm` lives inline, so binding before a move would dangle.
  void bind_cache() { model->bind(*alloc, tm); }
};

inline Scenario make_scenario(const std::string& topology,
                              traffic::Intensity intensity,
                              std::uint64_t seed = 42) {
  Scenario s;
  s.topology = make_topology(topology);
  s.model = std::make_unique<core::CachedCostModel>(
      *s.topology, core::LinkWeights::exponential(3));
  traffic::GeneratorConfig gen;
  gen.num_vms = fleet_size(*s.topology);
  gen.seed = seed;
  // Rack-scale services with substantial cross-service chatter: even an
  // optimal allocation keeps paying for inter-rack traffic, as in the
  // paper's ToR-level TMs (Fig. 3a) where hotspots persist at the optimum.
  gen.mean_service_size = 24;
  gen.intra_service_degree = 4.0;
  gen.cross_service_prob = 0.3;
  s.tm = traffic::generate_traffic(gen, intensity);

  // Per-VM NIC demand = the VM's aggregate traffic rate (clamped to half the
  // host NIC). At sparse intensity this never binds; at x10/x50 it constrains
  // colocation (§V-C bandwidth threshold), reproducing the paper's growing
  // deviation from the GA optimum as the TM densifies.
  const core::ServerCapacity cap = server_capacity();
  std::vector<core::VmSpec> specs(gen.num_vms);
  for (traffic::VmId u = 0; u < gen.num_vms; ++u) {
    double rate = 0.0;
    for (const auto& [v, r] : s.tm.neighbors(u)) {
      (void)v;
      rate += r;
    }
    specs[u].net_bps = std::min(rate, 0.5 * cap.net_bps);
  }

  util::Rng rng(seed + 1);
  s.alloc = std::make_unique<core::Allocation>(baselines::make_allocation(
      *s.topology, cap, specs, baselines::PlacementStrategy::kRandom, rng));
  return s;
}

// --------------------------------------------------------------------------
// Machine-readable results: every bench entry is one JSON object with the
// common fields (suite, scenario, wall-time, cost reduction, migrations) plus
// free-form numeric metrics. tools/bench_compare.py diffs two such files, so
// each PR can report a perf delta against the committed BENCH_results.json.
// --------------------------------------------------------------------------

struct BenchRecord {
  std::string suite;     ///< e.g. "fig2-convergence"
  std::string scenario;  ///< e.g. "canonical-tree/round-robin"
  double wall_time_s = 0.0;          ///< harness wall-clock for this entry
  double cost_reduction_pct = 0.0;   ///< 100 * (1 - final/initial)
  std::size_t migrations = 0;
  /// Extra numeric metrics (insertion order preserved in the JSON output).
  std::vector<std::pair<std::string, double>> metrics;

  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no NaN/Inf
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Collects BenchRecords and writes them as one JSON document:
///   {"schema": "...", "scale": "...", "results": [ {...}, ... ]}
class JsonReport {
 public:
  /// `scale` is bench_runner's --scale value.
  explicit JsonReport(std::string scale) : scale_(std::move(scale)) {}

  void add(BenchRecord record) { records_.push_back(std::move(record)); }

  void write(std::ostream& os) const {
    os << "{\n";
    os << "  \"schema\": \"score-bench/v1\",\n";
    os << "  \"scale\": \"" << scale_ << "\",\n";
    os << "  \"results\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      os << (i == 0 ? "\n" : ",\n");
      os << "    {\"suite\": \"" << json_escape(r.suite) << "\", "
         << "\"scenario\": \"" << json_escape(r.scenario) << "\", "
         << "\"wall_time_s\": " << json_number(r.wall_time_s) << ", "
         << "\"cost_reduction_pct\": " << json_number(r.cost_reduction_pct)
         << ", \"migrations\": " << r.migrations;
      for (const auto& [name, value] : r.metrics) {
        os << ", \"" << json_escape(name) << "\": " << json_number(value);
      }
      os << "}";
    }
    os << "\n  ]\n}\n";
  }

  std::size_t size() const { return records_.size(); }

 private:
  std::string scale_;
  std::vector<BenchRecord> records_;
};

/// Monotonic wall-clock stopwatch for BenchRecord::wall_time_s.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The paper-figure and ablation suites (bench_figures.cpp): Fig. 3a-c, 4,
/// 5a, 5b-d and control-plane overhead; ablations A1-A4, A6, A7.
bool run_figures(const RunOptions& opt, JsonReport& report);
bool run_ablations(const RunOptions& opt, JsonReport& report);

}  // namespace score::bench
