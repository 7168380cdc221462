#include "baselines/graph_partitioning.hpp"

#include <stdexcept>
#include <utility>

#include "baselines/exact_solver.hpp"

namespace score::baselines {

OvmaInstance reduce_gp_to_ovma(const GpInstance& gp) {
  if (gp.num_vertices == 0) {
    throw std::invalid_argument("reduce_gp_to_ovma: empty graph");
  }
  if (gp.capacity_k == 0) {
    throw std::invalid_argument("reduce_gp_to_ovma: zero capacity");
  }
  for (const auto& [u, v, w] : gp.edges) {
    if (u == v || u >= gp.num_vertices || v >= gp.num_vertices || w <= 0.0) {
      throw std::invalid_argument("reduce_gp_to_ovma: malformed edge");
    }
  }

  OvmaInstance out;
  // One rack (= one server) per potential part: n parts suffice (each vertex
  // alone is always feasible). A single pod keeps every inter-rack pair at
  // the same communication level, so cut edges cost a uniform multiple.
  topo::CanonicalTreeConfig tcfg;
  tcfg.racks = gp.num_vertices;
  tcfg.hosts_per_rack = 1;
  tcfg.racks_per_pod = gp.num_vertices;  // single pod: inter-rack level == 2
  tcfg.cores = 1;
  out.topology = std::make_unique<topo::CanonicalTree>(tcfg);

  core::LinkWeights weights = core::LinkWeights::uniform(3);  // c_i = 1
  out.model = std::make_unique<core::CostModel>(*out.topology, weights);
  // Pair at level 2 costs 2·λ·(c1+c2) = 4λ; colocated pairs cost 0.
  out.cut_cost_scale = 2.0 * weights.prefix(2);

  // Parallel edges sum into one λ.
  traffic::FlowDeltaBatch edges;
  edges.reserve(gp.edges.size());
  for (const auto& [u, v, w] : gp.edges) edges.push(u, v, w);
  out.tm = traffic::TrafficMatrix(gp.num_vertices, std::move(edges));

  core::ServerCapacity cap;
  cap.vm_slots = gp.capacity_k;  // rack capacity K
  cap.ram_mb = 1e9;              // only the slot constraint matters (unit weights)
  cap.cpu_cores = 1e9;
  cap.net_bps = 1e18;
  out.allocation = std::make_unique<core::Allocation>(
      out.topology->num_hosts(), cap);
  // Initial state: vertex i in part i (always feasible).
  for (std::uint32_t i = 0; i < gp.num_vertices; ++i) {
    out.allocation->add_vm(core::VmSpec{.ram_mb = 1.0, .cpu_cores = 1.0},
                           static_cast<core::ServerId>(i));
  }
  return out;
}

double gp_cut_weight(const GpInstance& gp, const std::vector<int>& parts) {
  if (parts.size() != gp.num_vertices) {
    throw std::invalid_argument("gp_cut_weight: partition size mismatch");
  }
  double cut = 0.0;
  for (const auto& [u, v, w] : gp.edges) {
    if (parts[u] != parts[v]) cut += w;
  }
  return cut;
}

bool gp_partition_feasible(const GpInstance& gp, const std::vector<int>& parts) {
  if (parts.size() != gp.num_vertices) return false;
  std::vector<std::size_t> sizes;
  for (int p : parts) {
    if (p < 0) return false;
    if (static_cast<std::size_t>(p) >= sizes.size()) {
      sizes.resize(static_cast<std::size_t>(p) + 1, 0);
    }
    if (++sizes[static_cast<std::size_t>(p)] > gp.capacity_k) return false;
  }
  return true;
}

bool gp_decide_via_ovma(const GpInstance& gp) {
  OvmaInstance ovma = reduce_gp_to_ovma(gp);
  ExactSolver solver(*ovma.model);
  const ExactResult res = solver.solve(*ovma.allocation, ovma.tm);
  if (!res.proven_optimal) {
    throw std::runtime_error("gp_decide_via_ovma: instance too large for exact search");
  }
  // Allocation cost = cut_cost_scale · (total cut weight of the induced
  // partition), so the GP goal J maps to cost threshold scale·J.
  return res.best_cost <= ovma.cut_cost_scale * gp.goal_j + 1e-9;
}

}  // namespace score::baselines
