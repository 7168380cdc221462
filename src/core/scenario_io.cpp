#include "core/scenario_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace score::core {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("load_scenario: " + what);
}

std::string next_line(std::istream& in, const char* context) {
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') return line;
  }
  fail(std::string("unexpected end of input while reading ") + context);
}

std::size_t read_count(std::istream& in, const std::string& keyword) {
  std::istringstream ls(next_line(in, keyword.c_str()));
  std::string word;
  std::size_t n = 0;
  if (!(ls >> word >> n) || word != keyword) {
    fail("expected '" + keyword + " <count>'");
  }
  return n;
}

// Streams the pairs section row by row instead of materialising
// TrafficMatrix::pairs() (O(E) tuples — at the 1M-VM tier that dump is
// hundreds of MB of heap the writer doesn't need). Byte-identical to the
// sorted pairs() output: pairs() orders by (u, v), which per-row collection
// in ascending u with an ascending-v sort of each row reproduces exactly.
// Peak extra memory is O(max_degree).
void write_pairs_streaming(std::ostream& out, const traffic::TrafficMatrix& tm) {
  out << "pairs " << tm.num_pairs() << "\n";
  std::vector<std::pair<traffic::VmId, double>> row;
  for (traffic::VmId u = 0; u < tm.num_vms(); ++u) {
    row.clear();
    tm.for_each_neighbor(u, [&](traffic::VmId v, double rate) {
      if (u < v) row.emplace_back(v, rate);
    });
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [v, rate] : row) {
      out << u << ' ' << v << ' ' << rate << "\n";
    }
  }
}

}  // namespace

void save_scenario(std::ostream& out, const Allocation& alloc,
                   const traffic::TrafficMatrix& tm) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "score-scenario v1\n";
  out << "servers " << alloc.num_servers() << "\n";
  for (ServerId s = 0; s < alloc.num_servers(); ++s) {
    const ServerCapacity& cap = alloc.capacity(s);
    out << cap.vm_slots << ' ' << cap.ram_mb << ' ' << cap.cpu_cores << ' '
        << cap.net_bps << "\n";
  }
  out << "vms " << alloc.num_vms() << "\n";
  for (VmId vm = 0; vm < alloc.num_vms(); ++vm) {
    const VmSpec& spec = alloc.spec(vm);
    out << alloc.server_of(vm) << ' ' << spec.ram_mb << ' ' << spec.cpu_cores
        << ' ' << spec.net_bps << "\n";
  }
  write_pairs_streaming(out, tm);
}

namespace {

// Shared v1/v2 section parsers. `allow_dormant` admits `-` in the server
// column (v2 world scenarios); placed VMs are feasibility-checked by pushing
// them through a scratch Allocation.
std::vector<ServerCapacity> read_servers(std::istream& in) {
  const std::size_t num_servers = read_count(in, "servers");
  if (num_servers == 0) fail("scenario needs at least one server");
  std::vector<ServerCapacity> caps(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s) {
    std::istringstream ls(next_line(in, "server capacity"));
    if (!(ls >> caps[s].vm_slots >> caps[s].ram_mb >> caps[s].cpu_cores >>
          caps[s].net_bps)) {
      fail("malformed server capacity line " + std::to_string(s));
    }
  }
  return caps;
}

traffic::TrafficMatrix read_pairs(std::istream& in, std::size_t num_vms) {
  const std::size_t num_pairs = read_count(in, "pairs");
  traffic::FlowDeltaBatch flows;
  // (min id << 32 | max id, line): sorted, equal neighbours are a pair that
  // repeats in either orientation.
  std::vector<std::pair<std::uint64_t, std::size_t>> keys;
  for (std::size_t p = 0; p < num_pairs; ++p) {
    std::istringstream ls(next_line(in, "traffic pair"));
    traffic::VmId u = 0, v = 0;
    double rate = 0.0;
    if (!(ls >> u >> v >> rate)) {
      fail("malformed pair line " + std::to_string(p));
    }
    if (u >= num_vms || v >= num_vms) {
      fail("pair line " + std::to_string(p) + " references unknown VM");
    }
    if (u == v) {
      fail("pair line " + std::to_string(p) + " is a self-pair (u == v)");
    }
    if (!(rate >= 0.0) || !std::isfinite(rate)) {
      fail("pair line " + std::to_string(p) +
           " has a negative or non-finite rate");
    }
    flows.push(u, v, rate);
    keys.emplace_back(
        (std::uint64_t{std::min(u, v)} << 32) | std::max(u, v), p);
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t k = 1; k < keys.size(); ++k) {
    if (keys[k].first == keys[k - 1].first) {
      fail("pair lines " + std::to_string(keys[k - 1].second) + " and " +
           std::to_string(keys[k].second) + " repeat the pair (" +
           std::to_string(keys[k].first >> 32) + ", " +
           std::to_string(keys[k].first & 0xFFFFFFFFu) + ")");
    }
  }
  return traffic::TrafficMatrix(num_vms == 0 ? 1 : num_vms, std::move(flows));
}

}  // namespace

Scenario load_scenario(std::istream& in) {
  if (next_line(in, "magic") != "score-scenario v1") {
    fail("bad magic (expected 'score-scenario v1')");
  }

  std::vector<ServerCapacity> caps = read_servers(in);
  const std::size_t num_servers = caps.size();

  Allocation alloc(std::move(caps));
  const std::size_t num_vms = read_count(in, "vms");
  for (std::size_t vm = 0; vm < num_vms; ++vm) {
    std::istringstream ls(next_line(in, "vm placement"));
    ServerId server = 0;
    VmSpec spec;
    if (!(ls >> server >> spec.ram_mb >> spec.cpu_cores >> spec.net_bps)) {
      fail("malformed vm line " + std::to_string(vm));
    }
    if (server >= num_servers) {
      fail("vm " + std::to_string(vm) + " placed on unknown server " +
           std::to_string(server));
    }
    alloc.add_vm(spec, server);  // enforces capacity feasibility
  }

  traffic::TrafficMatrix tm = read_pairs(in, num_vms);
  return Scenario{std::move(alloc), std::move(tm)};
}

// ---------------------------------------------------------------------------
// v2: world scenarios with a lifecycle timeline.
// ---------------------------------------------------------------------------

std::size_t WorldScenario::num_active() const {
  std::size_t n = 0;
  for (const ServerId s : placement) {
    if (s != kInvalidServer) ++n;
  }
  return n;
}

void save_scenario_v2(std::ostream& out, const WorldScenario& world) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "score-scenario v2\n";
  out << "servers " << world.servers.size() << "\n";
  for (const ServerCapacity& cap : world.servers) {
    out << cap.vm_slots << ' ' << cap.ram_mb << ' ' << cap.cpu_cores << ' '
        << cap.net_bps << "\n";
  }
  out << "vms " << world.vm_specs.size() << "\n";
  for (std::size_t vm = 0; vm < world.vm_specs.size(); ++vm) {
    const VmSpec& spec = world.vm_specs[vm];
    if (world.placement[vm] == kInvalidServer) {
      out << '-';
    } else {
      out << world.placement[vm];
    }
    out << ' ' << spec.ram_mb << ' ' << spec.cpu_cores << ' ' << spec.net_bps
        << "\n";
  }
  write_pairs_streaming(out, world.tm);
  out << "events " << world.timeline.size() << "\n";
  for (const TimelineEvent& ev : world.timeline) {
    out << ev.epoch << ' '
        << (ev.kind == TimelineEventKind::kArrive ? "arrive" : "depart") << ' '
        << ev.first_vm << ' ' << ev.count << "\n";
  }
}

WorldScenario load_scenario_v2(std::istream& in) {
  if (next_line(in, "magic") != "score-scenario v2") {
    fail("bad magic (expected 'score-scenario v2')");
  }

  WorldScenario world;
  world.servers = read_servers(in);
  const std::size_t num_servers = world.servers.size();

  const std::size_t num_vms = read_count(in, "vms");
  world.vm_specs.resize(num_vms);
  world.placement.assign(num_vms, kInvalidServer);
  // Scratch allocation: placed VMs are pushed through Allocation::add_vm so
  // v2 enforces exactly the same capacity feasibility as v1 (ids differ —
  // only the aggregate per-server load matters here).
  Allocation scratch(world.servers);
  for (std::size_t vm = 0; vm < num_vms; ++vm) {
    std::istringstream ls(next_line(in, "vm placement"));
    std::string server_field;
    VmSpec& spec = world.vm_specs[vm];
    if (!(ls >> server_field >> spec.ram_mb >> spec.cpu_cores >> spec.net_bps)) {
      fail("malformed vm line " + std::to_string(vm));
    }
    if (server_field != "-") {
      std::size_t consumed = 0;
      unsigned long server = 0;
      try {
        server = std::stoul(server_field, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      if (consumed != server_field.size()) {
        fail("vm " + std::to_string(vm) + " has malformed server field '" +
             server_field + "' (expected a server id or '-')");
      }
      if (server >= num_servers) {
        fail("vm " + std::to_string(vm) + " placed on unknown server " +
             std::to_string(server));
      }
      world.placement[vm] = static_cast<ServerId>(server);
      try {
        scratch.add_vm(spec, static_cast<ServerId>(server));
      } catch (const std::exception& e) {
        fail("vm " + std::to_string(vm) + " placement infeasible: " + e.what());
      }
    }
  }

  world.tm = read_pairs(in, num_vms);

  // Timeline: replay the events against the epoch-0 active set so that every
  // arrive lands on a fully dormant block and every depart on a fully active
  // one. Epoch 0 is the initial state itself, so events start at epoch 1.
  std::vector<bool> active(num_vms);
  for (std::size_t vm = 0; vm < num_vms; ++vm) {
    active[vm] = world.placement[vm] != kInvalidServer;
  }
  const std::size_t num_events = read_count(in, "events");
  world.timeline.reserve(num_events);
  std::size_t last_epoch = 1;
  bool epoch_has_arrival = false;  // canonical order: departs precede arrives
  for (std::size_t e = 0; e < num_events; ++e) {
    std::istringstream ls(next_line(in, "timeline event"));
    TimelineEvent ev;
    std::string kind;
    if (!(ls >> ev.epoch >> kind >> ev.first_vm >> ev.count)) {
      fail("malformed event line " + std::to_string(e));
    }
    if (kind == "arrive") {
      ev.kind = TimelineEventKind::kArrive;
    } else if (kind == "depart") {
      ev.kind = TimelineEventKind::kDepart;
    } else {
      fail("event line " + std::to_string(e) + " has unknown kind '" + kind +
           "'");
    }
    if (ev.epoch < 1) {
      fail("event line " + std::to_string(e) +
           " has epoch 0 (initial state is the placement column; events start "
           "at epoch 1)");
    }
    if (ev.epoch < last_epoch) {
      fail("event line " + std::to_string(e) + " epoch " +
           std::to_string(ev.epoch) + " decreases (timeline must be ordered)");
    }
    if (ev.epoch != last_epoch) epoch_has_arrival = false;
    last_epoch = ev.epoch;
    // The continuous engine applies an epoch's departures before its
    // arrivals; a valid timeline is written in that canonical order, so a
    // depart after an arrive within one epoch would replay differently than
    // it validates here.
    if (ev.kind == TimelineEventKind::kArrive) {
      epoch_has_arrival = true;
    } else if (epoch_has_arrival) {
      fail("event line " + std::to_string(e) +
           ": depart after an arrive within epoch " + std::to_string(ev.epoch) +
           " (canonical order is departures first)");
    }
    if (ev.count == 0) {
      fail("event line " + std::to_string(e) + " has zero count");
    }
    if (ev.first_vm >= num_vms || ev.count > num_vms - ev.first_vm) {
      fail("event line " + std::to_string(e) + " block [" +
           std::to_string(ev.first_vm) + ", " +
           std::to_string(ev.first_vm + ev.count) + ") exceeds the world of " +
           std::to_string(num_vms) + " VMs");
    }
    const bool arriving = ev.kind == TimelineEventKind::kArrive;
    for (VmId vm = ev.first_vm; vm < ev.first_vm + ev.count; ++vm) {
      if (active[vm] == arriving) {
        fail("event line " + std::to_string(e) + ": vm " + std::to_string(vm) +
             (arriving ? " arrives but is already active"
                       : " departs but is already dormant"));
      }
      active[vm] = arriving;
    }
    world.timeline.push_back(ev);
  }
  return world;
}

}  // namespace score::core
