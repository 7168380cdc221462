// scenario_io v2 (world scenarios + lifecycle timeline): canonical-form
// round trips, random-scenario save->load->save byte-identity fuzz, and
// rejection of corrupted inputs with precise diagnostics (never UB — this
// suite carries the `smoke` label so the ASan/UBSan CI job runs it).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario_io.hpp"
#include "util/rng.hpp"

namespace score {
namespace {

using core::TimelineEvent;
using core::TimelineEventKind;
using core::WorldScenario;

WorldScenario sample_world() {
  WorldScenario w;
  core::ServerCapacity cap;
  cap.vm_slots = 2;
  cap.ram_mb = 512.0;
  cap.cpu_cores = 2.0;
  w.servers.assign(4, cap);
  w.vm_specs.assign(6, core::VmSpec{});
  w.placement = {0, 1, core::kInvalidServer, core::kInvalidServer, 2, 3};
  // Dormant VMs (2 and 3) may carry world traffic.
  w.tm = traffic::TrafficMatrix(6, {{0, 1, 3.5}, {2, 3, 1.25}, {4, 5, 7.0}});
  w.timeline = {
      {1, TimelineEventKind::kArrive, 2, 2},
      {2, TimelineEventKind::kDepart, 0, 2},
      {2, TimelineEventKind::kArrive, 0, 2},
  };
  return w;
}

std::string dump(const WorldScenario& w) {
  std::ostringstream out;
  core::save_scenario_v2(out, w);
  return out.str();
}

WorldScenario parse(const std::string& text) {
  std::istringstream in(text);
  return core::load_scenario_v2(in);
}

TEST(ScenarioV2, RoundTripPreservesEverything) {
  const WorldScenario w = sample_world();
  const WorldScenario r = parse(dump(w));
  EXPECT_EQ(r.num_vms(), 6u);
  EXPECT_EQ(r.num_active(), 4u);
  EXPECT_EQ(r.placement, w.placement);
  EXPECT_EQ(r.timeline, w.timeline);
  EXPECT_DOUBLE_EQ(r.tm.rate(2, 3), 1.25);
  EXPECT_EQ(dump(r), dump(w));
}

TEST(ScenarioV2, RandomWorldsSurviveSaveLoadSaveByteIdentically) {
  util::Rng rng(2014);
  for (int trial = 0; trial < 40; ++trial) {
    WorldScenario w;
    const std::size_t servers = 2 + rng.index(6);
    const std::size_t slots = 1 + rng.index(4);
    core::ServerCapacity cap;
    cap.vm_slots = slots;
    cap.ram_mb = 256.0 * static_cast<double>(slots);
    cap.cpu_cores = static_cast<double>(slots);
    cap.net_bps = rng.uniform(1e8, 1e9);
    w.servers.assign(servers, cap);

    const std::size_t vms = 1 + rng.index(servers * slots);
    w.vm_specs.assign(vms, core::VmSpec{});
    w.placement.assign(vms, core::kInvalidServer);
    std::vector<std::size_t> used(servers, 0);
    for (std::size_t vm = 0; vm < vms; ++vm) {
      if (rng.chance(0.3)) continue;  // dormant
      for (std::size_t tried = 0; tried < servers; ++tried) {
        const std::size_t s = rng.index(servers);
        if (used[s] < slots) {
          w.placement[vm] = static_cast<core::ServerId>(s);
          ++used[s];
          break;
        }
      }
    }

    traffic::FlowDeltaBatch flows;
    for (std::size_t p = 0; p < vms; ++p) {
      const auto u = static_cast<traffic::VmId>(rng.index(vms));
      const auto v = static_cast<traffic::VmId>(rng.index(vms));
      if (u == v) continue;
      flows.push(u, v, rng.uniform(0.001, 1e7));
    }
    w.tm = traffic::TrafficMatrix(vms, std::move(flows));

    // A valid nontrivial timeline: flip whole single-VM "tenants", in the
    // canonical per-epoch order (all departures before the first arrival).
    std::vector<bool> active(vms);
    for (std::size_t vm = 0; vm < vms; ++vm) {
      active[vm] = w.placement[vm] != core::kInvalidServer;
    }
    for (std::size_t epoch = 1; epoch <= 3; ++epoch) {
      std::vector<core::VmId> departs, arrives;
      for (std::size_t vm = 0; vm < vms; ++vm) {
        if (!rng.chance(0.2)) continue;
        (active[vm] ? departs : arrives).push_back(static_cast<core::VmId>(vm));
        active[vm] = !active[vm];
      }
      for (const core::VmId vm : departs) {
        w.timeline.push_back({epoch, TimelineEventKind::kDepart, vm, 1});
      }
      for (const core::VmId vm : arrives) {
        w.timeline.push_back({epoch, TimelineEventKind::kArrive, vm, 1});
      }
    }

    const std::string first = dump(w);
    const WorldScenario loaded = parse(first);
    const std::string second = dump(loaded);
    EXPECT_EQ(first, second) << "trial " << trial;
    EXPECT_EQ(loaded.placement, w.placement) << "trial " << trial;
    EXPECT_EQ(loaded.timeline, w.timeline) << "trial " << trial;
  }
}

// Every corruption must be rejected with a diagnostic that names the
// offending construct — and must never crash (ASan job).
struct Corruption {
  const char* name;
  std::string text;
  const char* expect_in_message;
};

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const auto pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "corruption template mismatch: " << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

TEST(ScenarioV2, CorruptedInputsAreRejectedWithDiagnostics) {
  const std::string good = dump(sample_world());

  const std::vector<Corruption> cases = {
      {"bad magic", replace_once(good, "score-scenario v2", "score-scenario v3"),
       "bad magic"},
      {"v1 magic on v2 loader",
       replace_once(good, "score-scenario v2", "score-scenario v1"), "bad magic"},
      {"unknown server", replace_once(good, "0 196", "99 196"),
       "unknown server"},
      {"malformed server field", replace_once(good, "0 196", "x7 196"),
       "malformed server field"},
      {"infeasible placement (slot overflow)",
       replace_once(replace_once(good, "- 196", "0 196"), "- 196", "0 196"),
       "infeasible"},
      {"self pair", replace_once(good, "0 1 3.5", "1 1 3.5"), "self-pair"},
      {"negative rate", replace_once(good, "0 1 3.5", "0 1 -3.5"), "negative"},
      {"pair references unknown vm", replace_once(good, "4 5 7", "4 50 7"),
       "unknown VM"},
      {"repeated pair", replace_once(good, "4 5 7", "1 0 7"),
       "pair lines 0 and 2 repeat the pair (0, 1)"},
      {"unknown event kind", replace_once(good, "1 arrive 2 2", "1 vanish 2 2"),
       "unknown kind"},
      {"event epoch zero", replace_once(good, "1 arrive 2 2", "0 arrive 2 2"),
       "epoch 0"},
      {"event zero count", replace_once(good, "1 arrive 2 2", "1 arrive 2 0"),
       "zero count"},
      {"event block out of range",
       replace_once(good, "1 arrive 2 2", "1 arrive 5 2"), "exceeds the world"},
      {"arrive of active block", replace_once(good, "1 arrive 2 2", "1 arrive 0 2"),
       "already active"},
      {"depart after arrive within an epoch",
       replace_once(good, "2 depart 0 2", "1 depart 0 2"),
       "canonical order"},
      {"depart of dormant block",
       replace_once(good, "1 arrive 2 2", "1 depart 2 2"), "already dormant"},
      {"truncated events", replace_once(good, "events 3", "events 4"),
       "unexpected end of input"},
      {"bad count line", replace_once(good, "pairs 3", "pairs three"),
       "expected 'pairs <count>'"},
      {"truncated vms", replace_once(good, "vms 6", "vms 7"),
       "malformed vm line"},
  };

  for (const Corruption& c : cases) {
    try {
      (void)parse(c.text);
      FAIL() << c.name << ": corrupted input was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect_in_message),
                std::string::npos)
          << c.name << ": diagnostic was: " << e.what();
    }
  }
}

TEST(ScenarioV2, DecreasingEpochIsRejected) {
  WorldScenario w = sample_world();
  w.timeline = {
      {2, TimelineEventKind::kDepart, 0, 2},
      {1, TimelineEventKind::kArrive, 2, 2},
  };
  // save_scenario_v2 writes whatever it is given; the *loader* must reject.
  try {
    (void)parse(dump(w));
    FAIL() << "decreasing epoch accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("decreases"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioV2, V1LoaderStillRejectsV2Documents) {
  std::istringstream in(dump(sample_world()));
  EXPECT_THROW((void)core::load_scenario(in), std::runtime_error);
}

}  // namespace
}  // namespace score
