// Scenario-serialization tests: lossless round-trip of capacities, specs,
// placement and traffic; validation of malformed input.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/scenario_io.hpp"
#include "helpers.hpp"

namespace {

using score::core::Allocation;
using score::core::load_scenario;
using score::core::save_scenario;
using score::core::Scenario;
using score::core::ServerCapacity;
using score::core::ServerId;
using score::core::VmId;
using score::core::VmSpec;
using score::testing::random_allocation;
using score::testing::random_tm;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::traffic::TrafficMatrix;
using score::util::Rng;

TEST(ScenarioIo, RoundTripsRandomScenario) {
  CanonicalTree topo(tiny_tree_config());
  Rng rng(80);
  auto tm = random_tm(24, 3.0, rng);
  auto alloc = random_allocation(topo, 24, rng);

  std::stringstream buf;
  save_scenario(buf, alloc, tm);
  const Scenario loaded = load_scenario(buf);

  ASSERT_EQ(loaded.allocation.num_servers(), alloc.num_servers());
  ASSERT_EQ(loaded.allocation.num_vms(), alloc.num_vms());
  for (VmId vm = 0; vm < alloc.num_vms(); ++vm) {
    EXPECT_EQ(loaded.allocation.server_of(vm), alloc.server_of(vm));
    EXPECT_DOUBLE_EQ(loaded.allocation.spec(vm).ram_mb, alloc.spec(vm).ram_mb);
    EXPECT_DOUBLE_EQ(loaded.allocation.spec(vm).net_bps, alloc.spec(vm).net_bps);
  }
  for (ServerId s = 0; s < alloc.num_servers(); ++s) {
    EXPECT_EQ(loaded.allocation.capacity(s).vm_slots,
              alloc.capacity(s).vm_slots);
    EXPECT_DOUBLE_EQ(loaded.allocation.capacity(s).ram_mb,
                     alloc.capacity(s).ram_mb);
  }
  EXPECT_EQ(loaded.tm.pairs(), tm.pairs());
  EXPECT_TRUE(loaded.allocation.check_consistency());
}

TEST(ScenarioIo, RatePrecisionSurvives) {
  Allocation alloc(1, ServerCapacity{});
  alloc.add_vm(VmSpec{}, 0);
  alloc.add_vm(VmSpec{}, 0);
  TrafficMatrix tm(2, {{0, 1, 1.2345678901234567e8}});
  std::stringstream buf;
  save_scenario(buf, alloc, tm);
  const Scenario loaded = load_scenario(buf);
  EXPECT_DOUBLE_EQ(loaded.tm.rate(0, 1), 1.2345678901234567e8);
}

TEST(ScenarioIo, CommentsAndBlankLinesIgnored) {
  Allocation alloc(2, ServerCapacity{});
  alloc.add_vm(VmSpec{}, 1);
  TrafficMatrix tm(1);
  std::stringstream buf;
  save_scenario(buf, alloc, tm);
  std::string text = "# leading comment\n" + buf.str();
  std::stringstream annotated(text);
  const Scenario loaded = load_scenario(annotated);
  EXPECT_EQ(loaded.allocation.server_of(0), 1u);
}

TEST(ScenarioIo, RejectsBadMagic) {
  std::stringstream buf("something-else v9\nservers 1\n");
  EXPECT_THROW(load_scenario(buf), std::runtime_error);
}

TEST(ScenarioIo, RejectsTruncatedInput) {
  Allocation alloc(2, ServerCapacity{});
  alloc.add_vm(VmSpec{}, 0);
  TrafficMatrix tm(1);
  std::stringstream buf;
  save_scenario(buf, alloc, tm);
  std::string text = buf.str();
  text.resize(text.size() / 2);
  std::stringstream cut(text);
  EXPECT_THROW(load_scenario(cut), std::runtime_error);
}

TEST(ScenarioIo, RejectsOutOfRangeReferences) {
  std::stringstream bad_server(
      "score-scenario v1\nservers 1\n4 1000 4 1e9\nvms 1\n7 196 1 0\npairs 0\n");
  EXPECT_THROW(load_scenario(bad_server), std::runtime_error);

  std::stringstream bad_pair(
      "score-scenario v1\nservers 1\n4 1000 4 1e9\nvms 2\n0 196 1 0\n0 196 1 0\n"
      "pairs 1\n0 9 5.0\n");
  EXPECT_THROW(load_scenario(bad_pair), std::runtime_error);
}

// A pair listed twice used to keep its last rate silently. Either
// orientation is the same unordered pair, and both lines are named.
TEST(ScenarioIo, RejectsRepeatedPairInEitherOrientation) {
  for (const std::string repeat : {"0 1 7\n", "1 0 7\n"}) {
    std::stringstream in(
        "score-scenario v1\nservers 1\n4 1000 4 1e9\nvms 3\n0 196 1 0\n"
        "0 196 1 0\n0 196 1 0\npairs 3\n0 1 5\n1 2 1\n" +
        repeat);
    try {
      (void)load_scenario(in);
      ADD_FAILURE() << "repeated pair accepted: " << repeat;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("pair lines 0 and 2"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioIo, RejectsInfeasiblePlacement) {
  // Two 196 MB VMs on a server with 200 MB RAM: Allocation::add_vm refuses.
  std::stringstream infeasible(
      "score-scenario v1\nservers 1\n4 200 4 1e9\nvms 2\n0 196 1 0\n0 196 1 0\n"
      "pairs 0\n");
  EXPECT_THROW(load_scenario(infeasible), std::runtime_error);
}

TEST(ScenarioIo, EmptyTrafficAllowed) {
  Allocation alloc(1, ServerCapacity{});
  alloc.add_vm(VmSpec{}, 0);
  TrafficMatrix tm(1);
  std::stringstream buf;
  save_scenario(buf, alloc, tm);
  const Scenario loaded = load_scenario(buf);
  EXPECT_EQ(loaded.tm.num_pairs(), 0u);
}

}  // namespace
