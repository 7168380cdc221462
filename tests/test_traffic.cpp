// Traffic-matrix and generator tests: symmetry, sparsity, scaling (the
// paper's ×10/×50 intensities), determinism and the long-tail byte share.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "traffic/generator.hpp"
#include "traffic/traffic_matrix.hpp"

namespace {

using score::traffic::FlowDelta;
using score::traffic::generate_traffic;
using score::traffic::GeneratorConfig;
using score::traffic::Intensity;
using score::traffic::intensity_scale;
using score::traffic::top_pair_byte_share;
using score::traffic::TrafficMatrix;
using score::traffic::VmId;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TrafficMatrix, BuildAndGetSymmetric) {
  const TrafficMatrix tm(4, {{0, 1, 10.0}});
  EXPECT_DOUBLE_EQ(tm.rate(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(tm.rate(1, 0), 10.0);
  EXPECT_DOUBLE_EQ(tm.rate(0, 2), 0.0);
}

TEST(TrafficMatrix, BuildSumsRepeatedPairsInFirstAppearanceOrder) {
  const TrafficMatrix tm(4, {{0, 2, 3.0}, {0, 1, 1.0}, {2, 0, 2.0}, {3, 1, 0.0}});
  EXPECT_DOUBLE_EQ(tm.rate(0, 2), 5.0);
  EXPECT_EQ(tm.num_pairs(), 2u);  // the zero-rate pair is absent
  std::vector<VmId> order;
  for (const auto& [v, r] : tm.neighbors(0)) order.push_back(v);
  EXPECT_EQ(order, (std::vector<VmId>{2, 1}));
  EXPECT_EQ(tm.overflow_entries(), 0u);  // built straight into CSR
}

TEST(TrafficMatrix, ApplyAddsAndClampsAtZero) {
  TrafficMatrix tm(3, {{0, 1, 10.0}});
  tm.apply(FlowDelta{1, 0, -6.0});
  EXPECT_DOUBLE_EQ(tm.rate(0, 1), 4.0);
  EXPECT_EQ(tm.num_pairs(), 1u);
  tm.apply(FlowDelta{0, 1, -20.0});
  EXPECT_EQ(tm.num_pairs(), 0u);
  EXPECT_TRUE(tm.neighbors(0).empty());
  EXPECT_TRUE(tm.neighbors(1).empty());
}

// apply() once range-checked only u (inside rate()): an out-of-range v read
// and wrote past the row arrays, and a non-finite delta became a stored rate.
TEST(TrafficMatrix, ApplyRejectsMalformedDeltas) {
  TrafficMatrix tm(10, {{0, 1, 1.0}});
  EXPECT_THROW(tm.apply(FlowDelta{0, 1000, 1.0}), std::out_of_range);
  EXPECT_THROW(tm.apply(FlowDelta{1000, 0, 1.0}), std::out_of_range);
  EXPECT_THROW(tm.apply(FlowDelta{1, 1, 1.0}), std::invalid_argument);
  EXPECT_THROW(tm.apply(FlowDelta{0, 1, kNaN}), std::invalid_argument);
  EXPECT_THROW(tm.apply(FlowDelta{0, 2, kInf}), std::invalid_argument);
  EXPECT_THROW(tm.apply(FlowDelta{0, 1, -kInf}), std::invalid_argument);
  EXPECT_EQ(tm.pairs(), TrafficMatrix(10, {{0, 1, 1.0}}).pairs());
  EXPECT_EQ(tm.version(), 0u);
}

// rate() once range-checked only u: rate(0, 1000) on a 4-VM matrix
// returned 0 where neighbors() and apply() throw.
TEST(TrafficMatrix, RateRejectsEitherOutOfRangeId) {
  const TrafficMatrix tm(4, {{0, 1, 1.0}});
  EXPECT_THROW(tm.rate(1000, 0), std::out_of_range);
  EXPECT_THROW(tm.rate(0, 1000), std::out_of_range);
  EXPECT_THROW(tm.rate(0, 4), std::out_of_range);
  EXPECT_DOUBLE_EQ(tm.rate(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(tm.rate(1, 0), 1.0);
}

TEST(TrafficMatrix, NeighborsListsBothEndpoints) {
  const TrafficMatrix tm(4, {{0, 1, 1.0}, {0, 2, 2.0}});
  EXPECT_EQ(tm.neighbors(0).size(), 2u);
  EXPECT_EQ(tm.neighbors(1).size(), 1u);
  EXPECT_EQ(tm.neighbors(3).size(), 0u);
}

TEST(TrafficMatrix, TotalLoadCountsPairsOnce) {
  const TrafficMatrix tm(4, {{0, 1, 1.0}, {2, 3, 2.0}});
  EXPECT_DOUBLE_EQ(tm.total_load(), 3.0);
  EXPECT_EQ(tm.num_pairs(), 2u);
}

TEST(TrafficMatrix, ScaledMultipliesAllRates) {
  const TrafficMatrix tm(3, {{0, 1, 1.0}, {1, 2, 2.0}});
  const TrafficMatrix x10 = tm.scaled(10.0);
  EXPECT_DOUBLE_EQ(x10.rate(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(x10.rate(1, 2), 20.0);
  EXPECT_DOUBLE_EQ(tm.rate(1, 2), 2.0);  // the source is untouched
  EXPECT_EQ(tm.scaled(0.0).num_pairs(), 0u);
  EXPECT_THROW(tm.scaled(-1.0), std::invalid_argument);
  EXPECT_THROW(tm.scaled(kNaN), std::invalid_argument);
  EXPECT_THROW(tm.scaled(kInf), std::invalid_argument);
}

TEST(TrafficMatrix, PairsSortedAndUnique) {
  const TrafficMatrix tm(4, {{2, 1, 5.0}, {0, 3, 1.0}});
  auto pairs = tm.pairs();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(std::get<0>(pairs[0]), 0u);
  EXPECT_EQ(std::get<1>(pairs[0]), 3u);
  EXPECT_EQ(std::get<0>(pairs[1]), 1u);
  EXPECT_EQ(std::get<1>(pairs[1]), 2u);
}

// ------------------------------------------------------------------ generator

TEST(Generator, DeterministicForSeed) {
  GeneratorConfig cfg;
  cfg.num_vms = 128;
  auto a = generate_traffic(cfg);
  auto b = generate_traffic(cfg);
  EXPECT_EQ(a.pairs(), b.pairs());
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorConfig cfg;
  cfg.num_vms = 128;
  auto a = generate_traffic(cfg);
  cfg.seed = 1001;
  auto b = generate_traffic(cfg);
  EXPECT_NE(a.pairs(), b.pairs());
}

TEST(Generator, RatesArePositive) {
  GeneratorConfig cfg;
  cfg.num_vms = 200;
  auto tm = generate_traffic(cfg);
  for (const auto& [u, v, r] : tm.pairs()) {
    (void)u;
    (void)v;
    EXPECT_GT(r, 0.0);
  }
}

TEST(Generator, MatrixIsSparse) {
  GeneratorConfig cfg;
  cfg.num_vms = 256;
  auto tm = generate_traffic(cfg);
  const double max_pairs = 256.0 * 255.0 / 2.0;
  // Paper: "the TM is sparse"; typical VM degree is a handful of peers.
  EXPECT_LT(static_cast<double>(tm.num_pairs()) / max_pairs, 0.06);
  EXPECT_GT(tm.num_pairs(), 100u);
}

TEST(Generator, MostVmsCommunicate) {
  GeneratorConfig cfg;
  cfg.num_vms = 256;
  auto tm = generate_traffic(cfg);
  std::size_t connected = 0;
  for (VmId u = 0; u < tm.num_vms(); ++u) {
    if (!tm.neighbors(u).empty()) ++connected;
  }
  EXPECT_GT(connected, 200u);
}

TEST(Generator, LongTailByteShare) {
  GeneratorConfig cfg;
  cfg.num_vms = 512;
  auto tm = generate_traffic(cfg);
  // Paper §V-C: "most bytes are transferred ... in a relatively small set of
  // very large flows (elephants)". Top 10% of pairs must carry >60% of bytes.
  EXPECT_GT(top_pair_byte_share(tm, 0.10), 0.6);
  // And the bottom 90% still carries something (mice exist).
  EXPECT_LT(top_pair_byte_share(tm, 0.10), 1.0);
}

TEST(Generator, IntensityScalesLinearly) {
  GeneratorConfig cfg;
  cfg.num_vms = 128;
  auto sparse = generate_traffic(cfg, Intensity::kSparse);
  auto medium = generate_traffic(cfg, Intensity::kMedium);
  auto dense = generate_traffic(cfg, Intensity::kDense);
  EXPECT_EQ(sparse.num_pairs(), medium.num_pairs());
  EXPECT_EQ(sparse.num_pairs(), dense.num_pairs());
  EXPECT_NEAR(medium.total_load() / sparse.total_load(), 10.0, 1e-9);
  EXPECT_NEAR(dense.total_load() / sparse.total_load(), 50.0, 1e-9);
}

TEST(Generator, IntensityScaleFactors) {
  EXPECT_DOUBLE_EQ(intensity_scale(Intensity::kSparse), 1.0);
  EXPECT_DOUBLE_EQ(intensity_scale(Intensity::kMedium), 10.0);
  EXPECT_DOUBLE_EQ(intensity_scale(Intensity::kDense), 50.0);
}

TEST(Generator, RejectsTinyFleet) {
  GeneratorConfig cfg;
  cfg.num_vms = 1;
  EXPECT_THROW(generate_traffic(cfg), std::invalid_argument);
}

TEST(Generator, ServiceStructureCreatesClusters) {
  GeneratorConfig cfg;
  cfg.num_vms = 256;
  cfg.cross_service_prob = 0.0;
  auto tm = generate_traffic(cfg);
  // With no cross-service chatter every VM's neighbourhood is bounded by its
  // service size (well below the fleet).
  for (VmId u = 0; u < tm.num_vms(); ++u) {
    EXPECT_LT(tm.neighbors(u).size(), 2 * cfg.mean_service_size);
  }
}

}  // namespace
