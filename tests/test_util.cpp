// Unit tests for util: deterministic RNG, statistics, histogram, CSV.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
#include <utility>

#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using score::util::CsvWriter;
using score::util::empirical_cdf;
using score::util::Histogram;
using score::util::percentile;
using score::util::Rng;
using score::util::RunningStats;

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, IndexBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(10), 10u);
}

TEST(Rng, UniformRealBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, NormalMeanApproximation) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, NormalMatchesStdDistributionAndAllowsZeroStddev) {
  // Bit-identical to std::normal_distribution(mean, stddev) for stddev > 0:
  // the goldens depend on every draw.
  const std::pair<double, double> cases[] = {
      {0.0, 1.0}, {10.0, 2.0}, {-3.5, 0.3}, {1e6, 1e-3}};
  for (const auto& [mean, stddev] : cases) {
    Rng rng(23);
    std::mt19937_64 engine(23);
    for (int i = 0; i < 1000; ++i) {
      const double expected =
          std::normal_distribution<double>(mean, stddev)(engine);
      ASSERT_EQ(rng.normal(mean, stddev), expected)
          << "mean " << mean << " stddev " << stddev << " draw " << i;
    }
  }
  // stddev 0 is a point mass (std::normal_distribution requires > 0).
  Rng rng(23);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.normal(4.25, 0.0), 4.25);
}

TEST(Rng, ParetoLowerBound) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(5.0, 1.5), 5.0);
}

TEST(Rng, ParetoIsHeavyTailed) {
  Rng rng(13);
  int above10x = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.pareto(1.0, 1.0) > 10.0) ++above10x;
  }
  // P(X > 10) = 1/10 for alpha=1.
  EXPECT_NEAR(static_cast<double>(above10x) / n, 0.1, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> w{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.25);
}

TEST(Rng, WeightedIndexRejectsZeroTotal) {
  Rng rng(1);
  std::vector<double> w{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(w), std::invalid_argument);
}

TEST(RunningStats, MeanAndStddev) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25.0);
}

TEST(Stats, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

TEST(Stats, MeanStddevHelpers) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(score::util::mean(v), 3.0);
  EXPECT_NEAR(score::util::stddev(v), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(score::util::mean({}), 0.0);
  EXPECT_DOUBLE_EQ(score::util::stddev({1.0}), 0.0);
}

TEST(Stats, EmpiricalCdfMonotone) {
  auto cdf = empirical_cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].first, 1.0);
  EXPECT_DOUBLE_EQ(cdf[2].first, 3.0);
  EXPECT_DOUBLE_EQ(cdf[2].second, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
}

TEST(Histogram, BinsAndProbabilities) {
  Histogram h(0.0, 10.0, 5);
  for (double x : {0.5, 1.5, 2.5, 2.6, 9.9}) h.add(x);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);  // 0.5, 1.5
  EXPECT_EQ(h.count(1), 2u);  // 2.5, 2.6
  EXPECT_EQ(h.count(4), 1u);  // 9.9
  EXPECT_DOUBLE_EQ(h.probability(0), 0.4);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 2);
  h.add(-5.0);
  h.add(5.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
}

TEST(Histogram, RejectsDegenerateRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Csv, WritesRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.row(1, 2.5);
  csv.row("x", "y");
  EXPECT_EQ(out.str(), "a,b\n1,2.5\nx,y\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
  EXPECT_EQ(CsvWriter::escape("n\nn"), "\"n\nn\"");
}

}  // namespace
