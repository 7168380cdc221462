// traffic/traffic_matrix CSR differential fuzz: the compact CSR +
// overflow-side-buffer layout against a straight per-VM-vector reference
// implementing the documented iteration-order contract (in-place overwrite
// keeps position, erase preserves survivor order, inserts append at the row
// tail). Random apply() streams — flow up, drop-to-zero, rate jitter,
// absolute-rate moves, whole-matrix rescales as per-pair deltas — must leave
// the two bit-identical at every step: neighbors() sequences, pairs(),
// rate(), num_pairs(), and the per-row total_load() fold. Compaction
// (tombstone/overflow repacking) must be invisible to all of it, and a bound
// CachedCostModel must fold the whole stream without a single rebuild.
// The one-pass list constructor must equal applying its list to an empty
// reference, and scaled(f) must equal multiplying every slot by f in place.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cached_cost_model.hpp"
#include "core/cost_model.hpp"
#include "helpers.hpp"
#include "traffic/flow_delta.hpp"
#include "traffic/traffic_matrix.hpp"

namespace {

using score::core::CachedCostModel;
using score::core::CostModel;
using score::core::LinkWeights;
using score::testing::random_allocation;
using score::testing::tiny_tree_config;
using score::topo::CanonicalTree;
using score::traffic::FlowDelta;
using score::traffic::FlowDeltaBatch;
using score::traffic::TrafficMatrix;
using score::traffic::VmId;

// The pre-CSR storage, kept as the executable spec of iteration order and
// arithmetic: one vector of (peer, rate) per VM, symmetric rows.
class RefMatrix {
 public:
  explicit RefMatrix(std::size_t num_vms) : rows_(num_vms) {}

  double rate(VmId u, VmId v) const {
    for (const auto& [peer, r] : rows_[u]) {
      if (peer == v) return r;
    }
    return 0.0;
  }

  void commit(VmId u, VmId v, double new_rate) {
    if (new_rate < 0.0) new_rate = 0.0;
    const double old = directed(u, v, new_rate);
    if (old == new_rate) return;
    directed(v, u, new_rate);
  }

  void apply(const FlowDelta& d) {
    if (d.delta == 0.0) return;
    commit(d.u, d.v, rate(d.u, d.v) + d.delta);
  }

  /// r *= factor in every slot; a zero product erases the entry.
  void scale_in_place(double factor) {
    for (auto& row : rows_) {
      for (auto& entry : row) entry.second *= factor;
      std::erase_if(row, [](const auto& entry) { return entry.second <= 0.0; });
    }
  }

  const std::vector<std::pair<VmId, double>>& row(VmId u) const {
    return rows_[u];
  }

  std::vector<std::tuple<VmId, VmId, double>> pairs() const {
    std::vector<std::tuple<VmId, VmId, double>> out;
    for (VmId u = 0; u < rows_.size(); ++u) {
      for (const auto& [v, r] : rows_[u]) {
        if (u < v) out.emplace_back(u, v, r);
      }
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) {
                return std::make_pair(std::get<0>(a), std::get<1>(a)) <
                       std::make_pair(std::get<0>(b), std::get<1>(b));
              });
    return out;
  }

  double total_load() const {
    double total = 0.0;
    for (const auto& row : rows_) {
      for (const auto& [peer, r] : row) {
        (void)peer;
        total += r;
      }
    }
    return total / 2.0;
  }

 private:
  double directed(VmId u, VmId v, double new_rate) {
    auto& row = rows_[u];
    for (auto it = row.begin(); it != row.end(); ++it) {
      if (it->first == v) {
        const double old = it->second;
        if (new_rate <= 0.0) {
          row.erase(it);  // survivors keep their relative order
        } else {
          it->second = new_rate;  // overwrite in place keeps position
        }
        return old;
      }
    }
    if (new_rate > 0.0) row.emplace_back(v, new_rate);  // append at tail
    return 0.0;
  }

  std::vector<std::vector<std::pair<VmId, double>>> rows_;
};

// Every row, in order, bit for bit. EXPECT_EQ on doubles is deliberate:
// the CSR layout claims *identical* arithmetic, not merely close.
void expect_identical(const TrafficMatrix& tm, const RefMatrix& ref,
                      std::size_t tick) {
  for (VmId u = 0; u < tm.num_vms(); ++u) {
    const auto& expect = ref.row(u);
    std::vector<std::pair<VmId, double>> got;
    for (const auto& [v, r] : tm.neighbors(u)) got.emplace_back(v, r);
    ASSERT_EQ(got.size(), expect.size()) << "tick " << tick << " vm " << u;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, expect[i].first)
          << "tick " << tick << " vm " << u << " slot " << i;
      ASSERT_EQ(got[i].second, expect[i].second)
          << "tick " << tick << " vm " << u << " slot " << i;
    }
    // for_each_neighbor (the hot-loop twin) must walk the same sequence.
    std::vector<std::pair<VmId, double>> walked;
    tm.for_each_neighbor(u, [&](VmId v, double r) { walked.emplace_back(v, r); });
    ASSERT_EQ(walked, got) << "tick " << tick << " vm " << u;
  }
  const auto tm_pairs = tm.pairs();
  const auto ref_pairs = ref.pairs();
  ASSERT_EQ(tm_pairs, ref_pairs) << "tick " << tick;
  ASSERT_EQ(tm.num_pairs(), ref_pairs.size()) << "tick " << tick;
  ASSERT_EQ(tm.total_load(), ref.total_load()) << "tick " << tick;
}

TEST(CsrDifferential, RandomDeltaStreamStaysBitIdenticalToReference) {
  constexpr std::size_t kNumVms = 40;
  constexpr std::size_t kTicks = 50;
  constexpr std::size_t kOpsPerTick = 48;

  TrafficMatrix tm(kNumVms);
  RefMatrix ref(kNumVms);

  // Bound cache: the whole stream must fold through the observer seam.
  CanonicalTree topo(tiny_tree_config());
  LinkWeights weights = LinkWeights::exponential(3);
  CachedCostModel cached(topo, weights);
  CostModel brute(topo, weights);
  score::util::Rng place_rng(11);
  auto alloc = random_allocation(topo, kNumVms, place_rng);
  cached.bind(alloc, tm);
  const std::uint64_t rebuilds_at_bind = cached.rebuilds();

  score::util::Rng rng(2024);
  // Track live pairs so drop-to-zero can retract an existing flow exactly.
  auto pick_pair = [&](VmId& u, VmId& v) {
    u = static_cast<VmId>(rng.index(kNumVms));
    v = static_cast<VmId>(rng.index(kNumVms));
    if (u == v) v = (v + 1) % kNumVms;
  };

  for (std::size_t tick = 0; tick < kTicks; ++tick) {
    for (std::size_t op = 0; op < kOpsPerTick; ++op) {
      const double draw = rng.uniform();
      VmId u, v;
      pick_pair(u, v);
      if (draw < 0.35) {
        // Flow up (or additive bump of an existing flow).
        const double r = rng.lognormal(0.0, 1.0);
        tm.apply(FlowDelta{u, v, r});
        ref.apply(FlowDelta{u, v, r});
      } else if (draw < 0.60) {
        // Drop to exactly zero: retract the current rate as a delta so the
        // tombstone/erase path runs on a live entry (no-op when absent).
        // On an absent pair the negative delta clamps to a no-op.
        const double r = tm.rate(u, v);
        const double d = r > 0.0 ? -r : -1.0;
        tm.apply(FlowDelta{u, v, d});
        ref.apply(FlowDelta{u, v, d});
      } else if (draw < 0.95) {
        // Rate jitter, signed: exercises overwrite-in-place and the
        // clamp-to-zero path when the delta overshoots.
        const double d = rng.normal(0.0, 0.8);
        tm.apply(FlowDelta{u, v, d});
        ref.apply(FlowDelta{u, v, d});
      } else {
        // Move to a fresh absolute rate (zero removes the pair).
        const double d = rng.uniform() * 3.0 - tm.rate(u, v);
        tm.apply(FlowDelta{u, v, d});
        ref.apply(FlowDelta{u, v, d});
      }
    }
    // Occasional whole-matrix rescale, one delta per pair in sorted-pair
    // order, so the bound cache folds it.
    if (tick % 16 == 9) {
      for (const auto& [u, v, r] : tm.pairs()) {
        tm.apply(FlowDelta{u, v, r * 1.25 - r});
        ref.apply(FlowDelta{u, v, r * 1.25 - r});
      }
    }
    expect_identical(tm, ref, tick);

    // The cached Eq. (2) total tracks brute force on the live matrix (and
    // under SCORE_CHECK_CACHE every fold above already self-verified).
    const double b = brute.total_cost(alloc, tm);
    EXPECT_NEAR(cached.total_cost(alloc, tm), b, 1e-7 * (1.0 + std::abs(b)))
        << "tick " << tick;
  }

  // The churn rate above must have crossed the compaction trigger — the
  // boundary this fuzz exists to walk — and folded with zero rebuilds.
  EXPECT_GT(tm.compactions(), 0u);
  EXPECT_EQ(cached.rebuilds(), rebuilds_at_bind);

  // Copies preserve the packed layout bit for bit: same iteration order,
  // same Eq. (2) fold.
  const TrafficMatrix copy = tm;
  for (VmId u = 0; u < tm.num_vms(); ++u) {
    std::vector<std::pair<VmId, double>> a, b;
    for (const auto& [peer, r] : tm.neighbors(u)) a.emplace_back(peer, r);
    for (const auto& [peer, r] : copy.neighbors(u)) b.emplace_back(peer, r);
    ASSERT_EQ(a, b) << "vm " << u;
  }
  EXPECT_EQ(brute.total_cost(alloc, tm), brute.total_cost(alloc, copy));

  // scaled() on a layout with live tombstones and an overflow chain: empty
  // VM 0's row, then give it one new peer.
  TrafficMatrix grown = tm;
  RefMatrix grown_ref = ref;
  const std::vector<std::pair<VmId, double>> row0 = ref.row(0);
  for (const auto& [v, r] : row0) {
    grown.apply(FlowDelta{0, v, -r});
    grown_ref.apply(FlowDelta{0, v, -r});
  }
  grown.apply(FlowDelta{0, 1, 2.5});
  grown_ref.apply(FlowDelta{0, 1, 2.5});
  ASSERT_GT(grown.overflow_entries(), 0u);
  for (const double f : {50.0, 0.1, 0.0}) {
    RefMatrix scaled_ref = grown_ref;
    scaled_ref.scale_in_place(f);
    expect_identical(grown.scaled(f), scaled_ref, kTicks);
  }
}

TEST(CsrDifferential, TombstoneHeavyStreamNeverResurrectsErasedFlows) {
  // Adversarial pattern for the tombstone/overflow machinery: repeatedly
  // fill a hub VM's row, then erase every other entry, then refill — the
  // worst case for dead-slot handling and chain iteration.
  constexpr std::size_t kNumVms = 24;
  TrafficMatrix tm(kNumVms);
  RefMatrix ref(kNumVms);
  score::util::Rng rng(7);

  for (std::size_t round = 0; round < 30; ++round) {
    const VmId hub = static_cast<VmId>(round % 3);
    for (VmId v = 0; v < kNumVms; ++v) {
      if (v == hub) continue;
      const double d = 1.0 + rng.uniform() - tm.rate(hub, v);
      tm.apply(FlowDelta{hub, v, d});
      ref.apply(FlowDelta{hub, v, d});
    }
    std::size_t i = 0;
    for (VmId v = 0; v < kNumVms; ++v) {
      if (v == hub) continue;
      if (i++ % 2 == round % 2) {
        const double d = -tm.rate(hub, v);
        tm.apply(FlowDelta{hub, v, d});
        ref.apply(FlowDelta{hub, v, d});
      }
    }
    expect_identical(tm, ref, round);
  }
  EXPECT_GT(tm.compactions(), 0u);
}

TEST(CsrDifferential, ListBuildEqualsApplyingTheListToAnEmptyMatrix) {
  score::util::Rng rng(31);
  for (const std::size_t n : {2u, 3u, 7u, 40u, 257u}) {
    for (std::size_t trial = 0; trial < 20; ++trial) {
      FlowDeltaBatch flows;
      RefMatrix ref(n);
      const std::size_t len = rng.index(6 * n + 1);
      for (std::size_t i = 0; i < len; ++i) {
        auto u = static_cast<VmId>(rng.index(n));
        auto v = static_cast<VmId>(rng.index(n));
        if (u == v) v = static_cast<VmId>((v + 1) % n);
        const double draw = rng.uniform();
        if (draw < 0.4 && !flows.empty()) {
          // Repeat an earlier pair, in either orientation.
          const FlowDelta& earlier = flows[rng.index(flows.size())];
          u = earlier.u;
          v = earlier.v;
          if (rng.chance(0.5)) std::swap(u, v);
        }
        // Zero rates never fix a pair's position.
        const double r = rng.chance(0.15) ? 0.0 : rng.lognormal(0.0, 1.0);
        flows.push(u, v, r);
        ref.apply(FlowDelta{u, v, r});
      }
      const TrafficMatrix tm(n, flows);
      expect_identical(tm, ref, trial);
      EXPECT_EQ(tm.overflow_entries(), 0u);
      EXPECT_EQ(tm.csr_entries(), 2 * tm.num_pairs());  // squeezed
      EXPECT_EQ(tm.compactions(), 0u);

      for (const double f : {10.0, 50.0, 0.3, 0.0}) {
        RefMatrix scaled_ref = ref;
        scaled_ref.scale_in_place(f);
        expect_identical(tm.scaled(f), scaled_ref, trial);
      }
    }
  }
}

TEST(CsrDifferential, ListBuildAndApplyRejectTheSameMalformedEntries) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<FlowDelta> bad_range = {{0, 4, 1.0}, {4, 0, 1.0},
                                            {7, 9, 1.0}};
  const std::vector<FlowDelta> bad_value = {
      {1, 1, 1.0}, {0, 1, nan}, {0, 1, inf}, {0, 1, -inf}};
  for (const FlowDelta& bad : bad_range) {
    FlowDeltaBatch flows{{0, 1, 1.0}, {2, 3, 2.0}};
    flows.push(bad);
    EXPECT_THROW(TrafficMatrix(4, flows), std::out_of_range);
    TrafficMatrix tm(4);
    EXPECT_THROW(tm.apply(bad), std::out_of_range);
  }
  for (const FlowDelta& bad : bad_value) {
    FlowDeltaBatch flows{{0, 1, 1.0}, {2, 3, 2.0}};
    flows.push(bad);
    EXPECT_THROW(TrafficMatrix(4, flows), std::invalid_argument);
    TrafficMatrix tm(4);
    EXPECT_THROW(tm.apply(bad), std::invalid_argument);
  }
  // A negative rate is a valid delta but not a valid list entry.
  EXPECT_THROW(TrafficMatrix(4, {{0, 1, 1.0}, {0, 1, -0.5}}),
               std::invalid_argument);
}

}  // namespace
