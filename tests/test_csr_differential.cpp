// traffic/traffic_matrix differential fuzz: the row arena (each row a
// slice with its own slack; rows that outgrow it move to the arena's end or
// grow in place there; compaction re-packs the rows) against a straight
// per-VM-vector reference implementing the documented iteration-order
// contract (in-place overwrite keeps position, erase preserves survivor
// order, inserts append at the row tail). Random apply() streams — flow up,
// drop-to-zero, rate jitter, absolute-rate moves, whole-matrix rescales as
// per-pair deltas — must leave the two bit-identical at every step:
// neighbors() sequences, pairs(), rate(), num_pairs(), and the per-row
// total_load() fold. Row growth, moves and compaction must be invisible to
// all of it, and a bound CachedCostModel must fold the whole stream without
// a single rebuild. The one-pass list constructor must equal applying its
// list to an empty reference, and scaled(f) must equal multiplying every
// slot by f in place.
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

// What one apply() did to the arena, read from the public diagnostics when
// at most one row, holding `degree` >= 2 entries, can outgrow its slots. A
// row that moves copies all its entries past the arena's used end, which
// then jumps by more than the degree; a full row growing in place at the
// end adds half its capacity (at least 2 slots), which is at most that.
enum class Growth { kNone, kInPlace, kMoved, kCompacted };

struct ArenaMark {
  explicit ArenaMark(const TrafficMatrix& tm)
      : used(tm.csr_entries()), compactions(tm.compactions()) {}
  Growth since(const TrafficMatrix& tm, std::size_t degree) const {
    if (tm.compactions() != compactions) return Growth::kCompacted;
    const std::size_t jump = tm.csr_entries() - used;
    if (jump == 0) return Growth::kNone;
    return jump > degree ? Growth::kMoved : Growth::kInPlace;
  }
  std::size_t used;
  std::uint64_t compactions;
};

// Every announcement, in order, to check that the fold makes exactly one
// per effective change with the exact old and new rates.
class RecordingObserver final : public score::traffic::TrafficObserver {
 public:
  using Change = std::tuple<VmId, VmId, double, double>;
  void on_rate_change(VmId u, VmId v, double old_rate,
                      double new_rate) override {
    changes.emplace_back(u, v, old_rate, new_rate);
  }
  void on_bulk_update() override { ++bulk_updates; }
  void on_matrix_destroyed() override {}

  std::vector<Change> changes;
  std::size_t bulk_updates = 0;
};

// A short random stream (flow up, drop to zero, signed jitter) on both
// sides, then a bit-for-bit comparison.
void churn(TrafficMatrix& tm, RefMatrix& ref, std::uint64_t seed) {
  score::util::Rng rng(seed);
  const std::size_t n = tm.num_vms();
  for (std::size_t op = 0; op < 200; ++op) {
    const auto u = static_cast<VmId>(rng.index(n));
    auto v = static_cast<VmId>(rng.index(n));
    if (u == v) v = static_cast<VmId>((v + 1) % n);
    const double draw = rng.uniform();
    double d = 0.0;
    if (draw < 0.5) {
      d = rng.lognormal(0.0, 1.0);  // flow up
    } else if (draw < 0.75) {
      d = -ref.rate(u, v);  // drop to zero; a no-op when absent
    } else {
      d = rng.normal(0.0, 0.8);  // signed jitter
    }
    tm.apply(FlowDelta{u, v, d});
    ref.apply(FlowDelta{u, v, d});
  }
  expect_identical(tm, ref, seed);
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
        // erase path runs on a live entry. On an absent pair the negative
        // delta clamps to a no-op.
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

  // scaled() on a layout with row slack and a moved row: empty VM 0's row
  // (its slots become slack), then give it new peers until it outgrows its
  // slots twice. The copy has no headroom, so the first time compacts; the
  // second time the row moves to the arena's end and leaves its old region
  // behind. Each peer takes one new pair, which the slack every row gets
  // from the compaction holds, so row 0 is the only row that can grow.
  TrafficMatrix grown = tm;
  RefMatrix grown_ref = ref;
  const std::vector<std::pair<VmId, double>> row0 = ref.row(0);
  for (const auto& [v, r] : row0) {
    grown.apply(FlowDelta{0, v, -r});
    grown_ref.apply(FlowDelta{0, v, -r});
  }
  ASSERT_GT(grown.overflow_entries(), 0u);  // row slack
  bool moved = false;
  for (VmId p = 1; p < kNumVms && !moved; ++p) {
    const ArenaMark mark(grown);
    const std::size_t degree = grown_ref.row(0).size();
    grown.apply(FlowDelta{0, p, 2.5});
    grown_ref.apply(FlowDelta{0, p, 2.5});
    moved = grown.compactions() > tm.compactions() &&
            mark.since(grown, degree) == Growth::kMoved;
  }
  ASSERT_TRUE(moved);  // a moved row: its old region is garbage
  for (const double f : {50.0, 0.1, 0.0}) {
    RefMatrix scaled_ref = grown_ref;
    scaled_ref.scale_in_place(f);
    expect_identical(grown.scaled(f), scaled_ref, kTicks);
  }
}

TEST(CsrDifferential, RowArenaBoundariesStayBitIdenticalToReference) {
  // Walks each boundary of the row arena in turn, against the reference at
  // every step, with a bound cache and a recorder on the matrix throughout:
  // the last row growing in place, rows outgrowing their slots again and
  // again and moving, erases at the first, middle and last slot of a moved
  // row, copies of an arena holding slack and garbage, and a compaction in
  // the middle of apply(batch).
  constexpr std::size_t kNumVms = 120;
  const VmId last = kNumVms - 1;
  score::util::Rng rng(4242);

  // A list-built start: every row full, no headroom.
  FlowDeltaBatch flows;
  RefMatrix ref(kNumVms);
  for (std::size_t i = 0; i < 2 * kNumVms; ++i) {
    const auto u = static_cast<VmId>(rng.index(kNumVms));
    auto v = static_cast<VmId>(rng.index(kNumVms));
    if (u == v) v = static_cast<VmId>((v + 1) % kNumVms);
    const double r = rng.lognormal(0.0, 1.0);
    flows.push(u, v, r);
    ref.apply(FlowDelta{u, v, r});
  }
  RecordingObserver recorder;
  TrafficMatrix tm(kNumVms, flows);
  expect_identical(tm, ref, 0);
  ASSERT_EQ(tm.overflow_entries(), 0u);

  CanonicalTree topo(tiny_tree_config());
  LinkWeights weights = LinkWeights::exponential(3);
  CachedCostModel cached(topo, weights);
  CostModel brute(topo, weights);
  score::util::Rng place_rng(5);
  auto alloc = random_allocation(topo, kNumVms, place_rng);
  cached.bind(alloc, tm);
  tm.add_observer(&recorder);
  const std::uint64_t rebuilds_at_bind = cached.rebuilds();

  // Folds d into the reference and logs the announcement it must cause.
  std::vector<RecordingObserver::Change> expected;
  auto fold_ref = [&](const FlowDelta& d) {
    const double old_rate = ref.rate(d.u, d.v);
    ref.apply(d);
    const double new_rate = ref.rate(d.u, d.v);
    if (new_rate != old_rate) {
      expected.emplace_back(d.u, d.v, old_rate, new_rate);
    }
  };
  // Applies d to both sides and reports what it did to the arena when
  // `grower` is the only row that can outgrow its slots.
  std::size_t step = 0;
  auto apply = [&](const FlowDelta& d, VmId grower) {
    const ArenaMark mark(tm);
    const std::size_t degree = ref.row(grower).size();
    tm.apply(d);
    fold_ref(d);
    expect_identical(tm, ref, ++step);
    return mark.since(tm, degree);
  };

  // Hubs take new pairs with peers that have a free slot: after a
  // compaction every row has one, and a peer loses it to its new pair. So
  // the hub is the only row that can outgrow its slots.
  std::vector<bool> has_slot(kNumVms, false);
  std::uint64_t compactions_seen = tm.compactions();
  auto is_hub = [&](VmId p) { return p == 0 || p == 1 || p == last; };
  auto add_peer = [&](VmId hub) {
    VmId p = 0;
    while (p < kNumVms &&
           (is_hub(p) || ref.rate(hub, p) > 0.0 ||
            (!has_slot[p] && compactions_seen > 0))) {
      ++p;
    }
    EXPECT_LT(p, kNumVms) << "hub " << hub << " ran out of peers";
    if (p >= kNumVms) return Growth::kNone;
    const Growth g = apply(FlowDelta{hub, p, 0.5 + rng.uniform()}, hub);
    if (tm.compactions() != compactions_seen) {
      compactions_seen = tm.compactions();
      std::fill(has_slot.begin(), has_slot.end(), true);
    }
    has_slot[p] = false;
    return g;
  };

  // 1. The first new pair compacts the list-built arena, which has no
  //    headroom. The last row in VM order is then the arena's last region,
  //    and grows in place.
  ASSERT_EQ(add_peer(last), Growth::kCompacted);
  std::size_t in_place = 0;
  for (std::size_t guard = 0; guard < 100 && in_place < 3; ++guard) {
    const Growth g = add_peer(last);
    ASSERT_NE(g, Growth::kMoved) << "the last region grows in place";
    if (g == Growth::kInPlace) ++in_place;
  }
  ASSERT_EQ(in_place, 3u);

  // 2. Two hubs take peers in turn, so each outgrows its slots again and
  //    again. A hub that does not hold the arena's last region moves there;
  //    one that holds it grows in place; compaction hands it back to the
  //    last row in VM order. Right after hub 0 first moves, erase its
  //    middle, first and last slot.
  VmId tail = last;
  std::size_t moves[2] = {0, 0};
  bool erased = false;
  bool garbage = false;  // a row moved since the last compaction
  for (std::size_t turn = 0; turn < 400 && (moves[0] < 3 || moves[1] < 3);
       ++turn) {
    const VmId hub = static_cast<VmId>(turn % 2);
    const Growth g = add_peer(hub);
    if (g == Growth::kCompacted) {
      tail = last;
      garbage = false;
    } else if (g != Growth::kNone) {
      ASSERT_EQ(g, hub == tail ? Growth::kInPlace : Growth::kMoved)
          << "turn " << turn;
      tail = hub;
    }
    if (g != Growth::kMoved) continue;
    ++moves[hub];
    garbage = true;
    if (hub != 0 || erased) continue;
    erased = true;
    const auto& row = ref.row(0);
    const VmId middle = row[row.size() / 2].first;
    const VmId first = row.front().first;
    const VmId back = row.back().first;
    for (const VmId p : {middle, first, back}) {
      ASSERT_EQ(apply(FlowDelta{0, p, -ref.rate(0, p)}, 0), Growth::kNone);
      has_slot[p] = true;  // the erase freed one
    }
  }
  ASSERT_GE(moves[0], 3u);
  ASSERT_GE(moves[1], 3u);
  ASSERT_TRUE(erased);
  for (std::size_t turn = 0; turn < 40 && !garbage; ++turn) {
    garbage = add_peer(static_cast<VmId>(turn % 2)) == Growth::kMoved;
  }
  ASSERT_TRUE(garbage);

  // 3. Copies of an arena holding slack and garbage read identically and
  //    keep folding correctly; none of them touches tm or its observers.
  ASSERT_GT(tm.overflow_entries(), 0u);
  {
    TrafficMatrix copy(tm);
    EXPECT_EQ(copy.csr_entries(), tm.csr_entries());
    EXPECT_EQ(copy.overflow_entries(), tm.overflow_entries());
    RefMatrix copy_ref = ref;
    expect_identical(copy, copy_ref, 1000);
    churn(copy, copy_ref, 1001);

    TrafficMatrix source(tm);
    TrafficMatrix moved(std::move(source));
    EXPECT_EQ(source.num_vms(), 0u);
    EXPECT_EQ(source.num_pairs(), 0u);
    RefMatrix moved_ref = ref;
    expect_identical(moved, moved_ref, 1002);
    churn(moved, moved_ref, 1003);

    RecordingObserver bulk;
    TrafficMatrix assigned(4);
    assigned.add_observer(&bulk);
    assigned = tm;
    EXPECT_EQ(bulk.bulk_updates, 1u);
    RefMatrix assigned_ref = ref;
    expect_identical(assigned, assigned_ref, 1004);
    churn(assigned, assigned_ref, 1005);
    assigned = TrafficMatrix(tm);
    EXPECT_EQ(bulk.bulk_updates, 2u);
    assigned_ref = ref;
    expect_identical(assigned, assigned_ref, 1006);
    churn(assigned, assigned_ref, 1007);

    for (const double f : {50.0, 0.1, 0.0}) {
      TrafficMatrix scaled = tm.scaled(f);
      RefMatrix scaled_ref = ref;
      scaled_ref.scale_in_place(f);
      expect_identical(scaled, scaled_ref, 1008);
      churn(scaled, scaled_ref, 1009);
    }
  }
  expect_identical(tm, ref, ++step);

  // 4. One batch: rate changes and no-ops, which cannot grow a row; then
  //    new pairs at random, enough to exhaust the headroom and compact;
  //    then erases, no-ops and jitter after the compaction.
  FlowDeltaBatch batch;
  const auto existing = ref.pairs();
  for (std::size_t i = 0; i < 20; ++i) {
    const auto& [u, v, r] = existing[i * existing.size() / 20];
    batch.push(u, v, 0.25 * r);
  }
  batch.push(2, 3, 0.0);
  batch.push(2, 3, -ref.rate(2, 3) - 1.0);  // clamps: erases, or a no-op
  for (std::size_t i = 0; i < 6 * kNumVms; ++i) {
    const auto u = static_cast<VmId>(rng.index(kNumVms));
    auto v = static_cast<VmId>(rng.index(kNumVms));
    if (u == v) v = static_cast<VmId>((v + 1) % kNumVms);
    batch.push(u, v, rng.lognormal(0.0, 1.0));
  }
  for (std::size_t i = 0; i < 20; ++i) {
    const auto& [u, v, r] = existing[i * existing.size() / 20];
    batch.push(u, v, i % 2 == 0 ? -1e9 : rng.normal(0.0, 0.8));
    batch.push(v, u, 0.0);
  }
  const std::uint64_t compactions_before = tm.compactions();
  const std::size_t expected_before = expected.size();
  tm.apply(batch);
  for (const FlowDelta& d : batch) fold_ref(d);
  expect_identical(tm, ref, ++step);
  EXPECT_GT(tm.compactions(), compactions_before);
  EXPECT_LT(expected.size() - expected_before, batch.size());  // no-ops

  // One announcement per effective change, in order, with exact rates; no
  // bulk update and no rebuild anywhere.
  EXPECT_EQ(recorder.changes, expected);
  EXPECT_EQ(recorder.bulk_updates, 0u);
  EXPECT_EQ(cached.rebuilds(), rebuilds_at_bind);
  const double b = brute.total_cost(alloc, tm);
  EXPECT_NEAR(cached.total_cost(alloc, tm), b, 1e-7 * (1.0 + std::abs(b)));
}

// apply(batch) once checked each delta just before folding it, so a batch
// rejected at its last slot had already committed, versioned and announced
// every delta before it.
TEST(CsrDifferential, RejectedBatchLeavesMatrixVersionAndObserversUntouched) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const FlowDelta& bad : {FlowDelta{0, 4, 1.0}, FlowDelta{0, 3, nan}}) {
    RecordingObserver seen;
    TrafficMatrix tm(4);
    tm.add_observer(&seen);
    FlowDeltaBatch batch{{0, 1, 1.0}, {2, 3, 2.0}};
    batch.push(bad);
    if (std::isnan(bad.delta)) {
      EXPECT_THROW(tm.apply(batch), std::invalid_argument);
    } else {
      EXPECT_THROW(tm.apply(batch), std::out_of_range);
    }
    EXPECT_EQ(tm.num_pairs(), 0u);
    EXPECT_EQ(tm.version(), 0u);
    EXPECT_TRUE(seen.changes.empty());

    // The valid part still applies as usual.
    tm.apply(FlowDeltaBatch{{0, 1, 1.0}, {2, 3, 2.0}});
    EXPECT_EQ(tm.num_pairs(), 2u);
    EXPECT_EQ(tm.version(), 2u);
    EXPECT_EQ(seen.changes.size(), 2u);
  }
}

TEST(CsrDifferential, EraseHeavyStreamNeverResurrectsErasedFlows) {
  // Adversarial pattern for erase and re-append: repeatedly fill a hub VM's
  // row, then erase every other entry, then refill — the worst case for
  // sliding erases and for peers that come back at the row's end.
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
