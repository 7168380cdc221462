// util/exec_policy: parsing, thread resolution, and the for_each_shard
// execution contract (coverage, ordering, exception propagation).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/exec_policy.hpp"

namespace {

using score::util::ExecPolicy;
using score::util::for_each_shard;

TEST(ExecPolicy, DefaultsAndFactories) {
  EXPECT_FALSE(ExecPolicy{}.parallel());
  EXPECT_FALSE(ExecPolicy::seq().parallel());
  EXPECT_TRUE(ExecPolicy::par().parallel());
  EXPECT_EQ(ExecPolicy::par().requested_threads(), 0u);
  EXPECT_EQ(ExecPolicy::par(4).requested_threads(), 4u);
  EXPECT_EQ(ExecPolicy::seq(), ExecPolicy{});
  EXPECT_NE(ExecPolicy::par(2), ExecPolicy::par(3));
}

TEST(ExecPolicy, Names) {
  EXPECT_EQ(ExecPolicy::seq().name(), "seq");
  EXPECT_EQ(ExecPolicy::par().name(), "par(auto)");
  EXPECT_EQ(ExecPolicy::par(8).name(), "par(8)");
}

TEST(ExecPolicy, ParseRoundTrips) {
  for (const ExecPolicy p :
       {ExecPolicy::seq(), ExecPolicy::par(), ExecPolicy::par(1), ExecPolicy::par(16)}) {
    EXPECT_EQ(ExecPolicy::parse(p.name()), p) << p.name();
  }
  EXPECT_EQ(ExecPolicy::parse("par:4"), ExecPolicy::par(4));
  EXPECT_THROW(ExecPolicy::parse(""), std::invalid_argument);
  EXPECT_THROW(ExecPolicy::parse("parallel"), std::invalid_argument);
  EXPECT_THROW(ExecPolicy::parse("par(x)"), std::invalid_argument);
  EXPECT_THROW(ExecPolicy::parse("par(-1)"), std::invalid_argument);
}

TEST(ExecPolicy, ThreadsFor) {
  EXPECT_EQ(ExecPolicy::seq().threads_for(16), 1u);
  EXPECT_EQ(ExecPolicy::par(4).threads_for(16), 4u);
  EXPECT_EQ(ExecPolicy::par(4).threads_for(2), 2u);   // never more workers than jobs
  EXPECT_EQ(ExecPolicy::par(4).threads_for(0), 1u);   // degenerate, still >= 1
  EXPECT_GE(ExecPolicy::par().threads_for(64), 1u);   // auto resolves to something
}

TEST(ForEachShard, SeqRunsAscendingInline) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> seen;
  for_each_shard(ExecPolicy::seq(), 7, [&](std::size_t t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(t);
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(ForEachShard, ParOneMatchesSeqOrder) {
  std::vector<std::size_t> seen;
  for_each_shard(ExecPolicy::par(1), 5, [&](std::size_t t) { seen.push_back(t); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ForEachShard, ParCoversEveryJobExactlyOnce) {
  std::mutex mu;
  std::multiset<std::size_t> seen;
  for_each_shard(ExecPolicy::par(4), 23, [&](std::size_t t) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(t);
  });
  ASSERT_EQ(seen.size(), 23u);
  for (std::size_t t = 0; t < 23; ++t) EXPECT_EQ(seen.count(t), 1u) << t;
}

TEST(ForEachShard, ParUsesMultipleThreads) {
  std::mutex mu;
  std::set<std::thread::id> tids;
  for_each_shard(ExecPolicy::par(4), 8, [&](std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    tids.insert(std::this_thread::get_id());
  });
  EXPECT_GT(tids.size(), 1u);
}

TEST(ForEachShard, ZeroJobsIsANoop) {
  for_each_shard(ExecPolicy::par(4), 0, [&](std::size_t) { FAIL(); });
}

TEST(ForEachShard, ExceptionPropagatesFromWorker) {
  std::atomic<int> ran{0};
  const auto boom = [&](std::size_t t) {
    ++ran;
    if (t == 3) throw std::runtime_error("shard 3 failed");
  };
  EXPECT_THROW(for_each_shard(ExecPolicy::par(2), 6, boom), std::runtime_error);
  EXPECT_THROW(for_each_shard(ExecPolicy::seq(), 6, boom), std::runtime_error);
  EXPECT_GE(ran.load(), 2);
}

}  // namespace
