// Execution-policy abstraction for shard-parallel passes.
//
// Modeled on the policy-selected parallel algorithms of distributed-ranges
// (execution_policy.hpp + for_each/reduce): callers describe *where* work
// runs with a small value type and hand it, together with an indexed job
// set, to a generic driver. Two policies exist:
//
//   * ExecPolicy::seq()  — run jobs inline, ascending index, calling thread.
//   * ExecPolicy::par(n) — run jobs on n std::threads (0 = one per hardware
//     thread). Jobs are dealt to workers in contiguous index blocks and each
//     worker processes its block in ascending order, so par(1) executes the
//     exact sequence seq() does — the determinism tests rely on this.
//
// for_each_shard is the only primitive the codebase needs: shard walks in
// the multi-token driver and the per-shard snapshot resync and
// reconciliation in ShardedCostOracle all reduce to "run fn(t) for every
// shard index t". The callback must touch only state owned by shard t; the
// driver gives no other guarantee.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

namespace score::util {

class ExecPolicy {
 public:
  /// Default: sequential.
  constexpr ExecPolicy() = default;

  static constexpr ExecPolicy seq() { return ExecPolicy{}; }
  /// `n_threads == 0` resolves to std::thread::hardware_concurrency().
  static constexpr ExecPolicy par(std::size_t n_threads = 0) {
    ExecPolicy p;
    p.parallel_ = true;
    p.n_threads_ = n_threads;
    return p;
  }

  bool parallel() const { return parallel_; }
  /// Requested thread count (0 = auto). Meaningful only when parallel().
  std::size_t requested_threads() const { return n_threads_; }
  /// Worker count actually used for `jobs` jobs: min(resolved threads, jobs),
  /// at least 1. seq() always resolves to 1.
  std::size_t threads_for(std::size_t jobs) const;

  /// "seq", "par(4)", "par(auto)" — mirrors parse().
  std::string name() const;
  /// Accepts "seq", "par", "par(auto)", "par(N)" or "par:N". Throws
  /// std::invalid_argument on anything else.
  static ExecPolicy parse(std::string_view spec);

  bool operator==(const ExecPolicy&) const = default;

 private:
  bool parallel_ = false;
  std::size_t n_threads_ = 0;
};

/// Runs fn(0) … fn(jobs-1) under the policy. Sequential policies (and
/// par(1)) call fn in ascending index order on one thread; parallel policies
/// deal contiguous index blocks, sizes differing by at most one, to their
/// workers, each of which runs its block in ascending order. The assignment
/// is a pure function of (policy, jobs), never of thread timing. The first
/// exception thrown by any job is rethrown on the calling thread after all
/// workers join.
void for_each_shard(const ExecPolicy& policy, std::size_t jobs,
                    const std::function<void(std::size_t)>& fn);

}  // namespace score::util
