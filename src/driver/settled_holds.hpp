// Settled holds — the Theorem-1 holds a centralized driver may skip.
//
// By Lemma 3 a hold's candidate list and every candidate's delta depend only
// on u's traffic row, u's server and its peers' servers (CandidateBuilder,
// MigrationEngine::evaluate); capacity only chooses among the candidates
// whose delta already exceeds c_m. So once an evaluation of u reports
// !improvable (no candidate above c_m, feasible or not), every later hold of
// u against a view in which neither u nor any peer has moved returns the
// same "stay". Such a VM is *settled*: its hold skips evaluate and acts as a
// no-migrate hold (the drivers charge it the same hold time and hop latency
// and count it the same). A driver unsettles a VM and all its peers wherever
// that VM moves in a view that some later hold is judged against.
//
// One byte per VM, never vector<bool>: par(n) shard walks write the flags of
// neighbouring VMs concurrently, each job only inside its own VM range.
// Flags live for one driver run(): the matrix may change between runs.
//
// Under -DSCORE_CHECK_CACHE every skipped hold is evaluated anyway, against
// the same view, and must still be !improvable; otherwise std::logic_error
// names the driver, the pass and the VM.
#pragma once

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/migration_engine.hpp"

namespace score::driver {

class SettledHolds {
 public:
  explicit SettledHolds(std::size_t num_vms) : settled_(num_vms, 0) {}

  /// The hold of `u` against `view` in 0-based `pass` of `driver`. A settled
  /// VM returns a no-migrate Decision without running Theorem 1; any other
  /// is evaluated, counted in `evaluations`, and settles when !improvable.
  core::Decision hold(const core::MigrationEngine& engine,
                      const core::Allocation& view,
                      const traffic::TrafficMatrix& tm, core::VmId u,
                      std::size_t& evaluations,
                      [[maybe_unused]] const char* driver,
                      [[maybe_unused]] std::size_t pass) {
    if (settled_[u]) {
#ifdef SCORE_CHECK_CACHE
      if (engine.evaluate(view, tm, u).improvable) {
        throw std::logic_error(std::string(driver) + ": pass " +
                               std::to_string(pass) + " skipped vm " +
                               std::to_string(u) +
                               ", whose hold is improvable");
      }
#endif
      return {};
    }
    ++evaluations;
    const core::Decision d = engine.evaluate(view, tm, u);
    if (!d.improvable) settled_[u] = 1;
    return d;
  }

  /// `u` moved: u and its peers within [first, last] are evaluated at their
  /// next hold. A shard walk passes its own range, so it never writes
  /// another shard's flags.
  void unsettle(const traffic::TrafficMatrix& tm, core::VmId u,
                core::VmId first = 0,
                core::VmId last = std::numeric_limits<core::VmId>::max()) {
    settled_[u] = 0;
    tm.for_each_neighbor(u, [&](core::VmId z, double) {
      if (z >= first && z <= last) settled_[z] = 0;
    });
  }

 private:
  std::vector<unsigned char> settled_;
};

}  // namespace score::driver
