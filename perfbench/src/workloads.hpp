// The benchmark's four workloads. Each builds its world from the seed,
// times only calls into the libraries' public API, checks every output, and
// reports the end-to-end metrics (plus the per-layer ones when traced).
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown workload.
void run_workload(const Options& opt, Report& report, Checks& checks);

}  // namespace perfbench
