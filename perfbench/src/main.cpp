// perfbench — the repository benchmark's binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--perturb CHECK]
//   perfbench --list          (workloads, metric catalogue; JSON)
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. --smoke
// shrinks every world (self-tests); --perturb feeds the named output check a
// perturbed result, so the self-tests can show each check trips.
// Exit status: 0 result printed, 1 internal error, 2 bad usage, 3 --perturb
// named a check this workload never evaluated.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--perturb CHECK] | --list\n";
  return 2;
}

void list() {
  std::cout << "{\"workloads\": [";
  const auto& names = perfbench::workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << names[i] << '"';
  }
  const auto metrics = [](const std::vector<perfbench::MetricSpec>& specs) {
    std::cout << "[";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::cout << (i ? ", " : "") << "{\"name\": \"" << specs[i].name
                << "\", \"unit\": \"" << specs[i].unit << "\"}";
    }
    std::cout << "]";
  };
  std::cout << "], \"end_to_end\": ";
  metrics(perfbench::end_to_end_metrics());
  std::cout << ", \"per_layer\": ";
  metrics(perfbench::per_layer_metrics());
  std::cout << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list();
      return 0;
    }
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = opt.seconds > 0.0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        have_trace = true;
      } else if (arg == "--perturb") {
        opt.perturb = value;
      } else {
        return usage("unknown flag " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }

  try {
    perfbench::Report report;
    perfbench::Checks checks(opt.perturb);
    perfbench::run_workload(opt, report, checks);
    std::cerr << "perfbench: checks evaluated:";
    for (const std::string& c : checks.evaluated()) std::cerr << ' ' << c;
    std::cerr << "\n";
    if (!opt.perturb.empty() && !checks.perturb_seen()) {
      std::cerr << "perfbench: --perturb " << opt.perturb
                << " names no check of workload " << opt.workload << "\n";
      return 3;
    }
    const auto& catalogue = opt.trace ? perfbench::per_layer_metrics()
                                      : perfbench::end_to_end_metrics();
    std::cout << report.json(catalogue, checks.failed() == 0, checks.attempted(),
                             checks.failed())
              << std::endl;
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
