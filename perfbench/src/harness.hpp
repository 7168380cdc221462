// Measurement harness shared by every workload: the metric catalogue, the
// result report and its JSON line, output checks that fail loudly, and the
// small timing/statistics helpers the workloads and probes use.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Wall time of one call, in seconds.
template <class F>
double time_s(F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  return seconds_since(start);
}

double median(std::vector<double> samples);

/// Peak resident set of this process in bytes, 0 if unavailable.
std::uint64_t peak_rss_bytes();

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  /// Shrunken worlds for the self-tests: same code paths, same metrics.
  bool smoke = false;
  /// Self-test hook: the named output check is fed a perturbed result.
  std::string perturb;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics printed with --trace 0 (every workload emits all of them).
const std::vector<MetricSpec>& end_to_end_metrics();
/// Metrics printed with --trace 1. Every workload emits all of them. Times
/// are measured on every workload (by a probe where the workload does not
/// exercise the layer); time spent in a layer only some workloads run is a
/// share of the run, 0 where the layer is absent, like the counts.
const std::vector<MetricSpec>& per_layer_metrics();

/// Named metric values of one run. Only catalogued names are accepted.
class Report {
 public:
  void set(const std::string& name, double value);
  double get(const std::string& name) const;
  /// Emits the contract's result object, restricted to `catalogue`; every
  /// catalogued metric must have been set and be finite.
  std::string json(const std::vector<MetricSpec>& catalogue, bool correct,
                   std::uint64_t attempted, std::uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Output checks. Each checked workload execution is one operation; an
/// operation with any failed check counts as failed. Failures are printed to
/// stderr with the check name and the offending values.
class Checks {
 public:
  explicit Checks(std::string perturb) : perturb_(std::move(perturb)) {}

  /// Starts the next operation (a workload execution or reference run).
  void op();
  /// True when the self-tests asked for this check's input to be perturbed;
  /// the caller then perturbs the value it is about to check.
  bool perturb(const std::string& check);
  void expect(const std::string& check, bool ok, const std::string& detail);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The requested perturbation named a check this run evaluated.
  bool perturb_seen() const { return perturb_seen_; }
  const std::vector<std::string>& evaluated() const { return evaluated_; }

 private:
  std::string perturb_;
  bool perturb_seen_ = false;
  bool op_failed_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> evaluated_;
};

/// |a - b| / max(|b|, tiny).
double rel_err(double a, double b);

/// Ordered (name, value) outcome of one execution; every repetition of a
/// workload in one process must reproduce the first one exactly.
using Fingerprint = std::vector<std::pair<std::string, double>>;

void expect_identical(Checks& checks, const std::vector<Fingerprint>& reps);

}  // namespace perfbench
