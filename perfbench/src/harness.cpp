#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::uint64_t peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // ru_maxrss is in KiB
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"run_s", "s"},
      {"rss_bytes_per_vm", "B"},
      {"cost_reduction_pct", "%"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"topology.build_s", "s"},
      {"traffic.generate_s", "s"},
      {"traffic.apply_ns_per_delta", "ns"},
      {"traffic.next_batch_ns", "ns"},
      {"traffic.fold_s", "s"},
      {"traffic.fold_share", "ratio"},
      {"traffic.fold_p50_ns", "ns"},
      {"traffic.fold_tail_ns", "ns"},
      {"traffic.fold_tail_pct", "%"},
      {"traffic.fold_samples", "count"},
      {"traffic.deltas_applied", "count"},
      {"traffic.compactions", "count"},
      {"traffic.overflow_entries", "count"},
      {"traffic.queue_max_depth", "count"},
      {"baselines.place_s", "s"},
      {"core.bind_s", "s"},
      {"core.evaluate_ns", "ns"},
      {"core.begin_pass_full_s", "s"},
      {"core.begin_pass_incr_s", "s"},
      {"core.begin_pass_touched", "count"},
      {"core.reconcile_s", "s"},
      {"core.deltas_folded", "count"},
      {"core.cache_rebuilds", "count"},
      {"driver.passes", "count"},
      {"driver.holds", "count"},
      {"driver.migrations", "count"},
      {"driver.commit_ratio", "ratio"},
      {"driver.reopts", "count"},
      {"driver.reopt_migrations", "count"},
      {"driver.reopt_share", "ratio"},
      {"driver.trigger_share", "ratio"},
      {"driver.initial_opt_share", "ratio"},
      {"hypervisor.rounds", "count"},
      {"hypervisor.token_msgs", "count"},
      {"hypervisor.token_bytes", "B"},
      {"hypervisor.probe_msgs", "count"},
      {"hypervisor.control_bytes", "B"},
      {"hypervisor.control_msgs_per_vm", "count"},
      {"hypervisor.control_bytes_per_vm", "B"},
      {"hypervisor.agent_share", "ratio"},
      {"hypervisor.agent_token_share", "ratio"},
      {"hypervisor.agent_probe_share", "ratio"},
      {"hypervisor.deliveries", "count"},
      {"hypervisor.runtime_self_share", "ratio"},
      {"hypervisor.token_codec_us", "us"},
      {"hypervisor.token_codec_share", "ratio"},
      {"hypervisor.messages_lost", "count"},
      {"hypervisor.probe_timeouts", "count"},
      {"hypervisor.token_reinjections", "count"},
      {"sim.msg_ns", "ns"},
      {"sim.token_msg_us", "us"},
      {"trace.run_s", "s"},
      {"trace.untraced_run_s", "s"},
      {"trace.overhead_pct", "%"},
      {"trace.attributed_s", "s"},
      {"trace.residual_s", "s"},
      {"trace.attributed_share", "ratio"},
  };
  return specs;
}

namespace {

bool catalogued(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *list) {
      if (name == m.name) return true;
    }
  }
  return false;
}

}  // namespace

void Report::set(const std::string& name, double value) {
  if (!catalogued(name)) {
    throw std::logic_error("Report: uncatalogued metric " + name);
  }
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

double Report::get(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return v;
  }
  throw std::logic_error("Report: metric " + name + " was never set");
}

std::string Report::json(const std::vector<MetricSpec>& catalogue, bool correct,
                         std::uint64_t attempted, std::uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : catalogue) {
    const double v = get(m.name);
    if (!std::isfinite(v)) {
      throw std::logic_error(std::string("Report: metric ") + m.name +
                             " is not finite");
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void Checks::op() {
  ++attempted_;
  op_failed_ = false;
}

bool Checks::perturb(const std::string& check) {
  if (check != perturb_) return false;
  perturb_seen_ = true;
  return true;
}

void Checks::expect(const std::string& check, bool ok, const std::string& detail) {
  if (std::find(evaluated_.begin(), evaluated_.end(), check) == evaluated_.end()) {
    evaluated_.push_back(check);
  }
  if (ok) return;
  std::cerr << "perfbench: CHECK FAILED " << check << ": " << detail << "\n";
  if (attempted_ == 0) op();
  if (!op_failed_) {
    op_failed_ = true;
    ++failed_;
  }
}

double rel_err(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), 1e-300);
}

void expect_identical(Checks& checks, const std::vector<Fingerprint>& reps) {
  if (reps.size() < 2) return;
  checks.op();
  std::vector<Fingerprint> seen = reps;
  if (checks.perturb("deterministic_reps")) seen.back().front().second += 1.0;
  std::string detail;
  for (std::size_t r = 1; r < seen.size(); ++r) {
    for (std::size_t i = 0; i < seen[0].size(); ++i) {
      if (seen[r].at(i).second != seen[0][i].second) {
        std::ostringstream d;
        d.precision(17);
        d << "rep " << r << " " << seen[0][i].first << " = "
          << seen[r][i].second << " vs rep 0 " << seen[0][i].second
          << " (nondeterminism, not noise); ";
        detail += d.str();
      }
    }
  }
  checks.expect("deterministic_reps", detail.empty(), detail);
}

}  // namespace perfbench
