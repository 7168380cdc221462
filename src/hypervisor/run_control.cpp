#include "hypervisor/run_control.hpp"

namespace score::hypervisor {

RunControl::RunControl(const core::CostModel& model,
                       const core::Allocation& alloc,
                       const traffic::TrafficMatrix& tm,
                       std::size_t max_iterations, bool stop_when_stable)
    : model_(&model),
      alloc_(&alloc),
      tm_(&tm),
      max_iterations_(max_iterations),
      stop_when_stable_(stop_when_stable) {}

bool RunControl::hold_complete(bool migrated, double now_s) {
  ++total_holds_;
  ++iter_holds_;
  if (migrated) {
    ++iter_migrations_;
    ++total_migrations_;
  }
  if (iter_holds_ == tm_->num_vms()) {
    driver::IterationStats it;
    it.holds = iter_holds_;
    it.evaluations = iter_holds_;
    it.migrations = iter_migrations_;
    it.migrated_ratio =
        static_cast<double>(iter_migrations_) / static_cast<double>(iter_holds_);
    it.cost_at_end = model_->total_cost(*alloc_, *tm_);
    it.time_at_end_s = now_s;
    iterations_.push_back(it);
    const bool stable = stop_when_stable_ && iter_migrations_ == 0;
    iter_holds_ = 0;
    iter_migrations_ = 0;
    if (iterations_.size() >= max_iterations_ || stable) {
      stop(now_s);
      return false;
    }
  }
  return true;
}

void RunControl::stop(double now_s) {
  if (stopped_) return;
  stopped_ = true;
  duration_s_ = now_s;
}

}  // namespace score::hypervisor
