#include "util/exec_policy.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace score::util {

std::size_t ExecPolicy::threads_for(std::size_t jobs) const {
  if (!parallel_) return 1;
  std::size_t n = n_threads_;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;  // hardware_concurrency may be unknown
  }
  return std::max<std::size_t>(1, std::min(n, jobs));
}

std::string ExecPolicy::name() const {
  if (!parallel_) return "seq";
  if (n_threads_ == 0) return "par(auto)";
  return "par(" + std::to_string(n_threads_) + ")";
}

ExecPolicy ExecPolicy::parse(std::string_view spec) {
  if (spec == "seq") return seq();
  if (spec == "par" || spec == "par(auto)") return par();
  std::string_view num;
  if (spec.starts_with("par(") && spec.ends_with(")")) {
    num = spec.substr(4, spec.size() - 5);
  } else if (spec.starts_with("par:")) {
    num = spec.substr(4);
  }
  if (!num.empty() &&
      std::all_of(num.begin(), num.end(), [](char c) { return c >= '0' && c <= '9'; })) {
    try {
      return par(std::stoull(std::string(num)));
    } catch (const std::out_of_range&) {
      // fall through to the invalid_argument below — the contract is that
      // every unparseable spec throws the same type
    }
  }
  throw std::invalid_argument("ExecPolicy: cannot parse '" + std::string(spec) +
                              "' (expected seq, par, par(N) or par:N)");
}

void for_each_shard(const ExecPolicy& policy, std::size_t jobs,
                    const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) return;
  const std::size_t workers = policy.threads_for(jobs);
  if (workers <= 1) {
    for (std::size_t j = 0; j < jobs; ++j) fn(j);
    return;
  }

  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto guarded = [&](std::size_t j) {
    try {
      fn(j);
      return true;
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      return false;
    }
  };
  auto run_block = [&](std::size_t first, std::size_t last) {
    for (std::size_t j = first; j < last; ++j) {
      if (!guarded(j)) return;
    }
  };

  // Contiguous blocks with sizes differing by at most one: a pure function
  // of (policy, jobs), never of thread timing.
  std::vector<std::thread> threads;
  threads.reserve(workers);
  const std::size_t base = jobs / workers;
  const std::size_t extra = jobs % workers;
  std::size_t first = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t size = base + (w < extra ? 1 : 0);
    threads.emplace_back(run_block, first, first + size);
    first += size;
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace score::util
