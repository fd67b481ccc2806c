#include "util/parallel.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

#include "util/fault.hpp"

namespace autopower::util {

std::size_t worker_count(std::size_t requested, std::size_t items) noexcept {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, std::min({requested, cores, items}));
}

void run_workers(std::size_t n,
                 const std::function<void(std::size_t)>& body) {
  n = std::max<std::size_t>(n, 1);
  // One slot per worker, each written only by its own worker (or by the
  // launch loop for a thread that never started): no lock needed.
  std::vector<std::exception_ptr> errors(n);
  const auto guarded = [&body, &errors](std::size_t w) {
    try {
      AUTOPOWER_FAULT_POINT("util.thread_pool.run_task");
      body(w);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (std::size_t w = 1; w < n; ++w) {
    // A thread that cannot be started (std::system_error at the thread
    // limit) ends the launch loop; the threads already running are still
    // joined below, never destroyed joinable.
    try {
      AUTOPOWER_FAULT_POINT("util.thread_pool.submit");
      threads.emplace_back(guarded, w);
    } catch (...) {
      errors[w] = std::current_exception();
      break;
    }
  }
  guarded(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace autopower::util
