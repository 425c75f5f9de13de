#include "runtime/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/trace.h"
#include "util/contracts.h"

namespace nylon::runtime {

int worker_budget(int threads, std::size_t shards, int tasks) {
  NYLON_EXPECTS(threads >= 0);
  NYLON_EXPECTS(tasks > 0);
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  const int per_universe =
      static_cast<int>(std::max<std::size_t>(std::size_t{1}, shards));
  const int workers = std::max(1, threads / per_universe);
  return std::min(workers, tasks);
}

void parallel_for(int count, int workers,
                  const std::function<void(int)>& body) {
  NYLON_EXPECTS(count >= 0);
  if (workers <= 1) {
    for (int i = 0; i < count; ++i) {
      const obs::trace_span span("seed");
      body(i);
    }
    return;
  }
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count || failed.load(std::memory_order_relaxed)) return;
      try {
        const obs::trace_span span("seed");
        body(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace nylon::runtime
