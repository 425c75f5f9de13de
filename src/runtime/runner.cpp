#include "runtime/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace nylon::runtime {

namespace {

/// Runs `body(i)` for every i in [0, count), either inline or across a
/// worker pool claiming indices from a shared counter. The first
/// exception (by completion order) is rethrown after all workers join.
void for_each_index(int count, int threads,
                    const std::function<void(int)>& body) {
  if (threads <= 1) {
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
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace

int resolve_threads(const run_options& opt, int seed_count) {
  NYLON_EXPECTS(opt.threads >= 0);
  int threads = opt.threads;
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  // A sharded universe spawns `shards` workers of its own; budget the
  // concurrent seeds so seeds × shards stays within the thread target
  // (one sharded seed always gets to run, even over budget).
  const int per_seed =
      static_cast<int>(std::max<std::size_t>(std::size_t{1}, opt.shards));
  const int workers = std::max(1, threads / per_seed);
  return std::min(workers, seed_count);
}

seed_aggregate run_seeds(
    int seed_count, std::uint64_t base_seed,
    const std::function<double(std::uint64_t seed)>& experiment,
    run_options opt) {
  NYLON_EXPECTS(seed_count > 0);
  seed_aggregate out;
  out.values.resize(static_cast<std::size_t>(seed_count));
  for_each_index(seed_count, resolve_threads(opt, seed_count), [&](int i) {
    out.values[static_cast<std::size_t>(i)] =
        experiment(util::derive_seed(base_seed, static_cast<std::uint64_t>(i)));
  });
  out.stats = util::summarize(out.values);
  return out;
}

std::vector<seed_aggregate> run_seeds_multi(
    int seed_count, std::uint64_t base_seed, std::size_t metric_count,
    const std::function<std::vector<double>(std::uint64_t seed)>& experiment,
    run_options opt) {
  return run_seeds_multi_captured(
             seed_count, base_seed, metric_count,
             [&](std::uint64_t seed, util::json&) { return experiment(seed); },
             opt)
      .aggregates;
}

multi_seed_result run_seeds_multi_captured(
    int seed_count, std::uint64_t base_seed, std::size_t metric_count,
    const std::function<std::vector<double>(std::uint64_t seed,
                                            util::json& capture)>& experiment,
    run_options opt) {
  NYLON_EXPECTS(seed_count > 0);
  NYLON_EXPECTS(metric_count > 0);
  multi_seed_result out;
  out.aggregates.resize(metric_count);
  for (seed_aggregate& agg : out.aggregates) {
    agg.values.resize(static_cast<std::size_t>(seed_count));
  }
  out.captures.resize(static_cast<std::size_t>(seed_count));
  for_each_index(seed_count, resolve_threads(opt, seed_count), [&](int i) {
    const std::vector<double> metrics = experiment(
        util::derive_seed(base_seed, static_cast<std::uint64_t>(i)),
        out.captures[static_cast<std::size_t>(i)]);
    NYLON_EXPECTS(metrics.size() == metric_count);
    for (std::size_t m = 0; m < metric_count; ++m) {
      out.aggregates[m].values[static_cast<std::size_t>(i)] = metrics[m];
    }
  });
  for (seed_aggregate& agg : out.aggregates) {
    agg.stats = util::summarize(agg.values);
  }
  return out;
}

}  // namespace nylon::runtime
