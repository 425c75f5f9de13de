// The parallel-for must be invisible in the results: bit-identical
// per-task slots on any worker count.
#include "runtime/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "metrics/graph_analysis.h"
#include "runtime/scenario.h"
#include "util/rng.h"

namespace nylon::runtime {
namespace {

// A real (small) simulation per task: proves each worker gets a fully
// independent scheduler + transport + rng universe.
double sim_experiment(std::uint64_t seed) {
  experiment_config cfg;
  cfg.peer_count = 60;
  cfg.natted_fraction = 0.6;
  cfg.protocol = core::protocol_kind::nylon;
  cfg.gossip.view_size = 8;
  cfg.seed = seed;
  scenario world(cfg);
  world.run_periods(12);
  const auto oracle = world.oracle();
  return metrics::measure_views(world.transport(), world.peers(), oracle)
      .stale_pct;
}

/// Runs `count` tasks on `workers` threads; task i runs `experiment` at
/// seed derive_seed(base_seed, i) into slot i.
std::vector<double> run_slots(
    int count, int workers, std::uint64_t base_seed,
    const std::function<double(std::uint64_t)>& experiment) {
  std::vector<double> out(static_cast<std::size_t>(count));
  parallel_for(count, workers, [&](int i) {
    out[static_cast<std::size_t>(i)] = experiment(
        util::derive_seed(base_seed, static_cast<std::uint64_t>(i)));
  });
  return out;
}

TEST(parallel_runner, bit_identical_to_serial) {
  const std::vector<double> serial = run_slots(12, 1, 1, sim_experiment);
  for (const int workers : {2, 4, 8}) {
    EXPECT_EQ(serial, run_slots(12, workers, 1, sim_experiment))
        << workers << " workers";
  }
}

TEST(parallel_runner, values_stay_in_seed_order) {
  // The experiment returns its own seed, so slot index == stream id.
  const std::vector<double> values = run_slots(
      16, 8, 3, [](std::uint64_t seed) { return static_cast<double>(seed); });
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(values[static_cast<std::size_t>(i)],
              static_cast<double>(
                  util::derive_seed(3, static_cast<std::uint64_t>(i))));
  }
}

TEST(parallel_runner, worker_exception_propagates) {
  std::atomic<int> ran{0};
  const auto body = [&](int i) {
    ran.fetch_add(1);
    if (i == 5) throw std::runtime_error("task 5 exploded");
  };
  EXPECT_THROW(parallel_for(8, 4, body), std::runtime_error);
  // Inline, nothing after the failing task is claimed.
  ran = 0;
  EXPECT_THROW(parallel_for(8, 1, body), std::runtime_error);
  EXPECT_EQ(ran.load(), 6);
}

TEST(parallel_runner, multicore_speedup) {
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "single-core box: nothing to overlap";
  }
  const int seeds = 8;
  const auto t0 = std::chrono::steady_clock::now();
  const auto serial = run_slots(seeds, 1, 2, sim_experiment);
  const auto t1 = std::chrono::steady_clock::now();
  const auto parallel =
      run_slots(seeds, worker_budget(0, 0, seeds), 2, sim_experiment);
  const auto t2 = std::chrono::steady_clock::now();
  EXPECT_EQ(serial, parallel);
  // Lenient bound (thread startup, small per-task work): parallel must
  // at least not be slower than serial by more than 10%.
  const double serial_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double parallel_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  EXPECT_LT(parallel_ms, serial_ms * 1.1)
      << "serial " << serial_ms << " ms vs parallel " << parallel_ms << " ms";
}

TEST(parallel_runner, worker_budget_clamps) {
  EXPECT_EQ(worker_budget(1, 0, 30), 1);
  EXPECT_EQ(worker_budget(64, 0, 30), 30);  // never > tasks
  EXPECT_GE(worker_budget(0, 0, 30), 1);    // all cores, >= 1
}

TEST(parallel_runner, worker_budget_budgets_sharded_seeds) {
  // Each sharded universe spawns its own `shards` workers; the
  // concurrent universe count shrinks so universes × shards stays
  // within the budget.
  EXPECT_EQ(worker_budget(8, 4, 30), 2);  // 2 × 4 = 8
  EXPECT_EQ(worker_budget(8, 2, 30), 4);  // 4 × 2 = 8
  EXPECT_EQ(worker_budget(8, 3, 30), 2);  // floor(8/3)
  EXPECT_EQ(worker_budget(4, 8, 30), 1);  // over budget: 1
  EXPECT_EQ(worker_budget(1, 4, 30), 1);  // serial universes
  EXPECT_EQ(worker_budget(8, 0, 30), 8);  // serial engine
  EXPECT_EQ(worker_budget(8, 1, 30), 8);  // 1-shard = 1 thread
  EXPECT_EQ(worker_budget(8, 4, 1), 1);   // still <= tasks
}

TEST(parallel_runner, sharded_seed_budget_is_bit_identical_to_serial) {
  // The budget only throttles concurrency: a sharded task list under a
  // tight thread budget matches the fully serial result.
  const auto experiment = [](std::uint64_t seed) {
    return static_cast<double>(seed % 1009) + 0.25;
  };
  const std::vector<double> a = run_slots(12, 1, 99, experiment);
  const std::vector<double> b =
      run_slots(12, worker_budget(4, 3, 12), 99, experiment);  // 1 worker
  const std::vector<double> c =
      run_slots(12, worker_budget(8, 2, 12), 99, experiment);  // 4 workers
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

}  // namespace
}  // namespace nylon::runtime
