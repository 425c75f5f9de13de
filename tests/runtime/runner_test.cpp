#include "runtime/runner.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/contracts.h"
#include "util/stats.h"

namespace nylon::runtime {
namespace {

TEST(runner, runs_requested_seed_count) {
  int calls = 0;
  parallel_for(5, 1, [&](int) { ++calls; });
  EXPECT_EQ(calls, 5);
  parallel_for(0, 1, [&](int) { ++calls; });
  EXPECT_EQ(calls, 5);
}

TEST(runner, seeds_are_distinct_and_deterministic) {
  // Inline, the indices arrive once each and in order, so a serial run
  // visits the universes in the same order every time.
  std::vector<int> seen1;
  parallel_for(4, 1, [&](int i) { seen1.push_back(i); });
  std::vector<int> seen2;
  parallel_for(4, 1, [&](int i) { seen2.push_back(i); });
  EXPECT_EQ(seen1, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(seen1, seen2);
}

TEST(runner, aggregates_values_in_seed_order) {
  seed_aggregate agg;
  agg.values.resize(3);
  parallel_for(3, 1, [&](int i) {
    agg.values[static_cast<std::size_t>(i)] = static_cast<double>(i);
  });
  agg.stats = util::summarize(agg.values);
  EXPECT_EQ(agg.values, (std::vector<double>{0.0, 1.0, 2.0}));
  EXPECT_DOUBLE_EQ(agg.stats.mean, 1.0);
  EXPECT_EQ(agg.stats.min, 0.0);
  EXPECT_EQ(agg.stats.max, 2.0);
}

TEST(runner, rejects_nonpositive_seed_count) {
  EXPECT_THROW(parallel_for(-1, 1, [](int) {}), nylon::contract_error);
  EXPECT_THROW((void)worker_budget(4, 0, 0), nylon::contract_error);
  EXPECT_THROW((void)worker_budget(-1, 0, 4), nylon::contract_error);
}

}  // namespace
}  // namespace nylon::runtime
