#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "util/contracts.h"
#include "util/rng.h"

namespace nylon::sim {
namespace {

TEST(event_queue, empty_initially) {
  event_queue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), time_never);
}

TEST(event_queue, runs_in_time_order) {
  event_queue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(event_queue, fifo_among_equal_times) {
  event_queue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(event_queue, pop_returns_event_time) {
  event_queue q;
  q.push(17, [] {});
  EXPECT_EQ(q.pop_and_run(), 17);
}

TEST(event_queue, next_time_tracks_the_earliest_event) {
  event_queue q;
  q.push(9, [] {});
  q.push(1, [] {});
  EXPECT_EQ(q.next_time(), 1);
  q.pop_and_run();
  EXPECT_EQ(q.next_time(), 9);
  q.pop_and_run();
  EXPECT_EQ(q.next_time(), time_never);
}

TEST(event_queue, executed_counter) {
  event_queue q;
  q.push(1, [] {});
  q.push(2, [] {});
  q.push(3, [] {});
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(q.executed(), 3u);
}

TEST(event_queue, events_scheduled_during_execution) {
  event_queue q;
  std::vector<int> order;
  q.push(10, [&] {
    order.push_back(1);
    q.push(20, [&] { order.push_back(2); });
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(event_queue, pop_on_empty_throws) {
  event_queue q;
  EXPECT_THROW(q.pop_and_run(), nylon::contract_error);
}

TEST(event_queue, null_callback_rejected) {
  event_queue q;
  EXPECT_THROW(q.push(1, nullptr), nylon::contract_error);
}

TEST(event_queue, empty_nullable_callables_rejected) {
  event_queue q;
  EXPECT_THROW(q.push(1, std::function<void()>{}), nylon::contract_error);
  void (*fn)() = nullptr;
  EXPECT_THROW(q.push(1, fn), nylon::contract_error);
  EXPECT_THROW(q.push(1, util::callback{}), nylon::contract_error);
  EXPECT_TRUE(q.empty());  // no orphaned slots or buckets
}

/// Differential stress test: the calendar-bucket queue must execute an
/// arbitrary interleaving of pushes and pops in exactly
/// (time, insertion-seq) order — the ordering contract every simulation's
/// bit-reproducibility rests on.
TEST(event_queue, order_matches_reference_under_random_workload) {
  util::rng rng(99);
  event_queue q;
  std::vector<int> executed;                     // event ids, in run order
  std::vector<std::pair<sim_time, int>> live;    // reference: (time, id)
  int next_id = 0;
  sim_time now = 0;

  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t op = rng.uniform(0, 9);
    if (op < 6) {  // push (ids increase in insertion order)
      const sim_time at = now + static_cast<sim_time>(rng.uniform(0, 40));
      const int id = next_id++;
      q.push(at, [&executed, id] { executed.push_back(id); });
      live.emplace_back(at, id);
    } else {  // pop one (if any)
      if (!q.empty()) {
        const sim_time at = q.next_time();
        ASSERT_GE(at, now);
        now = at;
        q.pop_and_run();
        // Reference: earliest (time, id) — id order IS insertion order.
        const auto it = std::min_element(live.begin(), live.end());
        ASSERT_NE(it, live.end());
        ASSERT_EQ(executed.back(), it->second);
        ASSERT_EQ(at, it->first);
        live.erase(it);
      }
    }
  }
  while (!q.empty()) {
    const auto it = std::min_element(live.begin(), live.end());
    q.pop_and_run();
    ASSERT_EQ(executed.back(), it->second);
    live.erase(it);
  }
  EXPECT_TRUE(live.empty());
}

}  // namespace
}  // namespace nylon::sim
