#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "util/contracts.h"

namespace nylon::sim {
namespace {

TEST(scheduler, clock_starts_at_zero) {
  scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.next_event_time(), time_never);
}

TEST(scheduler, run_until_advances_clock_even_when_idle) {
  scheduler s;
  s.run_until(500);
  EXPECT_EQ(s.now(), 500);
}

TEST(scheduler, events_see_their_own_time) {
  scheduler s;
  sim_time seen = -1;
  s.at(120, [&] { seen = s.now(); });
  s.run_until(1000);
  EXPECT_EQ(seen, 120);
  EXPECT_EQ(s.now(), 1000);
}

TEST(scheduler, after_is_relative) {
  scheduler s;
  s.run_until(100);
  sim_time seen = -1;
  s.after(50, [&] { seen = s.now(); });
  s.run_until(1000);
  EXPECT_EQ(seen, 150);
}

TEST(scheduler, deadline_inclusive) {
  scheduler s;
  bool ran = false;
  s.at(100, [&] { ran = true; });
  s.run_until(100);
  EXPECT_TRUE(ran);
}

TEST(scheduler, events_beyond_deadline_stay_queued) {
  scheduler s;
  bool ran = false;
  s.at(101, [&] { ran = true; });
  s.run_until(100);
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.next_event_time(), 101);
  s.run_until(101);
  EXPECT_TRUE(ran);
}

TEST(scheduler, scheduling_in_past_throws) {
  scheduler s;
  s.run_until(10);
  EXPECT_THROW(s.at(5, [] {}), nylon::contract_error);
  EXPECT_THROW(s.after(-1, [] {}), nylon::contract_error);
}

TEST(scheduler, periodic_fires_on_schedule) {
  scheduler s;
  std::vector<sim_time> fires;
  s.every(10, 25, [&] {
    fires.push_back(s.now());
    return true;
  });
  s.run_until(100);
  EXPECT_EQ(fires, (std::vector<sim_time>{10, 35, 60, 85}));
}

// Stopped from outside: the task's own state says stop, the hop already
// queued fires once more (one executed event), returns false, and the
// chain ends there.
TEST(scheduler, periodic_cancel_stops_chain) {
  scheduler s;
  int count = 0;
  bool running = true;
  s.every(0, 10, [&] {
    if (!running) return false;
    ++count;
    return true;
  });
  s.run_until(35);
  EXPECT_EQ(count, 4);  // 0, 10, 20, 30
  EXPECT_EQ(s.events_executed(), 4u);
  running = false;
  EXPECT_EQ(s.next_event_time(), 40);  // the hop queued before the stop
  s.run_until(100);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(s.events_executed(), 5u);
  EXPECT_EQ(s.next_event_time(), time_never);
}

TEST(scheduler, periodic_cancel_from_inside_callback) {
  scheduler s;
  int count = 0;
  s.every(0, 10, [&] { return ++count < 3; });
  s.run_until(1000);
  EXPECT_EQ(count, 3);
}

// A chain whose callback returns false must not leave a live hop in the
// queue: after that firing, the queue drains completely.
TEST(scheduler, periodic_cancel_inside_callback_leaves_no_pending_hop) {
  scheduler s;
  int count = 0;
  s.every(5, 10, [&] {
    ++count;
    return false;
  });
  s.run_until(5);  // exactly the first firing
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.next_event_time(), time_never);
  s.run_until(1000);
  EXPECT_EQ(count, 1);
}

TEST(scheduler, periodic_rejects_nonpositive_period) {
  scheduler s;
  EXPECT_THROW(s.every(0, 0, [] { return true; }), nylon::contract_error);
  EXPECT_EQ(s.next_event_time(), time_never);
}

TEST(scheduler, periodic_rejects_empty_callable) {
  scheduler s;
  EXPECT_THROW(s.every(0, 10, std::function<bool()>{}),
               nylon::contract_error);
  EXPECT_EQ(s.next_event_time(), time_never);
}

TEST(scheduler, events_executed_counter) {
  scheduler s;
  for (int i = 0; i < 5; ++i) s.at(i, [] {});
  s.run_until(10);
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(scheduler, interleaved_periodic_tasks_deterministic) {
  scheduler s;
  std::vector<int> order;
  s.every(0, 10, [&] {
    order.push_back(1);
    return true;
  });
  s.every(0, 10, [&] {
    order.push_back(2);
    return true;
  });
  s.run_until(25);
  // Same timestamps -> FIFO by insertion: 1 before 2 at every firing.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

}  // namespace
}  // namespace nylon::sim
