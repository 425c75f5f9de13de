// Staging-lane semantics of event_queue: stage_sorted's lane interleaves
// with the queue in timestamp order, queue first at ties, canonical
// (at, order_a, order_b) order within the lane regardless of how many
// stagings delivered the events.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "util/contracts.h"

namespace nylon::sim {
namespace {

staged_event ev(sim_time at, std::uint64_t a, std::uint64_t b,
                std::vector<std::string>* log, std::string tag) {
  staged_event e;
  e.at = at;
  e.order_a = a;
  e.order_b = b;
  e.fn = [log, tag = std::move(tag)] { log->push_back(tag); };
  return e;
}

TEST(event_queue_batch, lane_interleaves_with_queue_local_first_at_ties) {
  std::vector<std::string> log;
  event_queue q;
  q.push(5, [&log] { log.push_back("q@5"); });
  q.push(7, [&log] { log.push_back("q@7"); });

  std::vector<staged_event> batch;
  batch.push_back(ev(4, 1, 0, &log, "lane@4"));
  batch.push_back(ev(5, 1, 0, &log, "lane@5"));
  batch.push_back(ev(6, 1, 0, &log, "lane@6"));
  q.stage_sorted(batch);
  EXPECT_TRUE(batch.empty());

  EXPECT_EQ(q.next_time(), 4);
  while (!q.empty()) q.pop_and_run();
  // Ties go to the queue: q@5 before lane@5.
  const std::vector<std::string> want = {"lane@4", "q@5", "lane@5", "lane@6",
                                         "q@7"};
  EXPECT_EQ(log, want);
  EXPECT_EQ(q.executed(), 5u);  // lane events count as executed events
}

TEST(event_queue_batch, lane_keeps_canonical_order_across_stagings) {
  // Two stagings whose key ranges overlap: the second merges into the
  // un-consumed remainder of the first, and execution follows canonical
  // (at, order_a, order_b) order as if all six arrived in one batch.
  std::vector<std::string> log;
  event_queue q;

  std::vector<staged_event> first;
  first.push_back(ev(10, 2, 1, &log, "t10:2.1"));
  first.push_back(ev(12, 1, 1, &log, "t12:1.1"));
  first.push_back(ev(14, 1, 1, &log, "t14:1.1"));
  q.stage_sorted(first);

  std::vector<staged_event> second;
  second.push_back(ev(10, 1, 2, &log, "t10:1.2"));
  second.push_back(ev(12, 1, 2, &log, "t12:1.2"));
  second.push_back(ev(12, 3, 1, &log, "t12:3.1"));
  q.stage_sorted(second);

  while (!q.empty()) q.pop_and_run();
  const std::vector<std::string> want = {"t10:1.2", "t10:2.1", "t12:1.1",
                                         "t12:1.2", "t12:3.1", "t14:1.1"};
  EXPECT_EQ(log, want);
}

TEST(event_queue_batch, lane_merges_into_partially_consumed_lane) {
  std::vector<std::string> log;
  event_queue q;

  std::vector<staged_event> first;
  first.push_back(ev(10, 1, 0, &log, "t10"));
  first.push_back(ev(20, 1, 0, &log, "t20"));
  q.stage_sorted(first);

  EXPECT_EQ(q.pop_and_run(), 10);  // consume half of the lane

  std::vector<staged_event> second;
  second.push_back(ev(15, 1, 0, &log, "t15"));
  second.push_back(ev(25, 1, 0, &log, "t25"));
  q.stage_sorted(second);

  while (!q.empty()) q.pop_and_run();
  const std::vector<std::string> want = {"t10", "t15", "t20", "t25"};
  EXPECT_EQ(log, want);
}

TEST(event_queue_batch, unsorted_staging_is_a_contract_violation) {
  std::vector<std::string> log;
  event_queue q;
  std::vector<staged_event> batch;
  batch.push_back(ev(5, 2, 0, &log, "a"));
  batch.push_back(ev(5, 1, 0, &log, "b"));  // canonical key went backwards
  EXPECT_THROW(q.stage_sorted(batch), nylon::contract_error);
}

TEST(event_queue_batch, consumed_lane_storage_is_recycled) {
  std::vector<std::string> log;
  event_queue q;

  std::vector<staged_event> batch;
  batch.reserve(64);
  batch.push_back(ev(10, 1, 0, &log, "a"));
  q.stage_sorted(batch);
  EXPECT_EQ(q.pop_and_run(), 10);

  // The lane was fully consumed, so the next staging swaps storage with
  // the retired lane instead of allocating: the caller's buffer comes
  // back with the old lane's capacity (>= 64 from our reserve above,
  // ping-ponged through the queue).
  batch.push_back(ev(20, 1, 0, &log, "b"));
  q.stage_sorted(batch);
  EXPECT_GE(batch.capacity() + q.lane_reserved_bytes() / sizeof(staged_event),
            64u);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(log.size(), 2u);
}

}  // namespace
}  // namespace nylon::sim
