// Cross-shard transfer ordering: channels preserve FIFO until drained,
// the segmented canonical merge is a total order on (at, order_a,
// order_b) independent of input permutation and segmentation, and the shard engine's barriers
// schedule drained events into the destination exactly once, in
// canonical order, never inside the conservative window.
#include "sim/shard_channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/shard_engine.h"
#include "util/contracts.h"

namespace nylon::sim {
namespace {

channel_event ev(sim_time at, std::uint64_t a, std::uint64_t b,
                 std::vector<int>* log, int tag) {
  return channel_event{at, a, b, [log, tag] { log->push_back(tag); }};
}

TEST(shard_channel, drain_preserves_fifo_push_order) {
  shard_channel ch;
  std::vector<int> log;
  ch.push(ev(5, 1, 1, &log, 1));
  ch.push(ev(3, 2, 1, &log, 2));
  ch.push(ev(5, 0, 9, &log, 3));
  EXPECT_EQ(ch.size(), 3u);

  std::vector<channel_event> out;
  ch.drain_into(out);
  EXPECT_TRUE(ch.empty());
  ASSERT_EQ(out.size(), 3u);
  // Drain order is push order; sorting is the caller's (barrier's) job.
  for (channel_event& e : out) e.fn();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));

  // The channel is reusable after a drain.
  ch.push(ev(1, 0, 0, &log, 4));
  EXPECT_EQ(ch.size(), 1u);
}

TEST(shard_channel, canonical_merge_segments_is_permutation_independent) {
  std::vector<int> log;
  std::vector<channel_event> events;
  // Keys chosen so every comparison level matters: time first, then
  // order_a (sender), then order_b (sequence).
  events.push_back(ev(10, 2, 1, &log, 0));
  events.push_back(ev(10, 1, 2, &log, 1));
  events.push_back(ev(10, 1, 1, &log, 2));
  events.push_back(ev(9, 99, 99, &log, 3));
  events.push_back(ev(11, 0, 0, &log, 4));
  const std::size_t n = events.size();

  std::vector<channel_event> sorted;
  std::vector<std::size_t> bounds;
  for (std::size_t rotation = 0; rotation < n; ++rotation) {
    // Two segments (one pairwise merge) up to one per event (an odd
    // segment carried over a merge round), as drained channels arrive.
    for (std::size_t segments = 2; segments <= n; ++segments) {
      sorted.clear();
      for (std::size_t i = 0; i < n; ++i) {
        const channel_event& src = events[(i + rotation) % n];
        sorted.push_back(channel_event{src.at, src.order_a, src.order_b,
                                       util::callback(nullptr)});
      }
      bounds.clear();
      for (std::size_t s = 0; s <= segments; ++s) {
        bounds.push_back(s * n / segments);
      }
      canonical_merge_segments(sorted, bounds);
      std::vector<int> keys;
      for (const channel_event& e : sorted) {
        keys.push_back(static_cast<int>(e.at * 100 + e.order_a * 10 +
                                        e.order_b));
      }
      // (9, 99, 99) first on time alone; then (10, 1, *) before
      // (10, 2, 1) on sender, and (10, 1, 1) before (10, 1, 2).
      EXPECT_EQ(keys, (std::vector<int>{1989, 1011, 1012, 1021, 1100}))
          << "rotation " << rotation << ", " << segments << " segments";
    }
  }
}

TEST(shard_engine, delivers_cross_shard_events_in_canonical_order) {
  shard_engine engine(3, /*window=*/10);
  std::vector<int> log;
  // Post out of order from several source shards to shard 1, all landing
  // at the same destination time — canonical (order_a, order_b) must
  // decide, not the post order or the source shard index.
  engine.post(2, 1, 25, /*a=*/7, /*b=*/1, [&log] { log.push_back(71); });
  engine.post(0, 1, 25, /*a=*/3, /*b=*/2, [&log] { log.push_back(32); });
  engine.post(1, 1, 25, /*a=*/3, /*b=*/1, [&log] { log.push_back(31); });
  engine.post(0, 1, 15, /*a=*/9, /*b=*/9, [&log] { log.push_back(99); });
  engine.run_until(30);
  EXPECT_EQ(log, (std::vector<int>{99, 31, 32, 71}));
  EXPECT_EQ(engine.now(), 30);
  EXPECT_EQ(engine.events_executed(), 4u);
}

TEST(shard_engine, post_inside_window_is_a_contract_violation) {
  shard_engine engine(2, /*window=*/10);
  engine.run_until(20);
  // An event strictly before the last barrier could causally precede
  // state still being computed; the engine refuses it. The barrier time
  // itself is the boundary case (minimum-latency send from an event on
  // the previous barrier) and is allowed.
  EXPECT_THROW(
      engine.post(0, 1, 19, 0, 0, [] {}),
      nylon::contract_error);
  engine.post(0, 1, 20, 0, 0, [] {});  // at the barrier: boundary, fine
  engine.post(0, 1, 21, 0, 0, [] {});  // strictly after: fine
  engine.run_until(30);
  EXPECT_EQ(engine.events_executed(), 2u);
}

TEST(shard_engine, run_until_now_executes_events_at_the_barrier) {
  shard_engine engine(2, /*window=*/5);
  engine.run_until(10);
  bool ran = false;
  // Control plane schedules at the barrier time itself (a freshly joined
  // peer with zero phase); a same-deadline run must execute it.
  engine.shard_scheduler(1).at(10, [&ran] { ran = true; });
  engine.run_until(10);
  EXPECT_TRUE(ran);
}

TEST(shard_engine, shards_advance_in_lockstep_epochs) {
  shard_engine engine(2, /*window=*/10);
  std::vector<sim_time> clock_at_delivery;
  std::vector<sim_time> completed_at_delivery;
  // A ping-pong across shards: each delivery posts the next one, so the
  // reply can only run in a later epoch, after every shard has finished
  // the epoch that produced it. Each callback reads only its own shard's
  // clock plus the engine's globally completed floor (an atomic, safe to
  // read mid-epoch).
  engine.post(0, 1, 11, 0, 0, [&] {
    clock_at_delivery.push_back(engine.shard_scheduler(1).now());
    completed_at_delivery.push_back(engine.completed_through());
    engine.post(1, 0, 22, 0, 0, [&] {
      clock_at_delivery.push_back(engine.shard_scheduler(0).now());
      completed_at_delivery.push_back(engine.completed_through());
    });
  });
  engine.run_until(40);
  EXPECT_EQ(clock_at_delivery, (std::vector<sim_time>{11, 22}));
  ASSERT_EQ(completed_at_delivery.size(), 2u);
  EXPECT_LT(completed_at_delivery[0], 11);
  EXPECT_GE(completed_at_delivery[1], 11);  // the ping's epoch completed
  EXPECT_LT(completed_at_delivery[1], 22);
  EXPECT_EQ(engine.now(), 40);
}

}  // namespace
}  // namespace nylon::sim
