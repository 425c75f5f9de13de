// The sharded engine's epoch protocol: one barrier crossing per epoch,
// shard 0 on the calling thread, channel sets drained at the top of the
// next epoch — and the coordinated spin_barrier underneath it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/shard_engine.h"
#include "sim/spin_barrier.h"

namespace nylon::sim {
namespace {

/// Threads of this process, from the kernel's per-task directory.
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Nothing drains the channels before a run any more: a post made while
/// parked, at the barrier time itself, counts as pending and runs in the
/// next run_until — on the caller's shard, a pool shard, or its own.
TEST(shard_engine, parked_post_at_now_runs_in_next_run_until) {
  for (const std::size_t k : {1u, 2u, 4u}) {
    shard_engine eng(k, 5);
    eng.run_until(10);
    std::vector<int> ran(k, 0);  // one slot per shard thread
    for (std::size_t dst = 0; dst < k; ++dst) {
      eng.post(k - 1, dst, 10, 0, dst, [&ran, dst] { ++ran[dst]; });
    }
    EXPECT_EQ(eng.next_event_time(), 10) << "K=" << k;
    eng.run_until(10);
    EXPECT_EQ(ran, std::vector<int>(k, 1)) << "K=" << k;
    EXPECT_EQ(eng.next_event_time(), time_never) << "K=" << k;
  }
}

TEST(shard_engine, run_until_now_still_runs_one_epoch) {
  for (const std::size_t k : {1u, 3u}) {
    shard_engine eng(k, 5);
    eng.run_until(10);
    const std::uint64_t before = eng.epochs();
    eng.run_until(10);
    EXPECT_EQ(eng.epochs(), before + 1) << "K=" << k;
    EXPECT_EQ(eng.now(), 10) << "K=" << k;
  }
}

/// A throw on the caller's shard 0 and one on a pool shard both reach
/// the run_until caller; the engine neither hangs nor leaves threads
/// behind when it is destroyed afterwards.
TEST(shard_engine, shard_exceptions_propagate_without_hanging_or_leaking) {
  {
    // A sanitizer runtime may start a helper thread with the first
    // thread a process creates; count from after that.
    shard_engine warm_up(3, 5);
    warm_up.run_until(1);
  }
  const std::size_t threads_before = thread_count();
  for (const std::size_t thrower : {0u, 2u}) {
    {
      shard_engine eng(3, 5);
      eng.run_until(3);  // the pool is up
      eng.shard_scheduler(thrower).at(7, [] {
        throw std::runtime_error("shard event failed");
      });
      EXPECT_THROW(eng.run_until(20), std::runtime_error)
          << "shard " << thrower;
    }
    EXPECT_EQ(thread_count(), threads_before) << "shard " << thrower;
  }
}

/// K = 2: the caller runs shard 0 with a single pool worker. A ping-pong
/// across the two shards needs a new epoch for every hop.
TEST(shard_engine, two_shards_ping_pong_with_one_worker) {
  shard_engine eng(2, 3);
  std::vector<sim_time> hops;
  std::function<void(std::size_t)> hop = [&](std::size_t at_shard) {
    const sim_time now = eng.shard_scheduler(at_shard).now();
    hops.push_back(now);
    if (hops.size() == 20) return;
    const std::size_t next = 1 - at_shard;
    eng.post(at_shard, next, now + 3, 0, hops.size(),
             [&hop, next] { hop(next); });
  };
  eng.post(0, 1, 1, 0, 0, [&hop] { hop(1); });
  eng.run_until(100);
  ASSERT_EQ(hops.size(), 20u);
  for (std::size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i], static_cast<sim_time>(1 + 3 * i));
  }
  EXPECT_GE(eng.epochs(), 20u);
  EXPECT_LE(eng.profile().crossings_per_epoch(), 1.0);
}

/// The coordinated protocol: the completion runs once per generation on
/// the coordinator, sees every party's writes from the generation before,
/// and every released party sees the completion's write.
TEST(shard_barrier, completion_runs_once_per_generation_seen_by_every_party) {
  constexpr std::size_t parties = 4;
  constexpr int generations = 200;
  spin_barrier barrier(parties, /*spin_polls=*/64);
  int published = 0;  // written only by the completion
  std::vector<std::vector<int>> seen(parties - 1);
  std::vector<std::thread> others;
  for (std::size_t i = 0; i < parties - 1; ++i) {
    others.emplace_back([&, i] {
      for (int g = 1; g <= generations; ++g) {
        barrier.arrive_and_wait();
        seen[i].push_back(published);
      }
    });
  }
  int completions = 0;
  for (int g = 1; g <= generations; ++g) {
    barrier.await_others();
    for (const std::vector<int>& s : seen) {
      EXPECT_EQ(s.size(), static_cast<std::size_t>(g - 1));
      if (!s.empty()) {
        EXPECT_EQ(s.back(), g - 1);
      }
    }
    published = g;
    ++completions;
    barrier.release();
  }
  for (std::thread& t : others) t.join();
  EXPECT_EQ(completions, generations);
  for (const std::vector<int>& s : seen) {
    ASSERT_EQ(s.size(), static_cast<std::size_t>(generations));
    for (int g = 1; g <= generations; ++g) EXPECT_EQ(s[g - 1], g);
  }
}

/// Symmetric use is unchanged: no party leaves a generation before every
/// party has arrived at it.
TEST(shard_barrier, symmetric_parties_leave_together) {
  constexpr std::size_t parties = 3;
  constexpr int generations = 100;
  spin_barrier barrier(parties, /*spin_polls=*/16);
  std::atomic<int> arrivals{0};
  std::atomic<int> early{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < parties; ++i) {
    threads.emplace_back([&] {
      for (int g = 1; g <= generations; ++g) {
        arrivals.fetch_add(1);
        barrier.arrive_and_wait();
        if (arrivals.load() < g * static_cast<int>(parties)) early.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(early.load(), 0);
  EXPECT_EQ(arrivals.load(), generations * static_cast<int>(parties));
}

}  // namespace
}  // namespace nylon::sim
