// Adaptive conservative windows: epoch-width computation, window-sized
// strides, empty-shard striding, the latency floor the window comes
// from — and engine-level replay equality across epoch cuts.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/latency.h"
#include "sim/shard_engine.h"
#include "util/rng.h"

namespace nylon::sim {
namespace {

/// Events at t = 0 and t = 10'000 with W = 10: a fixed W-sized stride
/// would pay ~1000 epochs; the engine strides straight from one event
/// horizon to the next.
TEST(adaptive_window, quiet_stretches_collapse_into_few_epochs) {
  shard_engine eng(2, 10);
  int fired = 0;
  eng.shard_scheduler(0).at(0, [&fired] { ++fired; });
  eng.shard_scheduler(1).at(10000, [&fired] { ++fired; });
  eng.run_until(10000);
  EXPECT_EQ(fired, 2);
  EXPECT_LE(eng.epochs(), 4u);
  EXPECT_GE(eng.epoch_width_max(), 9000);
}

/// With no events at all, one epoch crosses the whole span
/// (t_min = never >= bound), shards empty or not.
TEST(adaptive_window, empty_shards_cross_in_one_epoch) {
  shard_engine eng(3, 5);
  eng.run_until(100000);
  EXPECT_EQ(eng.now(), 100000);
  EXPECT_EQ(eng.epochs(), 1u);
  EXPECT_EQ(eng.epoch_width_max(), 100001);  // [0, 100000] inclusive
  EXPECT_EQ(eng.events_executed(), 0u);
}

/// The window sets each stride: with events every 20 ms, W = 1 runs one
/// epoch per event time while W = 50 spans t_min + 50 and so covers
/// multiple event times.
TEST(adaptive_window, lookahead_provider_widens_epochs) {
  shard_engine narrow(2, 1);
  shard_engine wide(2, 50);
  for (shard_engine* eng : {&narrow, &wide}) {
    int fired = 0;
    for (sim_time t = 0; t <= 200; t += 20) {
      eng->shard_scheduler(0).at(t, [&fired] { ++fired; });
    }
    eng->run_until(200);
    EXPECT_EQ(fired, 11);
  }
  // narrow: one epoch per event time (stride = t_min + 1);
  // wide: ~200/50 epochs, as each stride swallows two more event times.
  EXPECT_GT(narrow.epochs(), 2 * wide.epochs());
  EXPECT_GE(wide.epoch_width_max(), 50);
}

/// Identical posts under two windows: the staged lane makes the
/// delivery stream equal even though the wide run crosses in fewer
/// epochs and drains several sends at one barrier.
TEST(adaptive_window, cross_shard_posts_replay_identically) {
  std::vector<std::int64_t> log_narrow;
  std::vector<std::int64_t> log_wide;
  std::uint64_t epochs_narrow = 0;
  std::uint64_t epochs_wide = 0;
  for (const bool wide : {false, true}) {
    auto* log = wide ? &log_wide : &log_narrow;
    shard_engine eng(2, wide ? 50 : 10);
    // Shard 0 emits a burst of cross-shard sends, all landing at the
    // same destination time from distinct send times — with a 10 ms
    // window they arrive over several drains, with a 50 ms window in
    // one.
    for (sim_time t = 0; t <= 40; t += 10) {
      eng.shard_scheduler(0).at(t, [&eng, t, log] {
        eng.post(0, 1, 100, 7, static_cast<std::uint64_t>(t),
                 [log, t] { log->push_back(100 + t); });
        eng.post(0, 1, 200 + t, 7, static_cast<std::uint64_t>(t),
                 [log, t] { log->push_back(200 + t); });
      });
    }
    eng.run_until(300);
    EXPECT_EQ(eng.events_executed(), 15u);
    (wide ? epochs_wide : epochs_narrow) = eng.epochs();
  }
  EXPECT_EQ(log_wide, log_narrow);
  EXPECT_LT(epochs_wide, epochs_narrow);
}

/// completed_through never passes the earliest still-running epoch start:
/// it is the floor the payload-lease sweep reclaims against.
TEST(adaptive_window, completed_through_trails_the_clock) {
  shard_engine eng(2, 10);
  EXPECT_EQ(eng.completed_through(), -1);
  int fired = 0;
  eng.shard_scheduler(0).at(500, [&fired] { ++fired; });
  eng.run_until(1000);
  EXPECT_EQ(fired, 1);
  EXPECT_LE(eng.completed_through(), eng.now());
  EXPECT_GE(eng.completed_through(), 0);
}

// --- the latency floor the window comes from -------------------------------

TEST(adaptive_window, lognormal_floor_is_the_millisecond_grid) {
  net::lognormal_latency model(50, 2.0);
  EXPECT_EQ(model.min_delay(), 1);
  util::rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(model.sample(rng), model.min_delay());
  }
}

}  // namespace
}  // namespace nylon::sim
