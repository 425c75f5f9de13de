// Adaptive conservative windows: epoch-width computation, lookahead
// providers, empty-shard striding, the latency-class API the lookahead
// is built from — and engine-level replay equality across epoch cuts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/latency.h"
#include "sim/shard_engine.h"
#include "util/contracts.h"
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

/// The lookahead provider widens each stride beyond the floor W:
/// with events every 20 ms, W = 1 and lookahead L = 50, each epoch spans
/// t_min + 50 and so covers multiple event times.
TEST(adaptive_window, lookahead_provider_widens_epochs) {
  shard_engine narrow(2, 1);
  shard_engine wide(2, 1, [] { return sim_time{50}; });
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

/// Identical posts under two lookaheads: the staged lane makes the
/// delivery stream equal even though the wide run crosses in fewer
/// epochs and drains several sends at one barrier.
TEST(adaptive_window, cross_shard_posts_replay_identically) {
  std::vector<std::int64_t> log_narrow;
  std::vector<std::int64_t> log_wide;
  std::uint64_t epochs_narrow = 0;
  std::uint64_t epochs_wide = 0;
  for (const bool wide : {false, true}) {
    auto* log = wide ? &log_wide : &log_narrow;
    shard_engine::lookahead_fn look;
    if (wide) look = [] { return sim_time{50}; };
    shard_engine eng(2, 10, look);
    // Shard 0 emits a burst of cross-shard sends, all landing at the
    // same destination time from distinct send times — with the bare
    // 10 ms floor they arrive over several drains, with a 50 ms
    // lookahead in one.
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

// --- the latency-class API the transport's lookahead derives from ------------

TEST(adaptive_window, default_model_is_one_live_class) {
  net::fixed_latency fixed(50);
  EXPECT_EQ(fixed.class_count(), 1u);
  EXPECT_TRUE(fixed.class_live(0));
  EXPECT_EQ(fixed.class_min_delay(0), fixed.min_delay());
}

TEST(adaptive_window, lognormal_floor_is_the_millisecond_grid) {
  net::lognormal_latency model(50, 2.0);
  EXPECT_EQ(model.min_delay(), 1);
  EXPECT_EQ(model.class_min_delay(0), 1);
  util::rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(model.sample(rng), model.min_delay());
  }
}

TEST(adaptive_window, mixture_min_is_over_live_classes_only) {
  net::mixture_latency model({{sim::millis(5), 0.0},    // dead short class
                              {sim::millis(40), 0.7},
                              {sim::millis(150), 0.3}});
  EXPECT_EQ(model.class_count(), 3u);
  EXPECT_FALSE(model.class_live(0));
  EXPECT_TRUE(model.class_live(1));
  EXPECT_TRUE(model.class_live(2));
  // The dead 5 ms class must not drag the floor down.
  EXPECT_EQ(model.min_delay(), sim::millis(40));
  EXPECT_EQ(model.class_min_delay(0), sim::millis(5));

  util::rng rng(11);
  bool saw_far = false;
  for (int i = 0; i < 2000; ++i) {
    const sim_time d = model.sample(rng);
    EXPECT_TRUE(d == sim::millis(40) || d == sim::millis(150));
    saw_far = saw_far || d == sim::millis(150);
  }
  EXPECT_TRUE(saw_far);
}

TEST(adaptive_window, mixture_rejects_degenerate_configs) {
  EXPECT_THROW(net::mixture_latency({}), nylon::contract_error);
  EXPECT_THROW(net::mixture_latency({{-1, 1.0}}), nylon::contract_error);
  EXPECT_THROW(net::mixture_latency({{10, 0.0}}),  // no live class
               nylon::contract_error);
}

}  // namespace
}  // namespace nylon::sim
