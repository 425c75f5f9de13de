#include "runtime/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace nylon::runtime {
namespace {

experiment_config tiny(core::protocol_kind kind = core::protocol_kind::nylon) {
  experiment_config cfg;
  cfg.peer_count = 50;
  cfg.natted_fraction = 0.6;
  cfg.protocol = kind;
  cfg.gossip.view_size = 5;
  cfg.seed = 2;
  return cfg;
}

TEST(scenario, builds_population_with_requested_mix) {
  scenario world(tiny());
  EXPECT_EQ(world.peers().size(), 50u);
  EXPECT_EQ(world.alive_count(), 50u);
  std::size_t natted = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    if (nat::is_natted(world.transport().type_of(
            static_cast<net::node_id>(i)))) {
      ++natted;
    }
  }
  EXPECT_EQ(natted, 30u);
}

TEST(scenario, peer_ids_match_indices) {
  scenario world(tiny());
  for (std::size_t i = 0; i < world.peers().size(); ++i) {
    EXPECT_EQ(world.peers()[i]->id(), static_cast<net::node_id>(i));
  }
}

TEST(scenario, bootstrap_views_are_public_only) {
  scenario world(tiny());
  for (const auto& p : world.peers()) {
    EXPECT_GT(p->current_view().size(), 0u);
    for (const auto& e : p->current_view().entries()) {
      EXPECT_EQ(e.peer.type, nat::nat_type::open);
    }
  }
}

TEST(scenario, run_periods_advances_time) {
  scenario world(tiny());
  world.run_periods(3);
  EXPECT_EQ(world.scheduler().now(), 3 * sim::seconds(5));
}

TEST(scenario, gossip_happens) {
  scenario world(tiny());
  world.run_periods(5);
  std::uint64_t initiated = 0;
  for (const auto& p : world.peers()) initiated += p->stats().initiated;
  // Every alive peer fires once per period (minus the bootstrap phase
  // offset round).
  EXPECT_GE(initiated, 4u * 50u);
}

TEST(scenario, remove_peer_is_fail_stop) {
  scenario world(tiny());
  world.run_periods(2);
  world.remove_peer(7);
  EXPECT_FALSE(world.transport().alive(7));
  EXPECT_FALSE(world.peer_at(7).running());
  EXPECT_EQ(world.alive_count(), 49u);
  const auto initiated = world.peer_at(7).stats().initiated;
  world.run_periods(3);
  EXPECT_EQ(world.peer_at(7).stats().initiated, initiated);
}

TEST(scenario, remove_fraction_is_proportional) {
  scenario world(tiny());
  const std::size_t removed = world.remove_fraction(0.5);
  EXPECT_EQ(removed, 25u);
  std::size_t alive_public = 0;
  std::size_t alive_natted = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    const auto id = static_cast<net::node_id>(i);
    if (!world.transport().alive(id)) continue;
    if (nat::is_natted(world.transport().type_of(id))) {
      ++alive_natted;
    } else {
      ++alive_public;
    }
  }
  EXPECT_EQ(alive_public, 10u);  // half of 20
  EXPECT_EQ(alive_natted, 15u);  // half of 30
}

TEST(scenario, remove_fraction_zero_and_full) {
  scenario world(tiny());
  EXPECT_EQ(world.remove_fraction(0.0), 0u);
  EXPECT_EQ(world.remove_fraction(1.0), 50u);
  EXPECT_EQ(world.alive_count(), 0u);
}

TEST(scenario, oracle_is_usable) {
  scenario world(tiny());
  world.run_periods(5);
  const auto oracle = world.oracle();
  const auto& p = world.peers()[0];
  for (const auto& e : p->current_view().entries()) {
    (void)oracle.can_shuffle(p->id(), e.peer);  // must not throw
  }
}

TEST(scenario, different_protocols_run) {
  for (const auto kind :
       {core::protocol_kind::reference, core::protocol_kind::nylon,
        core::protocol_kind::arrg}) {
    scenario world(tiny(kind));
    world.run_periods(3);
    std::uint64_t initiated = 0;
    for (const auto& p : world.peers()) initiated += p->stats().initiated;
    EXPECT_GT(initiated, 0u) << core::to_string(kind);
  }
}

/// What lets the workload engine skip a trailing empty run: a world at t
/// with nothing due at t is idle through t, but an action at t that
/// schedules an event at t (a sampler tick can run such actions) makes it
/// busy again until a run at t executes that event.
TEST(scenario, idle_through_sees_events_an_action_leaves_at_t) {
  for (const std::size_t shards : {std::size_t{0}, std::size_t{2}}) {
    experiment_config cfg = tiny();
    cfg.shards = shards;
    scenario world(cfg);
    const sim::sim_time t = sim::seconds(3);
    world.run_until(t);
    EXPECT_TRUE(world.idle_through(t)) << shards;
    EXPECT_FALSE(world.idle_through(t + 1)) << shards;  // not there yet

    bool ran = false;
    world.scheduler().at(t, [&ran] { ran = true; });
    EXPECT_FALSE(world.idle_through(t)) << shards;
    world.run_until(t);
    EXPECT_TRUE(ran) << shards;
    EXPECT_TRUE(world.idle_through(t)) << shards;
  }
}

}  // namespace
}  // namespace nylon::runtime
