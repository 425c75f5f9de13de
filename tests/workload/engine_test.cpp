// Per-phase behaviour of the workload engine against real scenarios.
#include "workload/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/scenario.h"

namespace nylon::workload {
namespace {

runtime::experiment_config small_world(std::size_t peers, double natted,
                                       std::uint64_t seed) {
  runtime::experiment_config cfg;
  cfg.peer_count = peers;
  cfg.natted_fraction = natted;
  cfg.protocol = core::protocol_kind::nylon;
  cfg.gossip.view_size = 8;
  cfg.seed = seed;
  return cfg;
}

sim::sim_time period(const runtime::scenario& world) {
  return world.config().gossip.shuffle_period;
}

TEST(engine_phases, steady_changes_nothing) {
  runtime::scenario world(small_world(60, 0.5, 1));
  const sim::sim_time P = period(world);
  engine eng(world, program{}.then(steady(10 * P)));
  eng.run();
  EXPECT_EQ(world.scheduler().now(), 10 * P);
  EXPECT_EQ(eng.joined(), 0u);
  EXPECT_EQ(eng.departed(), 0u);
  EXPECT_EQ(eng.final().alive, 60u);
  EXPECT_EQ(eng.final().at, 10 * P);
}

TEST(engine_phases, grow_adds_evenly_spaced_peers) {
  runtime::scenario world(small_world(40, 0.5, 2));
  const sim::sim_time P = period(world);
  engine_options opt;
  opt.sample_interval = 5 * P;
  opt.measure = false;  // population counters are enough here
  engine eng(world, program{}.then(grow(20, 10 * P)), opt);
  eng.run();
  EXPECT_EQ(eng.joined(), 20u);
  EXPECT_EQ(eng.final().alive, 60u);
  // Mid-phase sample sees roughly half the newcomers (spacing, not burst).
  const snapshot& mid = eng.trajectory()[1];  // samples at 0, 5P; end at 10P
  EXPECT_EQ(mid.at, 5 * P);
  EXPECT_GE(mid.alive, 48u);
  EXPECT_LE(mid.alive, 52u);
}

TEST(engine_phases, flash_crowd_joins_at_once) {
  runtime::scenario world(small_world(50, 0.6, 3));
  const sim::sim_time P = period(world);
  engine eng(world,
             program{}.then(flash_crowd(25)).then(steady(5 * P)));
  eng.run();
  EXPECT_EQ(eng.joined(), 25u);
  // The flash phase's own snapshot already sees everyone.
  EXPECT_EQ(eng.trajectory().front().alive, 75u);
  EXPECT_EQ(eng.trajectory().front().at, 0);
  // And the rookies integrate: they gossip within the steady window.
  std::size_t active_rookies = 0;
  for (std::size_t i = 50; i < 75; ++i) {
    if (world.peer_at(static_cast<net::node_id>(i)).stats().initiated > 0) {
      ++active_rookies;
    }
  }
  EXPECT_GT(active_rookies, 20u);
}

TEST(engine_phases, mass_departure_removes_fraction) {
  runtime::scenario world(small_world(100, 0.5, 4));
  const sim::sim_time P = period(world);
  engine eng(world, program{}
                        .then(steady(5 * P))
                        .then(mass_departure(0.3))
                        .then(steady(5 * P)));
  eng.run();
  EXPECT_EQ(eng.departed(), 30u);
  EXPECT_EQ(eng.final().alive, 70u);
}

TEST(engine_phases, poisson_churn_arrivals_and_departures) {
  runtime::scenario world(small_world(80, 0.5, 5));
  const sim::sim_time P = period(world);  // 5 s
  session_distribution sessions;
  sessions.mean = 4 * P;  // short sessions: departures happen in-window
  // ~1 arrival per period over 30 periods.
  auto prog = program{}.then(
      poisson_churn(30 * P, 1.0 / sim::to_seconds(P), sessions));
  engine eng(world, std::move(prog));
  eng.run();
  EXPECT_GT(eng.joined(), 10u);
  EXPECT_LT(eng.joined(), 60u);  // ~30 expected; generous both ways
  EXPECT_GT(eng.departed(), 5u);
  EXPECT_LE(eng.departed(), eng.joined());
  EXPECT_EQ(eng.final().alive, 80u + eng.joined() - eng.departed());
}

TEST(engine_phases, turnover_replaces_peers_every_tick) {
  runtime::scenario world(small_world(60, 0.5, 6));
  const sim::sim_time P = period(world);
  engine eng(world, program{}.then(turnover(10 * P, 3, P, 99)));
  eng.run();
  EXPECT_EQ(eng.joined(), 30u);  // 10 ticks x 3 joins
  EXPECT_LE(eng.departed(), 30u);
  EXPECT_GT(eng.departed(), 20u);  // few duplicate draws at n=60
  EXPECT_EQ(eng.final().alive, 60u + eng.joined() - eng.departed());
}

TEST(engine_phases, partition_splits_and_heal_reknits) {
  // All-public world: clusters are purely partition-driven.
  runtime::scenario world(small_world(60, 0.0, 7));
  const sim::sim_time P = period(world);
  engine eng(world, program{}
                        .then(steady(10 * P))
                        .then(partition(0.5))
                        .then(steady(10 * P))
                        .then(heal())
                        .then(steady(15 * P)));
  eng.run();
  const auto& traj = eng.trajectory();
  ASSERT_EQ(traj.size(), 5u);
  EXPECT_EQ(traj[0].clusters.cluster_count, 1u);  // warm overlay, one blob
  EXPECT_GE(traj[2].clusters.cluster_count, 2u);  // split world
  EXPECT_LE(traj[2].clusters.biggest_cluster_pct, 60.0);
  EXPECT_EQ(traj[4].clusters.cluster_count, 1u);  // healed and re-knit
  EXPECT_DOUBLE_EQ(traj[4].clusters.biggest_cluster_pct, 100.0);
  EXPECT_FALSE(world.transport().partitioned());
}

TEST(engine_phases, nat_redistribution_changes_future_joiners) {
  runtime::scenario world(small_world(40, 0.0, 8));
  const sim::sim_time P = period(world);
  // Newcomers after the redistribution are 100% symmetric-NATted.
  nat::nat_mix sym_only{0.0, 0.0, 0.0, 1.0};
  engine eng(world, program{}
                        .then(steady(2 * P))
                        .then(nat_redistribution(1.0, sym_only))
                        .then(flash_crowd(10)));
  eng.run();
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(world.transport().type_of(static_cast<net::node_id>(i)),
              nat::nat_type::open);
  }
  for (std::size_t i = 40; i < 50; ++i) {
    EXPECT_EQ(world.transport().type_of(static_cast<net::node_id>(i)),
              nat::nat_type::symmetric);
  }
}

TEST(engine_phases, nat_rebind_refreshes_descriptors) {
  runtime::scenario world(small_world(50, 1.0, 9));
  const sim::sim_time P = period(world);
  std::vector<net::endpoint> before;
  for (std::size_t i = 0; i < 50; ++i) {
    before.push_back(
        world.transport().advertised_endpoint(static_cast<net::node_id>(i)));
  }
  engine eng(world, program{}
                        .then(steady(5 * P))
                        .then(nat_rebind(1.0))
                        .then(steady(1 * P)));
  eng.run();
  for (std::size_t i = 0; i < 50; ++i) {
    const auto id = static_cast<net::node_id>(i);
    const net::endpoint now = world.transport().advertised_endpoint(id);
    EXPECT_NE(now.ip, before[i].ip) << "peer " << i << " kept its old IP";
    // The peer's own descriptor followed the rebind (STUN refresh).
    EXPECT_EQ(world.peer_at(id).self().addr, now);
  }
}

TEST(engine_phases, nat_migration_swaps_live_peer_types_in_place) {
  // A fully cone-NATted world; the ISP swaps every box for symmetric.
  runtime::scenario world(small_world(50, 1.0, 13));
  const sim::sim_time P = period(world);
  std::vector<net::endpoint> before;
  for (std::size_t i = 0; i < 50; ++i) {
    before.push_back(
        world.transport().advertised_endpoint(static_cast<net::node_id>(i)));
  }
  engine eng(world, program{}
                        .then(steady(5 * P))
                        .then(nat_migration(1.0))  // default: all symmetric
                        .then(steady(1 * P)));
  eng.run();
  for (std::size_t i = 0; i < 50; ++i) {
    const auto id = static_cast<net::node_id>(i);
    // In-place: the same peer object, now living behind a symmetric box,
    // with the rebind upheaval applied and its descriptor refreshed.
    EXPECT_EQ(world.transport().type_of(id), nat::nat_type::symmetric);
    const net::endpoint now = world.transport().advertised_endpoint(id);
    EXPECT_NE(now.ip, before[i].ip) << "peer " << i << " kept its old IP";
    EXPECT_EQ(world.peer_at(id).self().addr, now);
    EXPECT_EQ(world.peer_at(id).self().type, nat::nat_type::symmetric);
  }
}

TEST(engine_phases, nat_migration_fraction_hits_only_that_many) {
  runtime::scenario world(small_world(60, 1.0, 17));
  const sim::sim_time P = period(world);
  engine eng(world, program{}
                        .then(steady(2 * P))
                        .then(nat_migration(0.5))
                        .then(steady(1 * P)));
  eng.run();
  std::size_t symmetric = 0;
  for (std::size_t i = 0; i < 60; ++i) {
    if (world.transport().type_of(static_cast<net::node_id>(i)) ==
        nat::nat_type::symmetric) {
      ++symmetric;
    }
  }
  // small_world's natted population draws the paper mix (10% SYM), so
  // pre-existing symmetric peers add sampling noise around the 30
  // migrated ones; the phase must dominate but not take everyone.
  EXPECT_GE(symmetric, 30u);
  EXPECT_LT(symmetric, 60u);
}

TEST(engine, program_runs_after_manual_warmup) {
  runtime::scenario world(small_world(30, 0.5, 10));
  const sim::sim_time P = period(world);
  world.run_periods(7);
  engine eng(world, program{}.then(steady(3 * P)));
  eng.run();
  EXPECT_EQ(world.scheduler().now(), 10 * P);
  EXPECT_EQ(eng.final().at, 10 * P);
}

TEST(engine, observer_sees_every_snapshot) {
  runtime::scenario world(small_world(30, 0.5, 11));
  const sim::sim_time P = period(world);
  engine_options opt;
  opt.sample_interval = P;
  engine eng(world, program{}.then(steady(5 * P)), opt);
  eng.run();
  // samples at 0..4P plus the phase-end snapshot
  ASSERT_EQ(eng.trajectory().size(), 6u);
  EXPECT_EQ(eng.trajectory().front().at, 0);
  EXPECT_EQ(eng.trajectory().back().at, 5 * P);
  // Snapshot times never go backwards.
  for (std::size_t i = 1; i < eng.trajectory().size(); ++i) {
    EXPECT_LE(eng.trajectory()[i - 1].at, eng.trajectory()[i].at);
  }
}

}  // namespace
}  // namespace nylon::workload
