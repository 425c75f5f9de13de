// Staged churn guard (DESIGN.md "Sharded determinism contract", rule 5):
// joins and single-peer departures ride inside window-wide epochs on the
// sharded engine — a join is applied at the barrier opening the epoch
// that holds its time, a departure becomes an event on the departing
// peer's own shard — and the simulation must be the one a cut per action
// gives. Pinned here: a program mixing every churn kind gives one digest
// for K = 1, 2 and 4 (the value the cut-per-action engine produced), the
// epoch count stays window-bounded under dense churn, and the
// same-millisecond corners (join + depart, depart + join, a departure at
// a NAT GC instant, a join on a timeline tick) match a cut-per-action
// run of the same actions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "runtime/scenario.h"
#include "workload/engine.h"
#include "workload/report.h"

namespace nylon {
namespace {

// --- a program mixing every churn kind ---------------------------------------

struct program_run {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::string trajectory;
};

/// The digest the same program produced when every join and departure
/// cut an epoch of its own (captured before staging existed).
constexpr std::uint64_t mixed_program_digest = 0x06f17f432844048dULL;

program_run run_mixed_program(std::size_t shards) {
  runtime::experiment_config cfg;
  cfg.peer_count = 160;
  cfg.natted_fraction = 0.6;
  cfg.protocol = core::protocol_kind::nylon;
  cfg.gossip.view_size = 8;
  cfg.seed = 23;
  cfg.shards = shards;
  // Lossy and jittered, so every send draws from its sender's stream.
  cfg.latency_model = runtime::experiment_config::latency_kind::uniform;
  cfg.latency = sim::millis(20);
  cfg.latency_max = sim::millis(80);
  cfg.loss_rate = 0.02;

  runtime::scenario world(cfg);
  const sim::sim_time period = cfg.gossip.shuffle_period;
  workload::session_distribution sessions;
  sessions.k = workload::session_distribution::kind::pareto;
  sessions.mean = 3 * period;
  workload::session_distribution incumbents = sessions;
  incumbents.mean = 12 * period;

  auto prog = workload::program{}
                  .with_initial_sessions(incumbents)
                  .then(workload::steady(2 * period))
                  .then(workload::grow(12, 2 * period))
                  .then(workload::poisson_churn(5 * period, 4.0, sessions))
                  .then(workload::nat_rebind(0.3))
                  .then(workload::partition(0.3))
                  .then(workload::turnover(2 * period, 3, sim::seconds(2)))
                  .then(workload::heal())
                  .then(workload::mass_departure(0.2))
                  .then(workload::steady(2 * period));
  workload::engine_options opt;
  opt.sample_interval = period;
  workload::engine eng(world, std::move(prog), opt);
  eng.run();

  program_run out;
  out.digest = world.state_digest();
  out.events = world.events_executed();
  out.epochs = world.shard_profile().epochs;
  out.trajectory = workload::to_json(eng.trajectory()).dump_string(0);
  return out;
}

TEST(staged_churn, mixed_program_matches_across_k_and_the_cut_engine) {
  const program_run reference = run_mixed_program(1);
  EXPECT_EQ(reference.digest, mixed_program_digest);
  EXPECT_GT(reference.events, 0u);
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    const program_run run = run_mixed_program(k);
    EXPECT_EQ(run.digest, reference.digest) << "shards=" << k;
    EXPECT_EQ(run.events, reference.events) << "shards=" << k;
    EXPECT_EQ(run.epochs, reference.epochs) << "shards=" << k;
    EXPECT_EQ(run.trajectory, reference.trajectory) << "shards=" << k;
  }
}

// --- epochs stay window-bounded under churn ----------------------------------

TEST(staged_churn, dense_churn_keeps_epochs_window_bounded) {
  runtime::experiment_config cfg;
  cfg.peer_count = 200;
  cfg.natted_fraction = 0.6;
  cfg.protocol = core::protocol_kind::nylon;
  cfg.gossip.view_size = 8;
  cfg.seed = 5;
  cfg.shards = 2;
  runtime::scenario world(cfg);
  const sim::sim_time period = cfg.gossip.shuffle_period;
  workload::session_distribution sessions;
  sessions.k = workload::session_distribution::kind::pareto;
  sessions.mean = 2 * period;

  // About 1,000 arrivals and most of their departures: one epoch cut
  // each would roughly double the window-bound epoch count.
  const workload::program prog =
      workload::program{}
          .then(workload::steady(period))
          .then(workload::poisson_churn(10 * period, 20.0, sessions))
          .then(workload::nat_rebind(0.1))
          .then(workload::steady(2 * period));
  const std::size_t phases = prog.phases().size();
  workload::engine_options opt;
  opt.measure = false;
  workload::engine eng(world, prog, opt);
  eng.run();
  ASSERT_GT(eng.joined(), 900u);
  ASSERT_GT(eng.departed(), 600u);

  // Each epoch advances at least one window W (the latency floor), except
  // where a run ends: at a cut action (one here, the rebind), a NAT GC
  // instant, or a phase boundary (two runs per phase at most).
  const sim::sim_time sim_ms = world.scheduler().now();
  const sim::sim_time window = cfg.latency;
  const auto gc_instants =
      static_cast<std::uint64_t>(sim_ms / sim::seconds(30));
  const std::uint64_t bound =
      static_cast<std::uint64_t>((sim_ms + window - 1) / window) + 1 +
      gc_instants + 2 * phases + 4;
  EXPECT_LE(world.shard_profile().epochs, bound);
}

// --- same-millisecond corners ------------------------------------------------

/// Control actions handed to scenario::run_until, added in time order.
class action_list final : public sim::staged_actions {
 public:
  void add(sim::sim_time at, std::function<void(sim::sim_time)> fn) {
    items_.push_back(item{at, std::move(fn)});
  }
  [[nodiscard]] sim::sim_time next_time() const override {
    return pos_ < items_.size() ? items_[pos_].at : sim::time_never;
  }
  void run_next() override {
    const item& next = items_[pos_++];
    next.fn(next.at);
  }

 private:
  struct item {
    sim::sim_time at;
    std::function<void(sim::sim_time)> fn;
  };
  std::vector<item> items_;
  std::size_t pos_ = 0;
};

enum class drive : std::uint8_t { staged, cut };

/// Runs `actions` (all before `end`) either staged — one run_until
/// carrying them — or cut — run_until(t) and then the actions at t, the
/// engine's behaviour before staging.
void run_actions(runtime::scenario& world, action_list& actions,
                 sim::sim_time end, drive how) {
  if (how == drive::staged) {
    world.run_until(end, &actions);
  } else {
    for (sim::sim_time at = actions.next_time(); at < end;
         at = actions.next_time()) {
      world.run_until(at);
      while (actions.next_time() == at) actions.run_next();
    }
  }
  ASSERT_EQ(actions.next_time(), sim::time_never);
  world.run_until(end);
}

runtime::experiment_config corner_config(std::size_t shards) {
  runtime::experiment_config cfg;
  cfg.peer_count = 40;
  cfg.natted_fraction = 0.5;
  cfg.protocol = core::protocol_kind::nylon;
  cfg.gossip.view_size = 6;
  cfg.seed = 17;
  cfg.shards = shards;
  return cfg;
}

/// A joiner whose first shuffle falls in its join millisecond (phase 0)
/// and who departs in that same millisecond never shuffles: the stop
/// runs before its first timer, as it did when both actions cut.
TEST(staged_churn, zero_phase_join_and_depart_in_one_millisecond) {
  // A 2 ms shuffle period makes every phase draw 0 or 1, so about half
  // of the joiners below start in their join millisecond.
  const auto run = [](drive how) {
    runtime::experiment_config cfg = corner_config(2);
    cfg.peer_count = 16;
    cfg.gossip.view_size = 4;
    cfg.gossip.shuffle_period = 2;
    cfg.latency = 1;
    runtime::scenario world(cfg);
    obs::reset_counters();
    action_list actions;
    std::vector<net::node_id> joiners;
    for (sim::sim_time at = 40; at < 400; at += 17) {
      actions.add(at, [&world, &joiners](sim::sim_time t) {
        joiners.push_back(world.add_peer_at(t));
      });
      actions.add(at, [&world, &joiners](sim::sim_time t) {
        EXPECT_TRUE(world.depart_peer_at(joiners.back(), t));
      });
    }
    run_actions(world, actions, 500, how);
    for (const net::node_id id : joiners) {
      EXPECT_FALSE(world.transport().alive(id)) << id;
      EXPECT_EQ(world.peer_at(id).stats().initiated, 0u) << id;
    }
#if NYLON_OBS
    // The departures are bookkeeping, not simulation work: the obs
    // counter and the scenario agree on the event count.
    EXPECT_EQ(obs::read_counters()[obs::counter::events_executed],
              world.events_executed());
#endif
    return std::pair{world.state_digest(), world.events_executed()};
  };
  EXPECT_EQ(run(drive::staged), run(drive::cut));
}

/// A peer departing and another joining in the same millisecond: the
/// joiner's bootstrap no longer sees the departed peer.
TEST(staged_churn, depart_then_join_in_one_millisecond) {
  const auto run = [](drive how) {
    runtime::scenario world(corner_config(2));
    action_list actions;
    for (sim::sim_time at = 1'000; at < 20'000; at += 1'250) {
      actions.add(at, [&world](sim::sim_time t) {
        const std::span<const net::node_id> pub =
            world.transport().alive_public();
        ASSERT_FALSE(pub.empty());
        const net::node_id gone = pub[pub.size() / 2];
        ASSERT_TRUE(world.depart_peer_at(gone, t));
        const net::node_id joined = world.add_peer_at(t);
        for (const gossip::view_entry& e :
             world.peer_at(joined).current_view().entries()) {
          EXPECT_NE(e.peer.id, gone);
        }
      });
    }
    run_actions(world, actions, 25'000, how);
    return std::pair{world.state_digest(), world.alive_count()};
  };
  EXPECT_EQ(run(drive::staged), run(drive::cut));
}

/// A departure at a NAT GC instant runs after the GC, as a cut
/// departure at that instant did.
TEST(staged_churn, departure_at_a_nat_gc_instant) {
  const sim::sim_time gc = sim::seconds(30);
  const auto run = [gc](drive how) {
    runtime::scenario world(corner_config(2));
    action_list actions;
    actions.add(gc - 1, [&world](sim::sim_time t) {
      world.depart_peer_at(world.transport().alive_natted().front(), t);
    });
    actions.add(gc, [&world](sim::sim_time t) {
      world.depart_peer_at(world.transport().alive_natted().front(), t);
      world.depart_peer_at(world.transport().alive_public().front(), t);
    });
    actions.add(gc + 1, [&world](sim::sim_time t) { world.add_peer_at(t); });
    run_actions(world, actions, gc + sim::seconds(5), how);
    EXPECT_EQ(world.alive_count(), 38u);
    return std::pair{world.state_digest(), world.events_executed()};
  };
  EXPECT_EQ(run(drive::staged), run(drive::cut));
}

/// The timeline sampler fires before the actions at its tick: a join on
/// a tick is not in that tick's sample, only in the next one.
TEST(staged_churn, join_on_a_timeline_tick_is_not_in_its_sample) {
  const sim::sim_time tick = 1'000;
  const auto run = [tick](drive how) {
    runtime::scenario world(corner_config(2));
    std::vector<std::pair<sim::sim_time, std::size_t>> samples;
    world.set_sampler(runtime::scenario::sampler_timeline, tick,
                      [&world, &samples](sim::sim_time at) {
                        samples.emplace_back(at, world.alive_count());
                      });
    action_list actions;
    actions.add(3 * tick, [&world](sim::sim_time t) { world.add_peer_at(t); });
    actions.add(3 * tick + 400,
                [&world](sim::sim_time t) { world.add_peer_at(t); });
    run_actions(world, actions, 5 * tick, how);
    world.clear_sampler(runtime::scenario::sampler_timeline);
    const std::vector<std::pair<sim::sim_time, std::size_t>> expected = {
        {1'000, 40}, {2'000, 40}, {3'000, 40}, {4'000, 42}, {5'000, 42}};
    EXPECT_EQ(samples, expected);
    return world.state_digest();
  };
  EXPECT_EQ(run(drive::staged), run(drive::cut));
}

}  // namespace
}  // namespace nylon
