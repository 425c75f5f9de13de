// Epoch-cut invariance guard (DESIGN.md "Sharded determinism contract"):
// where the sharded engine cuts its epochs is a *performance* matter,
// never a semantics one. A sim-time sampler ticking at an off-grid
// period below the 50 ms lookahead floor ends a run_until leg — and so an
// epoch — at every tick, cutting epochs where the bare run never would.
// The simulation must not notice: state digest, trajectory, event count,
// drop accounting and population are identical for every shard count,
// because the canonical staging lane makes delivery order a function of
// (time, sender, send_seq) alone, independent of which epoch barrier a
// message crossed at. The workload exercises every dynamic at once
// (churn, partition, rebind, migration) so a digest mismatch anywhere in
// the pipeline shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "runtime/scenario.h"
#include "workload/engine.h"
#include "workload/report.h"

namespace nylon {
namespace {

struct cut_run {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t drops = 0;
  std::size_t alive = 0;
  std::uint64_t epochs = 0;
  std::string trajectory;
};

/// Off the 50 ms latency grid and below the lookahead floor, so nearly
/// every tick lands inside what would otherwise be one epoch.
constexpr sim::sim_time extra_cut_period = 37;

cut_run run_world(std::size_t shards, std::uint64_t seed, bool extra_cuts) {
  runtime::experiment_config cfg;
  cfg.peer_count = 150;
  cfg.natted_fraction = 0.6;
  cfg.protocol = core::protocol_kind::nylon;
  cfg.gossip.view_size = 8;
  cfg.seed = seed;
  cfg.shards = shards;

  runtime::scenario world(cfg);
  const sim::sim_time period = cfg.gossip.shuffle_period;
  if (extra_cuts) {
    world.set_sampler(runtime::scenario::sampler_timeline, extra_cut_period,
                      [](sim::sim_time) {});
  }

  workload::session_distribution sessions;
  sessions.k = workload::session_distribution::kind::pareto;
  sessions.mean = 6 * period;

  auto prog = workload::program{}
                  .then(workload::steady(4 * period))
                  .then(workload::mass_departure(0.2))
                  .then(workload::steady(2 * period))
                  .then(workload::nat_rebind(0.4))
                  .then(workload::partition(0.4))
                  .then(workload::steady(2 * period))
                  .then(workload::heal())
                  .then(workload::nat_migration(0.3))
                  .then(workload::poisson_churn(4 * period, 3.0, sessions))
                  .then(workload::steady(2 * period));

  workload::engine_options opt;
  opt.sample_interval = period;
  workload::engine eng(world, std::move(prog), opt);
  eng.run();

  cut_run out;
  out.digest = world.state_digest();
  out.events = world.events_executed();
  out.drops = world.transport().total_drops();
  out.alive = world.alive_count();
  out.epochs = world.shard_profile().epochs;
  out.trajectory = workload::to_json(eng.trajectory()).dump_string(0);
  return out;
}

/// Full-workload equality, per shard count: the bare run is the
/// reference stream; the extra-cut run must reproduce it bit for bit
/// while provably running more epochs.
TEST(epoch_cut_invariance, identical_for_k_1_2_3_4_8) {
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{8}}) {
    const cut_run bare = run_world(k, 2026, false);
    const cut_run cut = run_world(k, 2026, true);
    EXPECT_GT(bare.alive, 0u) << "shards=" << k;
    EXPECT_EQ(cut.digest, bare.digest) << "shards=" << k;
    EXPECT_EQ(cut.events, bare.events) << "shards=" << k;
    EXPECT_EQ(cut.drops, bare.drops) << "shards=" << k;
    EXPECT_EQ(cut.alive, bare.alive) << "shards=" << k;
    EXPECT_EQ(cut.trajectory, bare.trajectory) << "shards=" << k;
    // The sampler really did cut epochs the bare run did not.
    EXPECT_GT(cut.epochs, bare.epochs) << "shards=" << k;
  }
}

/// Runs are deterministic against themselves (epoch widths are a pure
/// function of queue state, not of thread timing).
TEST(epoch_cut_invariance, repeat_runs_are_identical) {
  const cut_run a = run_world(4, 11, false);
  const cut_run b = run_world(4, 11, false);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.trajectory, b.trajectory);
}

}  // namespace
}  // namespace nylon
