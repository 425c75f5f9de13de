// Sharded-engine determinism guard (DESIGN.md "Sharded determinism
// contract"): one universe executed on K shards must produce the
// identical simulation — state digest, trajectory, event count, drop
// accounting — for every K, because peer->shard assignment, worker
// interleaving and channel placement are all invisible to the canonical
// event stream. The scenario below exercises every dynamic at once
// (Poisson churn with heavy-tailed sessions, mass departure, partition +
// heal, NAT rebind, in-place NAT migration) so a single digest pins view
// merges, per-peer rng streams, cross-shard packet ordering and the
// rebound-IP handoff together.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/scenario.h"
#include "util/contracts.h"
#include "workload/engine.h"
#include "workload/report.h"

namespace nylon {
namespace {

struct shard_run {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t drops = 0;
  std::size_t alive = 0;
  std::string trajectory;
};

/// The paper's fixed latency and no loss, or a lossy jittered network:
/// the latter makes every send draw from the sender's rng stream.
enum class network : std::uint8_t { paper, lossy_jitter };

shard_run run_world(core::protocol_kind protocol, std::size_t shards,
                    std::uint64_t seed, network net = network::paper) {
  runtime::experiment_config cfg;
  cfg.peer_count = 200;
  cfg.natted_fraction = 0.6;
  cfg.protocol = protocol;
  cfg.gossip.view_size = 8;
  cfg.seed = seed;
  cfg.shards = shards;
  if (net == network::lossy_jitter) {
    cfg.latency_model = runtime::experiment_config::latency_kind::uniform;
    cfg.latency = sim::millis(20);
    cfg.latency_max = sim::millis(80);
    cfg.loss_rate = 0.02;
  }

  runtime::scenario world(cfg);
  const sim::sim_time period = cfg.gossip.shuffle_period;

  workload::session_distribution sessions;
  sessions.k = workload::session_distribution::kind::pareto;
  sessions.mean = 6 * period;

  auto prog = workload::program{}
                  .then(workload::steady(6 * period))
                  .then(workload::mass_departure(0.2))
                  .then(workload::steady(3 * period))
                  .then(workload::nat_rebind(0.4))
                  .then(workload::steady(3 * period))
                  .then(workload::nat_migration(0.3))
                  .then(workload::steady(3 * period))
                  .then(workload::partition(0.4))
                  .then(workload::steady(3 * period))
                  .then(workload::heal())
                  .then(workload::poisson_churn(6 * period, 3.0, sessions))
                  .then(workload::steady(3 * period));

  workload::engine_options opt;
  opt.sample_interval = period;
  workload::engine eng(world, std::move(prog), opt);
  eng.run();

  shard_run out;
  out.digest = world.state_digest();
  out.events = world.events_executed();
  out.drops = world.transport().total_drops();
  out.alive = world.alive_count();
  out.trajectory = workload::to_json(eng.trajectory()).dump_string(0);
  return out;
}

/// K = 1 is the reference stream; every other K must reproduce it bit
/// for bit — trajectory (full per-period metrics), digest, counters.
void expect_equal_across_shards(core::protocol_kind protocol,
                                std::uint64_t seed,
                                network net = network::paper) {
  const shard_run reference = run_world(protocol, 1, seed, net);
  EXPECT_GT(reference.alive, 0u);
  EXPECT_GT(reference.events, 0u);
  for (const std::size_t k : {std::size_t{2}, std::size_t{3},
                              std::size_t{8}}) {
    const shard_run run = run_world(protocol, k, seed, net);
    EXPECT_EQ(run.digest, reference.digest) << "shards=" << k;
    EXPECT_EQ(run.events, reference.events) << "shards=" << k;
    EXPECT_EQ(run.drops, reference.drops) << "shards=" << k;
    EXPECT_EQ(run.alive, reference.alive) << "shards=" << k;
    EXPECT_EQ(run.trajectory, reference.trajectory) << "shards=" << k;
  }
}

TEST(shard_determinism, nylon_identical_for_k_1_2_3_8) {
  expect_equal_across_shards(core::protocol_kind::nylon, 2026);
}

/// On a lossy jittered network, so a send whose loss or latency draw
/// came from a shared stream instead of the sender's would show here.
TEST(shard_determinism, reference_identical_for_k_1_2_3_8) {
  expect_equal_across_shards(core::protocol_kind::reference, 7,
                             network::lossy_jitter);
}

/// Same config, same shard count, run twice: the sharded engine is also
/// deterministic against itself (worker scheduling is invisible).
TEST(shard_determinism, repeat_runs_are_identical) {
  const shard_run a = run_world(core::protocol_kind::nylon, 4, 11);
  const shard_run b = run_world(core::protocol_kind::nylon, 4, 11);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.trajectory, b.trajectory);
}

/// The serial engine (shards = 0) is untouched by shard mode: its golden
/// digests live in golden_digest_test.cpp; here we only pin that shard
/// mode is a *different* stream (per-peer rngs), so nobody mistakes one
/// for the other when re-capturing digests.
TEST(shard_determinism, shard_mode_is_its_own_stream) {
  const shard_run serial = run_world(core::protocol_kind::nylon, 0, 2026);
  const shard_run sharded = run_world(core::protocol_kind::nylon, 1, 2026);
  EXPECT_NE(serial.digest, sharded.digest);
}

/// Shard mode needs lookahead: a zero-latency model has none.
TEST(shard_determinism, zero_latency_floor_is_rejected) {
  runtime::experiment_config cfg;
  cfg.peer_count = 10;
  cfg.gossip.view_size = 4;
  cfg.latency = 0;
  cfg.shards = 2;
  EXPECT_THROW(cfg.validate(), nylon::contract_error);
}

}  // namespace
}  // namespace nylon
