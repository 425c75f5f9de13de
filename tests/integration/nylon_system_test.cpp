// System-level assertions on Nylon's headline claims, at small scale:
// connectivity, (near-)zero staleness, bounded chains, balanced load.
#include <gtest/gtest.h>

#include "core/nylon_peer.h"
#include "metrics/bandwidth.h"
#include "metrics/graph_analysis.h"
#include "metrics/randomness.h"
#include "runtime/scenario.h"

namespace nylon {
namespace {

runtime::experiment_config nylon_config(double natted, std::uint64_t seed) {
  runtime::experiment_config cfg;
  cfg.peer_count = 250;
  cfg.natted_fraction = natted;
  cfg.protocol = core::protocol_kind::nylon;
  cfg.gossip.view_size = 8;
  cfg.seed = seed;
  return cfg;
}

class nylon_nat_sweep : public ::testing::TestWithParam<int> {};

TEST_P(nylon_nat_sweep, overlay_stays_connected_and_views_clean) {
  const double natted = GetParam() / 100.0;
  runtime::scenario world(nylon_config(natted, 11));
  world.run_periods(60);

  const auto oracle = world.oracle();
  const auto clusters =
      metrics::measure_clusters(world.transport(), world.peers(), oracle);
  EXPECT_GT(clusters.biggest_cluster_pct, 97.0) << "natted=" << natted;

  const auto views =
      metrics::measure_views(world.transport(), world.peers(), oracle);
  EXPECT_LT(views.stale_pct, 6.0) << "natted=" << natted;
}

INSTANTIATE_TEST_SUITE_P(nat_percentages, nylon_nat_sweep,
                         ::testing::Values(0, 40, 60, 80, 90));

TEST(nylon_system, punch_chains_stay_short) {
  runtime::scenario world(nylon_config(0.8, 13));
  world.run_periods(60);
  util::running_stats chains;
  for (const auto& p : world.peers()) {
    const auto* np = dynamic_cast<const core::nylon_peer*>(p.get());
    ASSERT_NE(np, nullptr);
    chains.merge(np->nat_stats().punch_chain_hops);
  }
  ASSERT_GT(chains.count(), 0u);
  // Paper Fig. 9: 1-3 RVPs on average; generously bound the small-scale
  // equivalent.
  EXPECT_LT(chains.mean(), 5.0);
  EXPECT_GE(chains.mean(), 1.0);
}

TEST(nylon_system, shuffles_mostly_succeed) {
  runtime::scenario world(nylon_config(0.9, 17));
  world.run_periods(60);
  std::uint64_t initiated = 0;
  std::uint64_t responses = 0;
  for (const auto& p : world.peers()) {
    initiated += p->stats().initiated;
    responses += p->stats().responses_received;
  }
  EXPECT_GT(initiated, 0u);
  EXPECT_GT(responses, initiated * 85 / 100);
}

TEST(nylon_system, load_is_balanced_between_classes) {
  runtime::scenario world(nylon_config(0.6, 19));
  world.run_periods(20);
  world.transport().reset_traffic();
  world.run_periods(40);
  const auto report = metrics::measure_bandwidth(
      world.transport(), world.peers(), 40 * sim::seconds(5));
  // Paper Fig. 8: public peers within ~10-20% of natted peers.
  EXPECT_GT(report.public_bytes_per_s, report.natted_bytes_per_s * 0.6);
  EXPECT_LT(report.public_bytes_per_s, report.natted_bytes_per_s * 1.5);
}

TEST(nylon_system, bandwidth_overhead_is_bounded_vs_reference) {
  auto run = [](core::protocol_kind kind) {
    runtime::experiment_config cfg = nylon_config(0.8, 23);
    cfg.protocol = kind;
    runtime::scenario world(cfg);
    world.run_periods(10);
    world.transport().reset_traffic();
    world.run_periods(30);
    return metrics::measure_bandwidth(world.transport(), world.peers(),
                                      30 * sim::seconds(5))
        .all_bytes_per_s;
  };
  const double nylon_bw = run(core::protocol_kind::nylon);
  const double reference_bw = run(core::protocol_kind::reference);
  EXPECT_GT(nylon_bw, reference_bw * 0.8);
  // Paper Fig. 7: Nylon's overhead is moderate (well under 2x at 80%).
  EXPECT_LT(nylon_bw, reference_bw * 2.5);
}

TEST(nylon_system, sampling_stream_passes_runs_and_serial_tests) {
  runtime::scenario world(nylon_config(0.7, 29));
  world.run_periods(60);
  // One sample per peer per pass: consecutive stream elements then come
  // from different views, as a consumer of the sampling service would
  // observe (drawing several samples from one 8-entry view back-to-back
  // is trivially correlated and tests nothing about the protocol).
  std::vector<std::uint32_t> sampled;
  for (int k = 0; k < 4; ++k) {
    for (const auto& p : world.peers()) {
      if (const auto s = p->sample()) sampled.push_back(s->id);
    }
  }
  const auto battery = metrics::run_battery(sampled, 250);
  // Composition is slightly public-biased, but the
  // stream must be independent and well-spread.
  EXPECT_GT(battery.runs.p_value, 0.001);
  EXPECT_LT(std::abs(battery.serial), 0.1);
}

}  // namespace
}  // namespace nylon
