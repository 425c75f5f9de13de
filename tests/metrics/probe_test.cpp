// The probe registry: named typed wrappers over the metric calls,
// evaluated against real (small) scenarios — scalar, per_class,
// distribution and check probes, plus the selector layer the spec
// executor narrows non-scalar probes through.
#include "metrics/probe.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "metrics/bandwidth.h"
#include "metrics/graph_analysis.h"
#include "runtime/scenario.h"
#include "util/contracts.h"

namespace nylon::metrics {
namespace {

runtime::experiment_config small_config(core::protocol_kind kind) {
  runtime::experiment_config cfg;
  cfg.peer_count = 50;
  cfg.natted_fraction = 0.5;
  cfg.protocol = kind;
  cfg.gossip.view_size = 8;
  cfg.seed = 7;
  return cfg;
}

TEST(probe_registry, lookup_and_uniqueness) {
  EXPECT_NE(find_probe("stale_pct"), nullptr);
  EXPECT_NE(find_probe("biggest_cluster_pct"), nullptr);
  EXPECT_NE(find_probe("all_bytes_per_s"), nullptr);
  EXPECT_NE(find_probe("punch_success_pct"), nullptr);
  EXPECT_EQ(find_probe("no_such_probe"), nullptr);
  EXPECT_EQ(find_probe(""), nullptr);

  std::set<std::string_view> names;
  for (const probe& p : all_probes()) {
    EXPECT_FALSE(p.name.empty());
    EXPECT_FALSE(p.description.empty());
    EXPECT_NE(p.run, nullptr);
    EXPECT_TRUE(names.insert(p.name).second) << "duplicate " << p.name;
    if (p.kind == probe_kind::per_class) {
      EXPECT_FALSE(p.class_keys.empty()) << p.name;
    }
  }
  EXPECT_GE(names.size(), 20u);
}

TEST(probe_registry, taxonomy_kinds_are_declared) {
  EXPECT_EQ(find_probe("stale_pct")->kind, probe_kind::scalar);
  EXPECT_EQ(find_probe("class_bytes_per_s")->kind, probe_kind::per_class);
  EXPECT_EQ(find_probe("class_in_degree")->kind, probe_kind::per_class);
  EXPECT_EQ(find_probe("rvp_chain")->kind, probe_kind::distribution);
  EXPECT_EQ(find_probe("in_degree")->kind, probe_kind::distribution);
  EXPECT_EQ(find_probe("traversal_prescribed")->kind, probe_kind::check);
  EXPECT_EQ(find_probe("check_connected")->kind, probe_kind::check);
  EXPECT_FALSE(find_probe("traversal_prescribed")->needs_world);
  EXPECT_TRUE(find_probe("check_connected")->needs_world);
  EXPECT_TRUE(find_probe("in_degree")->quantiles);
  EXPECT_FALSE(find_probe("rvp_chain")->quantiles);
  EXPECT_EQ(to_string(probe_kind::scalar), "scalar");
  EXPECT_EQ(to_string(probe_kind::per_class), "per_class");
  EXPECT_EQ(to_string(probe_kind::distribution), "distribution");
  EXPECT_EQ(to_string(probe_kind::check), "check");
}

TEST(probe_registry, evaluates_on_a_real_scenario) {
  runtime::scenario world(small_config(core::protocol_kind::nylon));
  world.run_periods(10);
  const reachability_oracle oracle = world.oracle();
  const probe_context ctx{world, oracle,
                          10 * world.config().gossip.shuffle_period};

  const std::vector<std::string> names{
      "alive_count", "biggest_cluster_pct", "stale_pct",
      "all_bytes_per_s", "shuffle_success_pct", "punch_success_pct"};
  std::vector<double> values;
  for (const std::string& name : names) {
    values.push_back(eval_scalar(resolve_selector(name, {}, {}), ctx));
  }
  EXPECT_EQ(values[0], 50.0);                      // alive_count
  EXPECT_GT(values[1], 0.0);                       // cluster %
  EXPECT_LE(values[1], 100.0);
  EXPECT_GE(values[2], 0.0);                       // stale %
  EXPECT_LE(values[2], 100.0);
  EXPECT_GT(values[3], 0.0);                       // traffic flowed
  EXPECT_GT(values[4], 0.0);                       // shuffles answered
  EXPECT_GE(values[5], 0.0);                       // punches attempted
  EXPECT_LE(values[5], 100.0);
}

TEST(probe_registry, punch_probes_are_zero_for_nat_oblivious_protocols) {
  runtime::scenario world(small_config(core::protocol_kind::reference));
  world.run_periods(6);
  const reachability_oracle oracle = world.oracle();
  const probe_context ctx{world, oracle,
                          6 * world.config().gossip.shuffle_period};
  EXPECT_EQ(find_probe("punch_success_pct")->run(ctx).scalar, 0.0);
  EXPECT_EQ(find_probe("punch_expired_pct")->run(ctx).scalar, 0.0);
  EXPECT_EQ(find_probe("mean_punch_chain")->run(ctx).scalar, 0.0);
}

TEST(probe_registry, rate_probes_need_a_window) {
  runtime::scenario world(small_config(core::protocol_kind::nylon));
  world.run_periods(4);
  const reachability_oracle oracle = world.oracle();
  const probe_context no_window{world, oracle, 0};
  EXPECT_EQ(find_probe("all_bytes_per_s")->run(no_window).scalar, 0.0);
  EXPECT_EQ(find_probe("sent_bytes_per_s")->run(no_window).scalar, 0.0);
}

TEST(probe_registry, unknown_probe_name_is_a_contract_error) {
  EXPECT_THROW((void)resolve_selector("bogus", {}, {}), contract_error);
}

TEST(probe_registry, per_class_probe_matches_the_underlying_report) {
  runtime::scenario world(small_config(core::protocol_kind::nylon));
  world.run_periods(10);
  const reachability_oracle oracle = world.oracle();
  const sim::sim_time window = 10 * world.config().gossip.shuffle_period;
  const probe_context ctx{world, oracle, window};

  const probe_value v = find_probe("class_bytes_per_s")->run(ctx);
  ASSERT_EQ(v.kind, probe_kind::per_class);
  ASSERT_EQ(v.classes.size(), 3u);
  const bandwidth_report report =
      measure_bandwidth(world.transport(), world.peers(), window);
  EXPECT_EQ(v.classes[0].first, "public");
  EXPECT_EQ(v.classes[0].second, report.public_bytes_per_s);
  EXPECT_EQ(v.classes[1].first, "natted");
  EXPECT_EQ(v.classes[1].second, report.natted_bytes_per_s);
  EXPECT_EQ(v.classes[2].first, "all");
  EXPECT_EQ(v.classes[2].second, report.all_bytes_per_s);

  // Selector extraction picks the declared class.
  const probe_selector sel = resolve_selector("class_bytes_per_s",
                                              "natted", {});
  EXPECT_EQ(extract_scalar(sel, v), report.natted_bytes_per_s);

  const probe_value deg = find_probe("class_in_degree")->run(ctx);
  ASSERT_EQ(deg.kind, probe_kind::per_class);
  const class_degree_report degrees =
      in_degrees_by_class(world.transport(), world.peers());
  EXPECT_EQ(deg.classes[0].second, degrees.public_mean);
  EXPECT_EQ(deg.classes[1].second, degrees.natted_mean);
  EXPECT_GT(degrees.all_mean, 0.0);
}

TEST(probe_registry, distribution_probe_summarizes_samples) {
  runtime::scenario world(small_config(core::protocol_kind::nylon));
  world.run_periods(10);
  const reachability_oracle oracle = world.oracle();
  const probe_context ctx{world, oracle, 0};

  const probe_value v = find_probe("in_degree")->run(ctx);
  ASSERT_EQ(v.kind, probe_kind::distribution);
  EXPECT_EQ(v.dist.count, 50u);  // one entry per peer
  EXPECT_GT(v.dist.mean, 0.0);
  EXPECT_TRUE(v.dist.has_quantiles);
  EXPECT_LE(v.dist.min, v.dist.p50);
  EXPECT_LE(v.dist.p50, v.dist.p90);
  EXPECT_LE(v.dist.p90, v.dist.p99);
  EXPECT_LE(v.dist.p99, v.dist.max);

  // cv == stddev / mean, the legacy §5 dispersion cell.
  const probe_selector cv = resolve_selector("in_degree", {}, "cv");
  EXPECT_DOUBLE_EQ(extract_scalar(cv, v), v.dist.stddev / v.dist.mean);

  // rvp_chain merges Nylon punch + relay chains and streams (no
  // quantiles); its mean matches the scenario accessor.
  const probe_value chains = find_probe("rvp_chain")->run(ctx);
  ASSERT_EQ(chains.kind, probe_kind::distribution);
  EXPECT_FALSE(chains.dist.has_quantiles);
  const runtime::punch_stat_totals totals = world.punch_totals();
  EXPECT_EQ(chains.dist.count, totals.rvp_chains.count());
  if (totals.rvp_chains.count() > 0) {
    EXPECT_DOUBLE_EQ(chains.dist.mean, totals.rvp_chains.mean());
  }
}

TEST(probe_registry, check_probes_pass_on_a_healthy_overlay) {
  runtime::scenario world(small_config(core::protocol_kind::nylon));
  world.run_periods(10);
  const reachability_oracle oracle = world.oracle();
  const probe_context ctx{world, oracle, 0};

  const probe_value connected = find_probe("check_connected")->run(ctx);
  ASSERT_EQ(connected.kind, probe_kind::check);
  EXPECT_TRUE(connected.check.passed);
  EXPECT_EQ(connected.check.cell, "ok");
  EXPECT_NE(connected.check.detail.find("clusters=1"), std::string::npos);

  const probe_value fresh = find_probe("check_no_dead_refs")->run(ctx);
  EXPECT_TRUE(fresh.check.passed);  // nobody departed
}

TEST(probe_registry, traversal_check_probe_is_world_free) {
  // The §2.2 table cell: prescribed technique + packet-level verification,
  // evaluated on a world-free context via '%' params.
  probe_context ctx{std::map<std::string, std::string>{
      {"src_nat", "SYM"}, {"dst_nat", "public"}}};
  const probe_value v = find_probe("traversal_prescribed")->run(ctx);
  ASSERT_EQ(v.kind, probe_kind::check);
  EXPECT_TRUE(v.check.passed);
  EXPECT_EQ(v.check.cell, "direct");

  // Missing / malformed params carry actionable messages.
  probe_context missing{std::map<std::string, std::string>{}};
  EXPECT_THROW((void)find_probe("traversal_prescribed")->run(missing),
               contract_error);
  probe_context bogus{std::map<std::string, std::string>{
      {"src_nat", "carrier-grade"}, {"dst_nat", "public"}}};
  EXPECT_THROW((void)find_probe("traversal_prescribed")->run(bogus),
               contract_error);

  // World access on a world-free context is a contract error.
  EXPECT_FALSE(ctx.has_world());
  EXPECT_THROW((void)ctx.world(), contract_error);
  EXPECT_THROW((void)find_probe("stale_pct")->run(ctx), contract_error);
}

TEST(probe_selectors, validate_kind_and_selection_misuse) {
  // Scalars take neither class nor stat.
  EXPECT_NO_THROW((void)resolve_selector("stale_pct", {}, {}));
  EXPECT_THROW((void)resolve_selector("stale_pct", "public", {}),
               contract_error);
  EXPECT_THROW((void)resolve_selector("stale_pct", {}, "mean"),
               contract_error);
  // per_class needs a declared class.
  EXPECT_THROW((void)resolve_selector("class_bytes_per_s", {}, {}),
               contract_error);
  EXPECT_THROW((void)resolve_selector("class_bytes_per_s", "martian", {}),
               contract_error);
  EXPECT_THROW((void)resolve_selector("class_bytes_per_s", {}, "mean"),
               contract_error);
  EXPECT_NO_THROW((void)resolve_selector("class_bytes_per_s", "public", {}));
  // distribution needs a stat; quantiles only where samples are kept.
  EXPECT_THROW((void)resolve_selector("rvp_chain", {}, {}), contract_error);
  EXPECT_THROW((void)resolve_selector("rvp_chain", {}, "p90"),
               contract_error);
  EXPECT_THROW((void)resolve_selector("rvp_chain", {}, "variance"),
               contract_error);
  EXPECT_NO_THROW((void)resolve_selector("rvp_chain", {}, "mean"));
  EXPECT_NO_THROW((void)resolve_selector("in_degree", {}, "p90"));
  // check probes have no scalar view.
  EXPECT_THROW((void)resolve_selector("check_connected", {}, {}),
               contract_error);
  // The misuse messages name the fix.
  try {
    (void)resolve_selector("class_bytes_per_s", {}, {});
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("per_class"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("class"), std::string::npos);
  }
}

TEST(probe_registry, battery_probes_share_one_stream_per_context) {
  runtime::scenario world(small_config(core::protocol_kind::nylon));
  world.run_periods(10);
  const reachability_oracle oracle = world.oracle();
  const probe_context ctx{world, oracle,
                          10 * world.config().gossip.shuffle_period};

  // The first battery probe builds and caches the sampled-id stream;
  // later ones must judge the same stream (sampling consumes rngs, so
  // a rebuild would see different draws).
  const double runs_p = find_probe("sample_runs_p")->run(ctx).scalar;
  ASSERT_TRUE(ctx.battery.has_value());
  const std::size_t samples = ctx.battery->samples;
  EXPECT_GT(samples, 0u);
  EXPECT_EQ(find_probe("sample_runs_p")->run(ctx).scalar, runs_p);  // cached
  const double serial = find_probe("sample_serial")->run(ctx).scalar;
  const double birthday_p = find_probe("sample_birthday_p")->run(ctx).scalar;
  const double chi2_p = find_probe("sample_chi2_p")->run(ctx).scalar;
  EXPECT_EQ(ctx.battery->samples, samples);  // no rebuild happened

  // Sanity of the shared results (no distributional pass/fail assert
  // here: the frequency test legitimately flags the public-vs-natted
  // composition bias on mixed overlays — see the sec5_correctness spec).
  EXPECT_GE(runs_p, 0.0);
  EXPECT_LE(runs_p, 1.0);
  EXPECT_GE(birthday_p, 0.0);
  EXPECT_LE(birthday_p, 1.0);
  EXPECT_GE(chi2_p, 0.0);
  EXPECT_LE(chi2_p, 1.0);
  EXPECT_GE(serial, -1.0);
  EXPECT_LE(serial, 1.0);
}

/// Probe columns that share a spec run evaluate on one context, one
/// after another; that is only sound when a non-passive probe reads the
/// same value after another one ran as it does alone. Every such probe
/// draws from the one battery cached on its context, which is what
/// keeps the pairs below equal.
TEST(probe_registry, non_passive_probes_agree_after_one_another) {
  const auto fresh_context_eval = [](const probe* first, const probe& p) {
    runtime::scenario world(small_config(core::protocol_kind::nylon));
    world.run_periods(10);
    const reachability_oracle oracle = world.oracle();
    const probe_context ctx{world, oracle,
                            10 * world.config().gossip.shuffle_period};
    if (first != nullptr) (void)first->run(ctx);
    return p.run(ctx);
  };
  std::vector<const probe*> non_passive;
  for (const probe& p : all_probes()) {
    if (!p.passive && p.needs_world) non_passive.push_back(&p);
  }
  ASSERT_GE(non_passive.size(), 5u);  // the sample_* battery + its check
  for (const probe* b : non_passive) {
    const probe_value alone = fresh_context_eval(nullptr, *b);
    for (const probe* a : non_passive) {
      SCOPED_TRACE(std::string(b->name) + " after " + std::string(a->name));
      const probe_value after = fresh_context_eval(a, *b);
      ASSERT_EQ(after.kind, alone.kind);
      if (alone.kind == probe_kind::check) {
        EXPECT_EQ(after.check.passed, alone.check.passed);
        EXPECT_EQ(after.check.detail, alone.check.detail);
      } else {
        EXPECT_EQ(after.scalar, alone.scalar);
        EXPECT_EQ(after.classes, alone.classes);
        EXPECT_EQ(after.dist.count, alone.dist.count);
        EXPECT_EQ(after.dist.mean, alone.dist.mean);
      }
    }
  }
}

}  // namespace
}  // namespace nylon::metrics
