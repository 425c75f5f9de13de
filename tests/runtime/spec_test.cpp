// The declarative experiment-spec API: JSON parse / validate, bad-input
// contract errors, axis resolution and small end-to-end runs.
#include "runtime/spec.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "metrics/probe.h"
#include "runtime/scenario.h"
#include "util/contracts.h"
#include "util/json.h"

namespace nylon::runtime {
namespace {

experiment_spec parse(const std::string& text) {
  return spec_from_json(util::json::parse(text));
}

const char* kMinimalSpec = R"({
  "name": "mini",
  "title": "a tiny study",
  "rows": [{"axis": "natted_pct", "header": "%NAT", "values": [0, 50]}],
  "probes": [{"probe": "stale_pct", "header": "stale %"}]
})";

TEST(experiment_spec, parses_a_minimal_spec) {
  const experiment_spec spec = parse(kMinimalSpec);
  EXPECT_EQ(spec.name, "mini");
  ASSERT_EQ(spec.rows.size(), 1u);
  EXPECT_EQ(spec.rows[0].key, "natted_pct");
  EXPECT_EQ(spec.rows[0].values, (std::vector<std::string>{"0", "50"}));
  EXPECT_TRUE(spec.shared_run);
  ASSERT_EQ(spec.columns.size(), 1u);
  EXPECT_EQ(spec.columns[0].probe, "stale_pct");
}

TEST(experiment_spec, range_sugar_expands_inclusively) {
  const experiment_spec spec = parse(R"({
    "name": "r",
    "rows": [{"axis": "natted_pct", "header": "%NAT",
              "range": {"from": 0, "to": 100, "step": 25}}],
    "probes": [{"probe": "stale_pct"}]
  })");
  EXPECT_EQ(spec.rows[0].values,
            (std::vector<std::string>{"0", "25", "50", "75", "100"}));
}

TEST(experiment_spec, column_sweep_sugar_expands_headers_and_sets) {
  const experiment_spec spec = parse(R"({
    "name": "s",
    "rows": [{"axis": "view_size", "header": "view", "values": [8]}],
    "columns": [{
      "sweep": {"axis": "natted_pct", "values": [40, 90]},
      "header": "{}%",
      "probe": "biggest_cluster_pct"
    }]
  })");
  ASSERT_EQ(spec.columns.size(), 2u);
  EXPECT_EQ(spec.columns[0].header, "40%");
  EXPECT_EQ(spec.columns[1].header, "90%");
  ASSERT_EQ(spec.columns[1].set.size(), 1u);
  EXPECT_EQ(spec.columns[1].set[0],
            (spec_setting{"natted_pct", std::string("90")}));
}

TEST(experiment_spec, bad_inputs_throw_contract_errors) {
  // name missing
  EXPECT_THROW(parse(R"({"rows":[{"axis":"natted_pct","header":"x",
    "values":[1]}],"probes":[{"probe":"stale_pct"}]})"),
               contract_error);
  // no rows
  EXPECT_THROW(parse(R"({"name":"x","probes":[{"probe":"stale_pct"}]})"),
               contract_error);
  // both columns and probes
  EXPECT_THROW(parse(R"({"name":"x",
    "rows":[{"axis":"natted_pct","header":"h","values":[1]}],
    "probes":[{"probe":"stale_pct"}],
    "columns":[{"header":"c","probe":"stale_pct"}]})"),
               contract_error);
  // unknown probe
  EXPECT_THROW(parse(R"({"name":"x",
    "rows":[{"axis":"natted_pct","header":"h","values":[1]}],
    "probes":[{"probe":"not_a_probe"}]})"),
               contract_error);
  // unknown axis key
  EXPECT_THROW(parse(R"({"name":"x",
    "rows":[{"axis":"coolness","header":"h","values":[1]}],
    "probes":[{"probe":"stale_pct"}]})"),
               contract_error);
  // unknown top-level key (typo safety)
  EXPECT_THROW(parse(R"({"name":"x","colums":[],
    "rows":[{"axis":"natted_pct","header":"h","values":[1]}],
    "probes":[{"probe":"stale_pct"}]})"),
               contract_error);
  // a count with no size_t value (the cast would be undefined)
  for (const char* count : {"1e300", "18446744073709551616", "1e20"}) {
    EXPECT_THROW(parse(std::string(R"({"name":"x","base":{"peers":)") +
                       count + R"(},
      "rows":[{"axis":"natted_pct","header":"h","values":[1]}],
      "probes":[{"probe":"stale_pct"}]})"),
                 contract_error)
        << count;
  }
  // natted_pct out of range
  EXPECT_THROW(parse(R"({"name":"x",
    "rows":[{"axis":"natted_pct","header":"h","values":[150]}],
    "probes":[{"probe":"stale_pct"}]})"),
               contract_error);
  // ratio referencing a later column
  EXPECT_THROW(parse(R"({"name":"x",
    "rows":[{"axis":"natted_pct","header":"h","values":[1]}],
    "columns":[{"header":"r","ratio":[1,0]},
               {"header":"c","probe":"stale_pct"}]})"),
               contract_error);
  // bad warmup literal
  EXPECT_THROW(parse(R"({"name":"x","warmup":"soon",
    "rows":[{"axis":"natted_pct","header":"h","values":[1]}],
    "probes":[{"probe":"stale_pct"}]})"),
               contract_error);
  // trajectories without a workload
  EXPECT_THROW(parse(R"({"name":"x","trajectories":true,
    "rows":[{"axis":"natted_pct","header":"h","values":[1]}],
    "probes":[{"probe":"stale_pct"}]})"),
               contract_error);
  // warmup is meaningless (and silently ignored) under a workload
  EXPECT_THROW(parse(R"({"name":"x","warmup":"half",
    "rows":[{"axis":"natted_pct","header":"h","values":[1]}],
    "probes":[{"probe":"stale_pct"}],
    "workload":{"phases":[{"kind":"steady","periods":2}]}})"),
               contract_error);
  // malformed workload phase
  EXPECT_THROW(parse(R"({"name":"x",
    "rows":[{"axis":"natted_pct","header":"h","values":[1]}],
    "probes":[{"probe":"stale_pct"}],
    "workload":{"phases":[{"kind":"warp_drive"}]}})"),
               contract_error);
  // a shared run has one config per row: no per-entry "set" or "sweep"
  EXPECT_THROW(parse(R"({"name":"x",
    "rows":[{"axis":"natted_pct","header":"h","values":[1]}],
    "probes":[{"probe":"stale_pct","set":{"protocol":"nylon"}}]})"),
               contract_error);
  EXPECT_THROW(parse(R"({"name":"x",
    "rows":[{"axis":"natted_pct","header":"h","values":[1]}],
    "probes":[{"probe":"stale_pct","header":"{}",
               "sweep":{"axis":"view_size","values":[8]}}]})"),
               contract_error);
}

TEST(experiment_spec, fields_parse_into_one_entry_type) {
  // "probes" entries, "columns" entries and "checks" entries are one
  // spec_entry type: selectors, ratios, row echoes, headers and labels.
  const experiment_spec shared = parse(R"({
    "name": "tax",
    "title": "taxonomy",
    "single_seed": true,
    "rows": [{"axis": "natted_pct", "header": "n", "values": [0, 50]}],
    "probes": [
      {"probe": "class_bytes_per_s", "class": "public", "header": "pub"},
      {"probe": "class_bytes_per_s", "class": "natted", "header": "nat"},
      {"header": "pub/nat", "ratio": [0, 1], "precision": 2},
      {"probe": "in_degree", "stat": "cv"}
    ],
    "checks": [
      {"probe": "check_connected"},
      {"probe": "check_no_dead_refs", "name": "freshness"}
    ],
    "verdict": {"pass": "ok", "fail": "FAILED"},
    "profiles": {
      "full": {"peers": 10000, "seeds": 30, "rounds": 600,
               "view_a": 15, "view_b": 27},
      "quick": {"peers": 100, "vars": {"half_rounds": 2}}
    }
  })");
  EXPECT_TRUE(shared.shared_run);
  EXPECT_TRUE(shared.single_seed);
  ASSERT_EQ(shared.columns.size(), 4u);
  EXPECT_EQ(shared.columns[1].cls, "natted");
  EXPECT_EQ(shared.columns[2].k, spec_entry::kind::ratio);
  EXPECT_EQ(shared.columns[2].ratio_num, 0);
  EXPECT_EQ(shared.columns[2].ratio_den, 1);
  EXPECT_EQ(shared.columns[2].precision, 2);
  EXPECT_EQ(shared.columns[3].stat, "cv");
  EXPECT_EQ(shared.columns[3].header, "in_degree");  // defaults to the probe
  ASSERT_EQ(shared.checks.size(), 2u);
  EXPECT_EQ(shared.checks[0].header, "check_connected");
  EXPECT_EQ(shared.checks[1].header, "freshness");
  ASSERT_TRUE(shared.verdict.has_value());
  EXPECT_EQ(shared.verdict->fail, "FAILED");
  ASSERT_EQ(shared.profiles.size(), 2u);
  EXPECT_EQ(shared.profiles[1].first, "quick");
  EXPECT_EQ(shared.profiles[1].second.peers.value(), 100);
  EXPECT_FALSE(shared.profiles[1].second.seeds.has_value());

  const experiment_spec per_column = parse(R"({
    "name": "full",
    "title": "t",
    "footer": ["# a", "# b"],
    "base": {"protocol": "nylon", "natted_pct": 80},
    "warmup": "half",
    "split": {"axis": "view_size", "values": ["$view_a", "$view_b"],
              "section": "== view {} ==", "table_key": "view_{}"},
    "rows": [{"axis": "hole_timeout_s", "header": "ttl",
              "values": [15, 90]}],
    "columns": [
      {"header": "a", "set": {"protocol": "reference"},
       "probe": "all_bytes_per_s"},
      {"probe": "all_bytes_per_s"},
      {"header": "a/b", "ratio": [0, 1], "precision": 2},
      {"header": "ttl", "row_value": true}
    ],
    "report_params": ["peers", "seeds"]
  })");
  EXPECT_FALSE(per_column.shared_run);
  ASSERT_TRUE(per_column.split.has_value());
  EXPECT_EQ(per_column.split->table_key, "view_{}");
  EXPECT_EQ(per_column.warmup, "half");
  ASSERT_EQ(per_column.columns.size(), 4u);
  EXPECT_EQ(per_column.columns[0].set[0],
            (spec_setting{"protocol", std::string("reference")}));
  EXPECT_EQ(per_column.columns[1].header, "all_bytes_per_s");
  EXPECT_EQ(per_column.columns[3].k, spec_entry::kind::row_value);
  EXPECT_EQ(per_column.report_params,
            (std::vector<std::string>{"peers", "seeds"}));
}

TEST(experiment_spec, runs_end_to_end_and_is_deterministic) {
  const experiment_spec spec = parse(R"({
    "name": "tiny",
    "title": "tiny end-to-end",
    "rows": [{"axis": "natted_pct", "header": "%NAT", "values": [0, 60]}],
    "columns": [
      {"header": "stale view=$view_a", "set": {"view_size": "$view_a"},
       "probe": "stale_pct"},
      {"header": "%NAT again", "row_value": true}
    ],
    "footer": ["# done"]
  })");
  spec_options opt;
  opt.peers = 40;
  opt.rounds = 4;
  opt.seeds = 2;
  opt.threads = 1;
  std::ostringstream out_a;
  const util::json doc_a = run_spec(spec, opt, out_a);
  std::ostringstream out_b;
  const util::json doc_b = run_spec(spec, opt, out_b);
  EXPECT_EQ(out_a.str(), out_b.str());
  EXPECT_EQ(doc_a.dump_string(0), doc_b.dump_string(0));

  // Structure: preamble + resolved headers + one row per axis value.
  const std::string text = out_a.str();
  EXPECT_NE(text.find("# tiny end-to-end"), std::string::npos);
  EXPECT_NE(text.find("stale view=8"), std::string::npos);
  EXPECT_NE(text.find("# done"), std::string::npos);
  const util::json& table = doc_a.at("table");
  EXPECT_EQ(table.at("rows").size(), 2u);
  // row_value column echoes the row label.
  EXPECT_EQ(table.at("rows").at(std::size_t{1}).at(std::size_t{2}).as_string(),
            "60");
}

TEST(experiment_spec, timeline_parses_and_validates) {
  const char* text = R"({
    "name": "tl",
    "rows": [{"axis": "natted_pct", "header": "%NAT", "values": [50]}],
    "probes": [{"probe": "stale_pct"}],
    "timeline": {"period_s": 2.5,
                 "probes": ["alive_count", "drop_count.nat_filtered",
                            "in_degree.cv", "obs.arena_bytes_peak"]}
  })";
  const experiment_spec spec = parse(text);
  EXPECT_TRUE(spec.timeline.enabled);
  EXPECT_DOUBLE_EQ(spec.timeline.period_s, 2.5);
  ASSERT_EQ(spec.timeline.probes.size(), 4u);
  EXPECT_EQ(spec.timeline.probes[3], "obs.arena_bytes_peak");
}

TEST(experiment_spec, timeline_misuse_is_a_validation_error) {
  const auto tl_spec = [](const char* timeline) {
    return std::string(R"({"name":"x",
      "rows":[{"axis":"natted_pct","header":"h","values":[50]}],
      "probes":[{"probe":"stale_pct"}],
      "timeline":)") + timeline + "}";
  };
  // Non-passive probe: the randomness battery consumes peer rngs, so it
  // must never ride a mid-run timeline.
  EXPECT_THROW(
      parse(tl_spec(R"({"period_s":5,"probes":["sample_birthday_p"]})")),
      contract_error);
  // Check probes have no scalar view.
  EXPECT_THROW(
      parse(tl_spec(R"({"period_s":5,"probes":["check_connected"]})")),
      contract_error);
  // Selector misuse and unknown names surface at validation.
  EXPECT_THROW(parse(tl_spec(R"({"period_s":5,"probes":["drop_count"]})")),
               contract_error);
  EXPECT_THROW(parse(tl_spec(R"({"period_s":5,"probes":["no_such"]})")),
               contract_error);
  EXPECT_THROW(parse(tl_spec(R"({"period_s":5,"probes":["obs.bogus"]})")),
               contract_error);
  // A positive period and at least one column are required.
  EXPECT_THROW(parse(tl_spec(R"({"period_s":0,"probes":["alive_count"]})")),
               contract_error);
  EXPECT_THROW(parse(tl_spec(R"({"period_s":5,"probes":[]})")),
               contract_error);
  // Static specs have no sim time to sample.
  EXPECT_THROW(parse(R"({"name":"x","static":true,
    "rows":[{"axis":"%a","header":"h","values":["open"]}],
    "probes":[{"probe":"traversal_prescribed"}],
    "timeline":{"period_s":5,"probes":["alive_count"]}})"),
               contract_error);
}

TEST(experiment_spec, timeline_records_per_seed_series_only_when_enabled) {
  const char* base = R"({
    "name": "tl_run",
    "rows": [{"axis": "natted_pct", "header": "%NAT", "values": [0, 60]}],
    "probes": [{"probe": "alive_count", "precision": 0}],
    "workload": {"phases": [{"kind": "steady", "periods": 4}]}
  })";
  spec_options opt;
  opt.peers = 30;
  opt.rounds = 2;
  opt.seeds = 2;
  opt.threads = 1;
  std::ostringstream plain_out;
  const util::json plain = run_spec(parse(base), opt, plain_out);
  EXPECT_EQ(plain.find("timeline"), nullptr);

  // Force-enabled via the driver flag (no spec block): default columns,
  // identical table output — sampling is observation-only.
  spec_options tl_opt = opt;
  tl_opt.timeline = true;
  tl_opt.timeline_period_s = 5.0;
  std::ostringstream tl_out;
  const util::json doc = run_spec(parse(base), tl_opt, tl_out);
  EXPECT_EQ(plain_out.str(), tl_out.str());
  ASSERT_NE(doc.find("timeline"), nullptr);
  const util::json& block = doc.at("timeline");
  EXPECT_DOUBLE_EQ(block.at("period_s").as_double(), 5.0);
  EXPECT_EQ(block.at("columns").at(0).as_string(), "t_s");
  ASSERT_EQ(block.at("cells").size(), 2u);  // one per row
  const util::json& cell = block.at("cells").at(0);
  EXPECT_EQ(cell.at("row").at(std::size_t{0}).as_string(), "0");
  ASSERT_EQ(cell.at("per_seed").size(), 2u);  // one series per seed
  const util::json& series = cell.at("per_seed").at(0);
  ASSERT_GT(series.size(), 0u);
  // Sim time advances monotonically and each sample carries one value
  // per column.
  double last_t = 0.0;
  for (const util::json& sample : series.array_items()) {
    ASSERT_EQ(sample.size(), block.at("columns").size());
    EXPECT_GT(sample.at(0).as_double(), last_t);
    last_t = sample.at(0).as_double();
  }
  // Everything else in the report is unchanged by sampling.
  util::json stripped = util::json::object();
  for (const auto& [key, value] : doc.object_items()) {
    if (key != "timeline") stripped[key] = value;
  }
  EXPECT_EQ(stripped.dump_string(0), plain.dump_string(0));
}

TEST(experiment_spec, csv_mode_renders_csv) {
  const experiment_spec spec = parse(kMinimalSpec);
  spec_options opt;
  opt.peers = 30;
  opt.rounds = 2;
  opt.csv = true;
  opt.threads = 1;
  std::ostringstream out;
  (void)run_spec(spec, opt, out);
  EXPECT_NE(out.str().find("%NAT,stale %"), std::string::npos);
}

TEST(experiment_spec, workload_variables_and_cells_run_end_to_end) {
  // A miniature fig10 shape: a '$' row axis sweeping a workload
  // parameter, a cell_key'd sweep column, builtin $rounds/$half_rounds
  // durations, extended report params, and the per-cell aggregate table.
  const experiment_spec spec = parse(R"({
    "name": "cells_demo",
    "title": "cells demo",
    "base": {"protocol": "nylon"},
    "workload": {
      "phases": [
        {"kind": "steady", "periods": "$half_rounds"},
        {"kind": "mass_departure", "fraction": "$departures/100"},
        {"kind": "steady", "periods": "$rounds"}
      ]
    },
    "rows": [{"axis": "$departures", "header": "dep", "cell_key": "departures_pct",
              "values": ["20%", "40%"]}],
    "columns": [
      {"sweep": {"axis": "natted_pct", "cell_key": "nat_pct", "values": [0, 50]},
       "header": "{}", "probe": "alive_count", "precision": 0}
    ],
    "cells": true,
    "report_params": ["peers", "warmup_periods=$half_rounds", "heal_periods=$rounds"]
  })");
  spec_options opt;
  opt.peers = 40;
  opt.rounds = 4;
  opt.seeds = 2;
  opt.threads = 1;
  std::ostringstream out;
  const util::json doc = run_spec(spec, opt, out);

  EXPECT_EQ(doc.at("params").at("warmup_periods").as_int(), 2);
  EXPECT_EQ(doc.at("params").at("heal_periods").as_int(), 4);
  const util::json& cells = doc.at("cells");
  ASSERT_EQ(cells.size(), 4u);  // 2 rows x 2 sweep columns
  const util::json& first = cells.at(std::size_t{0});
  EXPECT_EQ(first.at("departures_pct").as_int(), 20);
  EXPECT_EQ(first.at("nat_pct").as_int(), 0);
  // The aggregate carries per-seed values plus summary stats.
  EXPECT_EQ(first.at("alive_count").at("values").size(), 2u);
  // 20% of 40 peers depart -> 32 alive, deterministically.
  EXPECT_DOUBLE_EQ(first.at("alive_count").at("mean").as_double(), 32.0);
  const util::json& last = cells.at(std::size_t{3});
  EXPECT_EQ(last.at("departures_pct").as_int(), 40);
  EXPECT_EQ(last.at("nat_pct").as_int(), 50);
  EXPECT_DOUBLE_EQ(last.at("alive_count").at("mean").as_double(), 24.0);
}

TEST(experiment_spec, workload_variable_misuse_throws) {
  // '$' axes need a workload to substitute into.
  EXPECT_THROW(parse(R"({
    "name": "x", "title": "t",
    "rows": [{"axis": "$frac", "header": "f", "values": [1, 2]}],
    "probes": [{"probe": "stale_pct", "header": "s"}]
  })"),
               contract_error);
  // Variable tokens must be numeric.
  EXPECT_THROW(parse(R"({
    "name": "x", "title": "t",
    "workload": {"phases": [{"kind": "mass_departure", "fraction": "$frac"}]},
    "rows": [{"axis": "$frac", "header": "f", "values": ["lots"]}],
    "probes": [{"probe": "stale_pct", "header": "s"}]
  })"),
               contract_error);
  // "cells" is a columns-mode feature.
  EXPECT_THROW(parse(R"({
    "name": "x", "title": "t", "cells": true,
    "rows": [{"axis": "natted_pct", "header": "n", "values": [0]}],
    "probes": [{"probe": "stale_pct", "header": "s"}]
  })"),
               contract_error);
  // Report params only resolve builtin variables.
  EXPECT_THROW(parse(R"({
    "name": "x", "title": "t",
    "rows": [{"axis": "natted_pct", "header": "n", "values": [0]}],
    "probes": [{"probe": "stale_pct", "header": "s"}],
    "report_params": ["warmup=$bogus"]
  })"),
               contract_error);
  // cells serializes cell_key'd axis values as numbers: non-numeric
  // tokens are rejected at validation, not after the first cell ran.
  EXPECT_THROW(parse(R"({
    "name": "x", "title": "t", "cells": true,
    "rows": [{"axis": "protocol", "header": "p", "cell_key": "proto",
              "values": ["nylon", "reference"]}],
    "columns": [{"header": "c", "probe": "alive_count"}]
  })"),
               contract_error);
}

TEST(experiment_spec, column_sweep_can_drive_a_workload_variable) {
  // The swept '$' variable lives in the *columns*, not the rows; the
  // validator must seed it into the workload resolution all the same.
  const experiment_spec spec = parse(R"({
    "name": "colvar", "title": "column-swept workload",
    "workload": {"phases": [
      {"kind": "mass_departure", "fraction": "$dep/100"},
      {"kind": "steady", "periods": 1}
    ]},
    "rows": [{"axis": "natted_pct", "header": "n", "values": [0]}],
    "columns": [
      {"sweep": {"axis": "$dep", "values": ["20", "60"]},
       "header": "dep {}", "probe": "alive_count", "precision": 0}
    ]
  })");
  spec_options opt;
  opt.peers = 40;
  opt.rounds = 2;
  opt.seeds = 1;
  opt.threads = 1;
  std::ostringstream out;
  const util::json doc = run_spec(spec, opt, out);
  const util::json& row = doc.at("table").at("rows").at(std::size_t{0});
  // 20% vs 60% departures of 40 peers: the per-column workloads differ.
  EXPECT_EQ(row.at(std::size_t{1}).as_string(), "32");
  EXPECT_EQ(row.at(std::size_t{2}).as_string(), "16");
}

TEST(experiment_spec, selector_misuse_is_a_validation_error) {
  // A per_class probe in a scalar column without a class selection.
  try {
    (void)parse(R"({
      "name": "x", "title": "t",
      "rows": [{"axis": "natted_pct", "header": "n", "values": [0]}],
      "probes": [{"probe": "class_bytes_per_s", "header": "B/s"}]
    })");
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("per_class"), std::string::npos) << what;
    EXPECT_NE(what.find("class"), std::string::npos) << what;
  }
  // A distribution probe without a stat.
  EXPECT_THROW((void)parse(R"({
    "name": "x", "title": "t",
    "rows": [{"axis": "natted_pct", "header": "n", "values": [0]}],
    "columns": [{"header": "c", "probe": "rvp_chain"}]
  })"),
               contract_error);
  // A quantile stat on a stream-only distribution probe.
  EXPECT_THROW((void)parse(R"({
    "name": "x", "title": "t",
    "rows": [{"axis": "natted_pct", "header": "n", "values": [0]}],
    "columns": [{"header": "c", "probe": "rvp_chain", "stat": "p90"}]
  })"),
               contract_error);
  // A check probe outside a static spec / checks list.
  EXPECT_THROW((void)parse(R"({
    "name": "x", "title": "t",
    "rows": [{"axis": "natted_pct", "header": "n", "values": [0]}],
    "columns": [{"header": "c", "probe": "check_connected"}]
  })"),
               contract_error);
  // checks must name check probes...
  EXPECT_THROW((void)parse(R"({
    "name": "x", "title": "t",
    "rows": [{"axis": "natted_pct", "header": "n", "values": [0]}],
    "probes": [{"probe": "stale_pct", "header": "s"}],
    "checks": [{"probe": "stale_pct"}]
  })"),
               contract_error);
  // ... and ride probes mode, not columns mode.
  EXPECT_THROW((void)parse(R"({
    "name": "x", "title": "t",
    "rows": [{"axis": "natted_pct", "header": "n", "values": [0]}],
    "columns": [{"header": "c", "probe": "stale_pct"}],
    "checks": [{"probe": "check_connected"}]
  })"),
               contract_error);
  // A verdict needs check probes somewhere.
  EXPECT_THROW((void)parse(R"({
    "name": "x", "title": "t",
    "rows": [{"axis": "natted_pct", "header": "n", "values": [0]}],
    "probes": [{"probe": "stale_pct", "header": "s"}],
    "verdict": {"pass": "ok", "fail": "bad"}
  })"),
               contract_error);
  // Static specs cannot reference world-needing probes or workloads.
  EXPECT_THROW((void)parse(R"({
    "name": "x", "title": "t", "static": true,
    "rows": [{"axis": "%src_nat", "header": "s", "values": ["SYM"]}],
    "columns": [{"header": "c", "probe": "stale_pct"}]
  })"),
               contract_error);
  EXPECT_THROW((void)parse(R"({
    "name": "x", "title": "t", "static": true,
    "rows": [{"axis": "%src_nat", "header": "s", "values": ["SYM"]}],
    "columns": [{"header": "c", "probe": "traversal_prescribed",
                 "set": {"%dst_nat": "SYM"}}],
    "workload": {"phases": [{"kind": "steady", "periods": 2}]}
  })"),
               contract_error);
  // preamble replaces title, not both.
  EXPECT_THROW((void)parse(R"({
    "name": "x", "title": "t", "preamble": ["# p"],
    "rows": [{"axis": "natted_pct", "header": "n", "values": [0]}],
    "probes": [{"probe": "stale_pct", "header": "s"}]
  })"),
               contract_error);
  // Ratio probe entries need seed aggregates: rejected in static specs
  // at validation, not via an internal postcondition at execution.
  EXPECT_THROW((void)parse(R"({
    "name": "x", "title": "t", "static": true,
    "rows": [{"axis": "%src_nat", "header": "s", "values": ["SYM"]}],
    "probes": [
      {"probe": "traversal_prescribed", "header": "a"},
      {"probe": "traversal_prescribed", "header": "b"},
      {"header": "r", "ratio": [0, 1]}
    ]
  })"),
               contract_error);
  // Report params must resolve without a profile: profile vars override
  // builtin *values*, they do not introduce report-param names.
  EXPECT_THROW((void)parse(R"({
    "name": "x", "title": "t",
    "rows": [{"axis": "natted_pct", "header": "n", "values": [0]}],
    "probes": [{"probe": "stale_pct", "header": "s"}],
    "profiles": {"full": {"vars": {"foo": 5}}},
    "report_params": ["x=$foo"]
  })"),
               contract_error);
}

TEST(experiment_spec, per_class_and_ratio_probes_share_one_run) {
  // The Fig. 8 shape: two classes of one per_class probe plus a ratio
  // entry, all riding a single scenario per row.
  const experiment_spec spec = parse(R"({
    "name": "classes", "title": "per-class",
    "warmup": "half",
    "base": {"protocol": "nylon"},
    "rows": [{"axis": "natted_pct", "header": "%NAT", "values": [40]}],
    "probes": [
      {"probe": "class_bytes_per_s", "class": "public", "header": "public B/s"},
      {"probe": "class_bytes_per_s", "class": "natted", "header": "natted B/s"},
      {"header": "public/natted", "ratio": [0, 1], "precision": 2}
    ]
  })");
  spec_options opt;
  opt.peers = 60;
  opt.rounds = 8;
  opt.seeds = 2;
  opt.threads = 1;
  std::ostringstream out;
  const util::json doc = run_spec(spec, opt, out);
  const util::json& row = doc.at("table").at("rows").at(std::size_t{0});
  const double pub = std::stod(row.at(std::size_t{1}).as_string());
  const double nat = std::stod(row.at(std::size_t{2}).as_string());
  const double ratio = std::stod(row.at(std::size_t{3}).as_string());
  EXPECT_GT(pub, 0.0);
  EXPECT_GT(nat, 0.0);
  EXPECT_NEAR(ratio, pub / nat, 0.01);  // table-precision rounding
}

TEST(experiment_spec, one_probe_column_is_the_same_study_in_either_mode) {
  // One row pipeline: a single probe column is one sweep per row whether
  // it is its own run ("columns") or the row's shared run ("probes"), and
  // ratio / row_value entries compute the same in both modes.
  const char* entries = R"([
      {"probe": "stale_pct", "header": "stale %", "precision": 3},
      {"header": "stale/stale", "ratio": [0, 0], "precision": 2},
      {"header": "%NAT", "row_value": true}
    ])";
  const auto spec_text = [&](const char* mode) {
    return std::string(R"({"name": "modes", "title": "t",
      "rows": [{"axis": "natted_pct", "header": "%NAT", "values": [0, 60]}],
      ")") + mode + "\": " + entries + "}";
  };
  spec_options opt;
  opt.peers = 40;
  opt.rounds = 4;
  opt.seeds = 2;
  opt.threads = 1;
  std::ostringstream per_column_out;
  const util::json per_column =
      run_spec(parse(spec_text("columns")), opt, per_column_out);
  std::ostringstream shared_out;
  const util::json shared =
      run_spec(parse(spec_text("probes")), opt, shared_out);
  EXPECT_EQ(per_column_out.str(), shared_out.str());
  EXPECT_EQ(per_column.dump_string(0), shared.dump_string(0));
  const util::json& row = shared.at("table").at("rows").at(std::size_t{1});
  EXPECT_EQ(row.at(std::size_t{3}).as_string(), "60");
}

TEST(experiment_spec, checks_emit_verdicts_and_exit_status) {
  const experiment_spec spec = parse(R"({
    "name": "checked", "title": "with checks",
    "base": {"protocol": "nylon"},
    "rows": [{"axis": "natted_pct", "header": "%NAT", "values": [0, 50]}],
    "probes": [{"probe": "biggest_cluster_pct", "header": "cluster %"}],
    "checks": [
      {"probe": "check_connected"},
      {"probe": "check_no_dead_refs", "name": "freshness"}
    ],
    "verdict": {"pass": "verification: ok", "fail": "verification: FAILED"}
  })");
  spec_options opt;
  opt.peers = 50;
  opt.rounds = 8;
  opt.seeds = 2;
  opt.threads = 1;
  std::ostringstream out;
  const util::json doc = run_spec(spec, opt, out);

  // The table itself is untouched by checks; verdicts land in JSON.
  EXPECT_EQ(doc.at("table").at("headers").size(), 2u);
  const util::json& checks = doc.at("checks");
  ASSERT_EQ(checks.size(), 4u);  // 2 rows x 2 checks
  EXPECT_EQ(checks.at(std::size_t{0}).at("check").as_string(),
            "check_connected");
  EXPECT_EQ(checks.at(std::size_t{1}).at("check").as_string(), "freshness");
  for (const util::json& entry : checks.array_items()) {
    EXPECT_TRUE(entry.at("passed").as_bool());
    EXPECT_EQ(entry.at("row").size(), 1u);
  }
  EXPECT_TRUE(all_checks_passed(doc));
  EXPECT_NE(out.str().find("verification: ok"), std::string::npos);

  // Determinism: a second run is byte-identical, checks included.
  std::ostringstream again;
  const util::json doc2 = run_spec(spec, opt, again);
  EXPECT_EQ(out.str(), again.str());
  EXPECT_EQ(doc.dump_string(0), doc2.dump_string(0));
}

TEST(experiment_spec, single_seed_runs_one_derived_seed) {
  // One run per cell at derive_seed(seed, 0): --seeds must not change a
  // byte, and the preamble echoes the one seed that ran.
  const experiment_spec spec = parse(R"({
    "name": "one_seed", "title": "single seed",
    "single_seed": true,
    "rows": [{"axis": "natted_pct", "header": "%NAT", "values": [30]}],
    "probes": [{"probe": "stale_pct", "header": "stale %", "precision": 4}]
  })");
  spec_options opt;
  opt.peers = 50;
  opt.rounds = 6;
  opt.seed = 42;
  opt.threads = 1;
  std::ostringstream one;
  const util::json doc_one = run_spec(spec, opt, one);
  opt.seeds = 7;  // ignored by single_seed
  std::ostringstream many;
  const util::json doc_many = run_spec(spec, opt, many);
  EXPECT_EQ(one.str(), many.str());
  EXPECT_EQ(doc_one.dump_string(0), doc_many.dump_string(0));
  EXPECT_NE(one.str().find(" seeds=1 "), std::string::npos);

  // It is the ordinary runner path: the same spec without single_seed,
  // run at --seeds 1, gives the identical result.
  experiment_spec plain = spec;
  plain.single_seed = false;
  opt.seeds = 1;
  std::ostringstream plain_out;
  const util::json doc_plain = run_spec(plain, opt, plain_out);
  EXPECT_EQ(plain_out.str(), one.str());
  EXPECT_EQ(doc_plain.dump_string(0), doc_one.dump_string(0));
}

TEST(experiment_spec, trajectory_only_capture_matches_the_combined_form) {
  // A trajectories-only spec (no checks, no timeline) records one
  // trajectory per seed — an array of snapshot objects — exactly as it
  // does when a timeline rides along in the same per-seed capture.
  const char* text = R"({
    "name": "traj_only",
    "rows": [{"axis": "natted_pct", "header": "%NAT", "values": [40]}],
    "probes": [{"probe": "alive_count", "precision": 0}],
    "workload": {"phases": [{"kind": "steady", "periods": 3},
                            {"kind": "mass_departure", "fraction": 0.3},
                            {"kind": "steady", "periods": 2}]},
    "trajectories": true
  })";
  spec_options opt;
  opt.peers = 30;
  opt.rounds = 2;
  opt.seeds = 2;
  opt.threads = 1;
  std::ostringstream out;
  const util::json doc = run_spec(parse(text), opt, out);
  ASSERT_NE(doc.find("trajectories"), nullptr);
  const util::json& series = doc.at("trajectories");
  ASSERT_EQ(series.size(), 1u);  // one row
  const util::json& per_seed = series.at(std::size_t{0}).at("per_seed");
  ASSERT_EQ(per_seed.size(), 2u);  // one trajectory per seed
  for (const util::json& trajectory : per_seed.array_items()) {
    ASSERT_TRUE(trajectory.is_array());
    ASSERT_GT(trajectory.size(), 0u);
    EXPECT_NE(trajectory.at(std::size_t{0}).find("alive"), nullptr);
  }

  spec_options tl_opt = opt;
  tl_opt.timeline = true;
  std::ostringstream tl_out;
  const util::json tl_doc = run_spec(parse(text), tl_opt, tl_out);
  EXPECT_EQ(tl_doc.at("trajectories").dump_string(0), series.dump_string(0));
}

TEST(experiment_spec, profiles_select_override_and_yield_to_explicit_flags) {
  const experiment_spec spec = parse(R"({
    "name": "profiled", "title": "profiles",
    "workload": {
      "phases": [
        {"kind": "steady", "periods": "$half_rounds"},
        {"kind": "mass_departure", "fraction": 0.5},
        {"kind": "steady", "periods": "$rounds"}
      ]
    },
    "rows": [{"axis": "natted_pct", "header": "%NAT", "values": [0]}],
    "columns": [{"header": "alive", "probe": "alive_count", "precision": 0}],
    "profiles": {
      "full": {"peers": 200, "seeds": 4, "rounds": 40,
               "vars": {"half_rounds": 3, "rounds": 5}}
    },
    "report_params": ["peers", "seeds",
                      "warmup_periods=$half_rounds", "heal_periods=$rounds"]
  })");
  spec_options opt;
  opt.peers = 40;
  opt.rounds = 4;
  opt.seeds = 1;
  opt.threads = 1;

  // No profile: builtins derive from --rounds.
  {
    std::ostringstream out;
    const util::json doc = run_spec(spec, opt, out);
    EXPECT_EQ(doc.at("params").at("peers").as_int(), 40);
    EXPECT_EQ(doc.at("params").at("warmup_periods").as_int(), 2);
    EXPECT_EQ(doc.at("params").at("heal_periods").as_int(), 4);
    EXPECT_NE(out.str().find("(reduced scale"), std::string::npos);
  }
  // Profile applies scale and variable overrides.
  opt.profile = "full";
  {
    std::ostringstream out;
    const util::json doc = run_spec(spec, opt, out);
    EXPECT_EQ(doc.at("params").at("peers").as_int(), 200);
    EXPECT_EQ(doc.at("params").at("seeds").as_int(), 4);
    EXPECT_EQ(doc.at("params").at("warmup_periods").as_int(), 3);
    EXPECT_EQ(doc.at("params").at("heal_periods").as_int(), 5);
    EXPECT_NE(out.str().find("(profile full)"), std::string::npos);
  }
  // Explicitly-given flags beat the profile; its vars still apply.
  opt.peers_explicit = true;
  opt.seeds_explicit = true;
  {
    std::ostringstream out;
    const util::json doc = run_spec(spec, opt, out);
    EXPECT_EQ(doc.at("params").at("peers").as_int(), 40);
    EXPECT_EQ(doc.at("params").at("seeds").as_int(), 1);
    EXPECT_EQ(doc.at("params").at("warmup_periods").as_int(), 3);
  }
  // An explicit --rounds also wins over the profile's overrides of the
  // rounds-derived builtins: "--profile full --rounds 4" must run a
  // genuinely reduced-scale workload, not the paper durations.
  opt.rounds_explicit = true;
  {
    std::ostringstream out;
    const util::json doc = run_spec(spec, opt, out);
    EXPECT_EQ(doc.at("params").at("warmup_periods").as_int(), 2);  // 4/2
    EXPECT_EQ(doc.at("params").at("heal_periods").as_int(), 4);
  }
  opt.rounds_explicit = false;
  // Unknown profiles throw with the available names.
  opt.profile = "overnight";
  std::ostringstream sink;
  try {
    (void)run_spec(spec, opt, sink);
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("full"), std::string::npos);
  }
}

TEST(experiment_spec, fig10_full_profile_pins_paper_scale_workload) {
  // The acceptance shape: --profile full on fig10 must reproduce the
  // paper's warmup-500 / heal-1500 run (ROADMAP "sharded --full fig10").
  const experiment_spec spec = load_spec_file(
      std::string(NYLON_SOURCE_DIR) + "/examples/specs/fig10_churn.json");
  const spec_profile* full = nullptr;
  for (const auto& [name, prof] : spec.profiles) {
    if (name == "full") full = &prof;
  }
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(full->peers.value(), 10000);
  EXPECT_EQ(full->seeds.value(), 30);
  std::map<std::string, std::string> vars(full->vars.begin(),
                                          full->vars.end());
  EXPECT_EQ(vars.at("half_rounds"), "500");
  EXPECT_EQ(vars.at("rounds"), "1500");
}

TEST(experiment_spec, static_spec_runs_without_simulation) {
  const experiment_spec spec = parse(R"({
    "name": "static_mini",
    "preamble": ["# tiny traversal check"],
    "static": true,
    "rows": [{"axis": "%src_nat", "header": "src", "values": ["RC", "SYM"]}],
    "columns": [
      {"header": "to public", "set": {"%dst_nat": "public"},
       "probe": "traversal_prescribed"},
      {"header": "to SYM", "set": {"%dst_nat": "SYM"},
       "probe": "traversal_prescribed"}
    ],
    "verdict": {"pass": "all pass", "fail": "some fail"}
  })");
  spec_options opt;
  opt.threads = 1;
  std::ostringstream out;
  const util::json doc = run_spec(spec, opt, out);
  EXPECT_NE(out.str().find("# tiny traversal check"), std::string::npos);
  EXPECT_EQ(out.str().find("# n="), std::string::npos);  // no std preamble
  EXPECT_NE(out.str().find("all pass"), std::string::npos);
  const util::json& checks = doc.at("checks");
  ASSERT_EQ(checks.size(), 4u);  // 2 rows x 2 check columns
  for (const util::json& entry : checks.array_items()) {
    EXPECT_TRUE(entry.at("passed").as_bool());
    EXPECT_NE(entry.find("column"), nullptr);
    EXPECT_NE(entry.find("detail"), nullptr);
  }
  // Cells carry the technique text, e.g. SYM -> SYM relays.
  EXPECT_EQ(doc.at("table")
                .at("rows")
                .at(std::size_t{1})
                .at(std::size_t{2})
                .as_string(),
            "relaying");
}

TEST(experiment_spec, sim_frames_transport_is_output_invariant) {
  // The codec transparency guarantee at the spec level: the same study
  // through serialized frames prints byte-identical tables and reports
  // (minus the "transport" marker non-sim runs add to the JSON).
  const experiment_spec spec = parse(kMinimalSpec);
  spec_options opt;
  opt.peers = 40;
  opt.rounds = 4;
  opt.seeds = 2;
  opt.threads = 1;
  std::ostringstream plain_out;
  const util::json plain = run_spec(spec, opt, plain_out);
  // Default transport leaves no marker, keeping pre-existing BENCH
  // documents byte-identical.
  EXPECT_EQ(plain.find("transport"), nullptr);

  opt.transport = "sim-frames";
  std::ostringstream framed_out;
  const util::json framed = run_spec(spec, opt, framed_out);
  EXPECT_EQ(framed_out.str(), plain_out.str());
  ASSERT_NE(framed.find("transport"), nullptr);
  EXPECT_EQ(framed.at("transport").as_string(), "sim-frames");
}

TEST(experiment_spec, transport_can_come_from_the_spec_base) {
  const experiment_spec spec = parse(R"({
    "name": "framed", "title": "t",
    "base": {"transport": "sim-frames"},
    "rows": [{"axis": "natted_pct", "header": "%NAT", "values": [0]}],
    "probes": [{"probe": "stale_pct", "header": "stale %"}]
  })");
  spec_options opt;
  opt.peers = 30;
  opt.rounds = 2;
  opt.threads = 1;
  std::ostringstream out;
  const util::json doc = run_spec(spec, opt, out);
  ASSERT_NE(doc.find("transport"), nullptr);
  EXPECT_EQ(doc.at("transport").as_string(), "sim-frames");
}

TEST(experiment_spec, bad_transport_token_throws) {
  const experiment_spec spec = parse(kMinimalSpec);
  spec_options opt;
  opt.peers = 30;
  opt.rounds = 2;
  opt.threads = 1;
  opt.transport = "carrier-pigeon";
  std::ostringstream out;
  EXPECT_THROW((void)run_spec(spec, opt, out), contract_error);
  // The same guard fires at parse time when the token sits in the spec.
  EXPECT_THROW(parse(R"({
    "name": "bad", "title": "t",
    "base": {"transport": "quantum"},
    "rows": [{"axis": "natted_pct", "header": "%NAT", "values": [0]}],
    "probes": [{"probe": "stale_pct", "header": "stale %"}]
  })"),
               contract_error);
}

TEST(experiment_spec, negative_scale_options_throw) {
  const experiment_spec spec = parse(kMinimalSpec);
  spec_options opt;
  opt.peers = 30;
  opt.rounds = -1;
  opt.threads = 1;
  std::ostringstream out;
  EXPECT_THROW((void)run_spec(spec, opt, out), contract_error);
  EXPECT_TRUE(out.str().empty());  // rejected before anything ran
  opt.rounds = 2;
  opt.seeds = 0;
  EXPECT_THROW((void)run_spec(spec, opt, out), contract_error);
  opt.seeds = 1;
  opt.peers = 1;
  EXPECT_THROW((void)run_spec(spec, opt, out), contract_error);
}

TEST(experiment_spec, example_spec_files_parse_and_validate) {
  const std::string dir = std::string(NYLON_SOURCE_DIR) + "/examples/specs/";
  for (const char* name :
       {"fig2_partition", "fig3_stale", "fig4_randomness", "fig7_bandwidth",
        "fig8_load_balance", "fig9_rvp_chain", "fig10_churn",
        "table1_traversal", "sec5_correctness", "ablation_protocols",
        "ablation_ttl", "latency_sensitivity", "churn_recovery",
        "udp_smoke"}) {
    const experiment_spec spec = load_spec_file(dir + name + ".json");
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.columns.empty()) << name;
  }
}

}  // namespace
}  // namespace nylon::runtime
