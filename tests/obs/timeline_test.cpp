// Timeline recorder storage: sample accumulation, JSON shape, the
// long-form CSV a spec run writes, and the Perfetto counter-track mirror
// (inert while tracing is off). The recorder is plain data, so
// everything here passes unchanged in NYLON_OBS=0 builds except the
// live trace mirror, which is gated.
#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "runtime/spec.h"
#include "util/json.h"

namespace nylon::obs {
namespace {

TEST(obs_timeline, records_rows_and_exports_json_samples) {
  timeline_recorder rec(5.0, {"alive_count", "biggest_cluster_pct"});
  EXPECT_TRUE(rec.empty());
  rec.append(5.0, {60.0, 100.0});
  rec.append(10.0, {58.0, 96.55});
  EXPECT_EQ(rec.sample_count(), 2u);
  EXPECT_DOUBLE_EQ(rec.period_s(), 5.0);

  const util::json samples = rec.samples_json();
  ASSERT_TRUE(samples.is_array());
  ASSERT_EQ(samples.size(), 2u);
  ASSERT_EQ(samples.at(0).size(), 3u);  // t_s + one value per column
  EXPECT_DOUBLE_EQ(samples.at(0).at(0).as_double(), 5.0);
  EXPECT_DOUBLE_EQ(samples.at(0).at(1).as_double(), 60.0);
  EXPECT_DOUBLE_EQ(samples.at(1).at(2).as_double(), 96.55);
}

/// Splits one CSV line at its commas.
std::vector<std::string> fields_of(const std::string& line) {
  std::vector<std::string> out(1);
  for (const char c : line) {
    if (c == ',') {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

TEST(obs_timeline, csv_is_long_form_with_cell_and_seed) {
  // A 2-row, 2-seed timeline spec run with a CSV path: one header, then
  // one `label,seed,t_s,<v>...` line per sample of every (row, seed).
  const runtime::experiment_spec spec = runtime::spec_from_json(
      util::json::parse(R"({
        "name": "timeline_csv",
        "title": "timeline CSV",
        "rows": [{"axis": "natted_pct", "header": "%NAT",
                  "values": [0, 50]}],
        "columns": [{"probe": "alive_count"}],
        "timeline": {"period_s": 2.5,
                     "probes": ["alive_count", "drop_count.total"]}
      })"));
  runtime::spec_options opt;
  opt.peers = 30;
  opt.rounds = 2;
  opt.seeds = 2;
  opt.threads = 1;
  opt.timeline_csv = ::testing::TempDir() + "timeline_csv_pin.csv";
  std::ostringstream text;
  const util::json doc = runtime::run_spec(spec, opt, text);

  std::ifstream file(opt.timeline_csv);
  std::string line;
  ASSERT_TRUE(std::getline(file, line));
  EXPECT_EQ(line, "cell,seed,t_s,alive_count,drop_count.total");
  std::vector<std::pair<std::string, std::string>> order;
  std::map<std::pair<std::string, std::string>, int> samples;
  while (std::getline(file, line)) {
    const std::vector<std::string> fields = fields_of(line);
    ASSERT_EQ(fields.size(), 5u) << line;
    const std::pair<std::string, std::string> cell{fields[0], fields[1]};
    if (order.empty() || order.back() != cell) order.push_back(cell);
    ++samples[cell];
    for (std::size_t i = 2; i < fields.size(); ++i) {
      std::size_t used = 0;
      (void)std::stod(fields[i], &used);
      EXPECT_EQ(used, fields[i].size()) << line;
    }
  }
  std::remove(opt.timeline_csv.c_str());
  // Rows in table order, seeds in order within a row; 10 s of sim time
  // at a 2.5 s period is 4 samples per universe.
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"0", "0"}, {"0", "1"}, {"50", "0"}, {"50", "1"}};
  EXPECT_EQ(order, expected);
  for (const auto& cell : expected) EXPECT_EQ(samples[cell], 4) << cell.first;
  // The CSV carries the report's timeline block, sample for sample.
  std::size_t json_samples = 0;
  for (const util::json& entry :
       doc.at("timeline").at("cells").array_items()) {
    for (const util::json& seed : entry.at("per_seed").array_items()) {
      json_samples += seed.size();
    }
  }
  EXPECT_EQ(json_samples, 16u);
}

TEST(obs_timeline, counter_tracks_empty_while_tracing_off) {
  start_trace();
  stop_trace();
  // Tracing off: no track names are interned and the mirror is a no-op.
  const std::vector<const char*> tracks =
      counter_track_names({"alive_count"});
  EXPECT_TRUE(tracks.empty());
  record_counter_samples(tracks, {60.0});
  EXPECT_EQ(trace_statistics().counters_recorded, 0u);
}

TEST(obs_timeline, counter_tracks_mirror_samples_while_tracing) {
  start_trace();
  if (!trace_enabled()) return;  // NYLON_OBS=0
  const std::vector<const char*> tracks =
      counter_track_names({"alive_count", "obs.arena_bytes_peak"});
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_STREQ(tracks[0], "timeline/alive_count");
  EXPECT_STREQ(tracks[1], "timeline/obs.arena_bytes_peak");
  record_counter_samples(tracks, {60.0, 4096.0});
  stop_trace();
  EXPECT_EQ(trace_statistics().counters_recorded, 2u);
  bool saw_alive = false;
  const util::json doc = trace_to_json();
  for (const util::json& ev : doc.at("traceEvents").array_items()) {
    if (ev.at("ph").as_string() != "C") continue;
    if (ev.at("name").as_string() == "timeline/alive_count") {
      EXPECT_DOUBLE_EQ(ev.at("args").at("value").as_double(), 60.0);
      saw_alive = true;
    }
  }
  EXPECT_TRUE(saw_alive);
}

}  // namespace
}  // namespace nylon::obs
