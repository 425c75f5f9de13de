// Output pins for the shipped specs: each figure/ablation/§2.2/§5 spec
// (examples/specs/*.json), run through the spec executor at the options
// below, must keep byte-identical stdout and BENCH_*.json output. The
// digests are self-pins, captured from the executor itself: they cover
// table layout, preamble, section headings, footers and the JSON
// document. If a digest changes, either the executor regressed or
// simulation semantics changed; both must be explicit, reviewed
// decisions (see DESIGN.md, "Determinism contract").
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/spec.h"
#include "util/json.h"

namespace nylon {
namespace {

std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Runs a shipped spec at the capture options (n=120, rounds=20, seed=1,
/// serial) and digests stdout and the JSON document (as its file bytes).
void expect_digests(const char* spec_name, int seeds,
                    const char* stdout_digest, const char* json_digest) {
  const runtime::experiment_spec spec = runtime::load_spec_file(
      std::string(NYLON_SOURCE_DIR) + "/examples/specs/" + spec_name +
      ".json");
  runtime::spec_options opt;
  opt.peers = 120;
  opt.rounds = 20;
  opt.seeds = seeds;
  opt.seed = 1;
  opt.threads = 1;
  std::ostringstream out;
  const util::json doc = runtime::run_spec(spec, opt, out);
  EXPECT_EQ(hex(fnv1a(out.str())), stdout_digest)
      << spec_name << ": stdout diverged from its pin";
  EXPECT_EQ(hex(fnv1a(doc.dump_string(2) + "\n")), json_digest)
      << spec_name << ": BENCH json diverged from its pin";
}

TEST(spec_equivalence, fig2_partition) {
  expect_digests("fig2_partition", 1, "67b7e32dcbb65dd3",
                 "6a84bed1de81de43");
}

TEST(spec_equivalence, fig3_stale) {
  expect_digests("fig3_stale", 2, "4bd5c44b3ec9a635", "697f55f3b2d3dda7");
}

/// fig4 also carries the randomness-battery columns (runs / serial /
/// birthday-spacings over the sampled-id stream), which share one run
/// per row with the Nylon composition column (equal `set`).
TEST(spec_equivalence, fig4_randomness) {
  expect_digests("fig4_randomness", 1, "af4ea29c3eba9b3e",
                 "240346f2262f4d1a");
}

/// fig10 runs a workload program per cell (the mass-departure sweep).
TEST(spec_equivalence, fig10_churn) {
  expect_digests("fig10_churn", 2, "c4c7421858ef5953", "db8b4c09c628933d");
}

TEST(spec_equivalence, fig7_bandwidth) {
  expect_digests("fig7_bandwidth", 1, "511e27a11f522050",
                 "3648838fdc7bb171");
}

TEST(spec_equivalence, ablation_protocols) {
  expect_digests("ablation_protocols", 1, "214a3697041df588",
                 "91630b4822366f83");
}

TEST(spec_equivalence, ablation_ttl) {
  expect_digests("ablation_ttl", 1, "45153d19d75c97c7",
                 "975829d593abf498");
}

/// fig8 exercises the per_class probe + a ratio entry on one shared run
/// per row, fig9
/// the distribution probe's "mean" stat in sweep columns.
TEST(spec_equivalence, fig8_load_balance) {
  expect_digests("fig8_load_balance", 2, "77a1cfd418957e4d",
                 "1939ec24e69a91f3");
}

TEST(spec_equivalence, fig9_rvp_chain) {
  expect_digests("fig9_rvp_chain", 2, "9d4f32832f2abcdc",
                 "d3d55c31dc624f10");
}

/// table1 is a world-free spec (no simulation; '%' NAT-type axes into the
/// check probe) with a literal preamble; sec5 a single_seed spec (one
/// derived seed per cell) whose JSON carries the check verdicts.
TEST(spec_equivalence, table1_traversal) {
  expect_digests("table1_traversal", 1, "4beb3f6541c5c902",
                 "97751492b8e4aec0");
}

TEST(spec_equivalence, sec5_correctness) {
  expect_digests("sec5_correctness", 1, "ba2b69f8142155b6",
                 "5592111881d81cd5");
}

/// Running a spec's universes on one pool must not change a single byte
/// either, for every spec shape: split tables (fig2), a workload with a
/// per-cell table (fig10), one run per column (fig3), single_seed rows
/// with checks on one shared run (sec5), trajectories plus a timeline
/// (churn_recovery) and a world-free spec (table1).
TEST(spec_equivalence, parallel_execution_is_byte_identical) {
  for (const char* name : {"fig3_stale", "fig2_partition", "fig10_churn",
                           "sec5_correctness", "churn_recovery",
                           "table1_traversal"}) {
    SCOPED_TRACE(name);
    runtime::experiment_spec spec = runtime::load_spec_file(
        std::string(NYLON_SOURCE_DIR) + "/examples/specs/" + name + ".json");
    // obs.* timeline columns read process-wide counters, which concurrent
    // universes share; every other column is per-universe.
    std::erase_if(spec.timeline.probes, [](const std::string& column) {
      return column.starts_with("obs.");
    });
    runtime::spec_options opt;
    opt.peers = 60;
    opt.rounds = 6;
    opt.seeds = 3;
    opt.seed = 3;
    opt.threads = 1;
    std::ostringstream serial;
    const util::json doc_serial = runtime::run_spec(spec, opt, serial);
    opt.threads = 4;
    std::ostringstream parallel;
    const util::json doc_parallel = runtime::run_spec(spec, opt, parallel);
    EXPECT_EQ(serial.str(), parallel.str());
    EXPECT_EQ(doc_serial.dump_string(0), doc_parallel.dump_string(0));
  }
}

/// The ROADMAP latency-sensitivity study runs end-to-end and emits its
/// BENCH_latency_sensitivity.json.
TEST(spec_equivalence, latency_sensitivity_emits_bench_json) {
  const runtime::experiment_spec spec = runtime::load_spec_file(
      std::string(NYLON_SOURCE_DIR) +
      "/examples/specs/latency_sensitivity.json");
  runtime::spec_options opt;
  opt.peers = 60;
  opt.rounds = 6;
  opt.seeds = 1;
  opt.threads = 1;
  opt.json = ::testing::TempDir() + "BENCH_latency_sensitivity.json";
  std::ostringstream out;
  const util::json doc = runtime::run_spec(spec, opt, out);
  EXPECT_EQ(doc.at("bench").as_string(), "latency_sensitivity");
  // 3 sigmas x 4 TTLs = 12 rows, 2 label + 4 probe columns.
  EXPECT_EQ(doc.at("table").at("rows").size(), 12u);
  EXPECT_EQ(doc.at("table").at("headers").size(), 6u);
  const util::json loaded = util::load_json_file(opt.json);
  EXPECT_EQ(loaded.dump_string(0), doc.dump_string(0));
  std::remove(opt.json.c_str());
}

}  // namespace
}  // namespace nylon
