// "Experiment as data": a runtime::experiment_spec declares a whole
// figure-style study — base experiment_config overrides, swept axes
// (natted fraction, view size, protocol, latency model, hole TTL, NAT
// mix, ...), which metrics::probe measurements to record, an optional
// named workload::program, and how the result tables / BENCH_*.json
// documents are laid out. One driver (bench/nylon_exp.cpp) executes any
// spec via the multi-seed runner; specs are buildable programmatically or
// loadable from JSON files (examples/specs/*.json). The shipped figure,
// ablation, §2.2 traversal and §5 correctness specs have their stdout and
// JSON output digest-pinned by tests/integration/spec_equivalence_test.cpp.
//
// Probe taxonomy (metrics::probe): scalar probes fill cells directly;
// per_class probes need a "class" key, distribution probes a "stat";
// check probes render verdict cells in static specs or ride a "checks"
// list, with verdicts emitted under "checks" in the BENCH json and an
// optional pass/fail "verdict" line on stdout.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace nylon::runtime {

/// One key=value configuration override, kept as raw tokens: values
/// resolve at run time, so "$view_a"/"$view_b" can refer to the options
/// the driver was launched with (--view-a/--view-b). Keys starting with
/// '$' are workload variables; keys starting with '%' are probe
/// parameters (passed to the probes via probe_context::params instead of
/// touching the config).
using spec_setting = std::pair<std::string, std::string>;

/// One swept dimension of a study. Keys are either config keys
/// ("natted_pct", "protocol", ...) or — when they start with '$' —
/// *workload variables*: the axis value does not touch the config but is
/// substituted into the spec's workload JSON wherever a string value
/// references it ("$departures", optionally "$departures/100" to scale),
/// which is how a row axis can sweep a workload parameter like Fig. 10's
/// departure fraction. '%'-keys sweep a probe parameter the same way
/// (the §2.2 table's NAT-type axes).
struct spec_axis {
  std::string key;                  ///< e.g. "natted_pct", "$departures"
  std::string header;               ///< row-label column header
  std::vector<std::string> values;  ///< raw tokens ("40", "$view_a", "nylon")
  /// When set, the axis contributes a `cell_key: <numeric value>` field
  /// to each entry of the per-cell aggregate table (`cells` mode).
  std::string cell_key;
};

/// One table column, in either mode, and one "checks" list entry: a
/// probe cell, a ratio of two earlier probe columns' seed means (Fig. 7's
/// Nylon/reference, Fig. 8's public/natted) or an echo of the first row
/// label (Fig. 4's "uniform (ideal)").
struct spec_entry {
  enum class kind : std::uint8_t { probe, ratio, row_value };
  kind k = kind::probe;
  /// Column header (may reference $view_a / $view_b); a check's report
  /// label. Defaults to the probe name.
  std::string header;
  /// Config overrides for this column ("columns" mode only: a shared
  /// run has one config per row).
  std::vector<spec_setting> set;
  std::string probe;     ///< probe name (kind::probe)
  std::string cls;       ///< per_class selection ("class")
  std::string stat;      ///< distribution stat selection
  int ratio_num = -1;    ///< numerator column index (kind::ratio)
  int ratio_den = -1;    ///< denominator column index
  int precision = 1;     ///< table cell decimals
  /// `cells` mode: the column's contribution to each cell entry (a sweep
  /// column's axis `cell_key` + value token).
  std::string cell_key;
  std::string cell_token;
};

/// Pass/fail stdout line printed after the footer when the spec carries
/// checks (the §2.2 table's "verification: ..." line).
struct spec_verdict {
  std::string pass;
  std::string fail;
};

/// A named per-spec override set ("profiles": {"full": ...}), selected
/// by `nylon_exp --profile NAME`. Replaces the old global --full flag:
/// each spec declares its own paper-scale parameters, including
/// overrides of the builtin workload variables ($rounds/$half_rounds) —
/// Fig. 10's paper run is warmup 500 / heal 1500, which no global
/// rounds value can express. Explicitly-given command-line flags beat
/// profile values.
struct spec_profile {
  std::optional<std::int64_t> peers;
  std::optional<std::int64_t> seeds;
  std::optional<std::int64_t> rounds;
  std::optional<std::int64_t> view_a;
  std::optional<std::int64_t> view_b;
  /// Workload/builtin variable overrides, e.g. {"half_rounds", "500"}.
  std::vector<spec_setting> vars;
};

/// Emits one table per axis value (Fig. 2's per-view-size tables).
struct spec_split {
  spec_axis axis;         ///< header unused
  std::string section;    ///< stdout heading; "{}" replaced by the value
  std::string table_key;  ///< JSON key under "tables"; "{}" replaced
};

/// Sim-time health timeline ("timeline" key): selected probe columns
/// evaluated every `period_s` of *simulated* time on every cell run,
/// recorded per seed and emitted under "timeline" in the JSON report
/// (plus CSV / Perfetto counter tracks via the driver flags). Columns
/// are selector tokens — "alive_count", "drop_count.nat_filtered"
/// (per_class probes take ".<class>"), "in_degree.cv" (distribution
/// probes take ".<stat>") — or "obs.<counter>" for a runtime telemetry
/// counter ("obs.arena_bytes_peak"). Only passive (rng-free) probes
/// may ride a timeline; sampling is observation-only and digest-neutral
/// (DESIGN.md "Observability & the determinism contract").
struct spec_timeline {
  bool enabled = false;
  double period_s = 0.0;
  std::vector<std::string> probes;
};

/// A full declarative study.
struct experiment_spec {
  std::string name;                  ///< bench_report name ("fig3_stale")
  std::string title;                 ///< preamble line
  /// Literal preamble lines replacing the standard "# title / # n=..."
  /// preamble entirely (the §2.2 table's custom header). Exclusive with
  /// `title`.
  std::vector<std::string> preamble;
  std::vector<std::string> footer;   ///< comment lines printed after tables
  std::vector<spec_setting> base;    ///< config overrides under every cell
  std::optional<spec_split> split;
  std::vector<spec_axis> rows;       ///< cartesian row axes, outer first
  /// The table columns after the row labels ("columns" or "probes").
  std::vector<spec_entry> columns;
  /// "probes" mode: every probe column of a row rides one shared
  /// scenario run. Otherwise ("columns" mode) each probe column is its
  /// own multi-seed sweep under its `set` overrides.
  bool shared_run = false;
  /// Check probes evaluated on each row's shared run ("probes" mode).
  std::vector<spec_entry> checks;
  std::optional<spec_verdict> verdict;
  /// Named override sets selectable with --profile.
  std::vector<std::pair<std::string, spec_profile>> profiles;
  /// Run parameters echoed under "params" in the JSON report, in order.
  /// Either a builtin (peers, seeds, rounds, seed, workload) or a
  /// "name=$var" / "name=literal" entry ("warmup_periods=$half_rounds"),
  /// where $var is a builtin workload variable ($rounds, $half_rounds,
  /// or a profile-defined variable).
  std::vector<std::string> report_params;
  /// Emit a per-cell aggregate table under "cells" in the JSON report
  /// (columns mode): one entry per (row, probe-column) cell carrying the
  /// axes' `cell_key` values plus the full multi-seed aggregate — the
  /// Fig. 10 per-cell form.
  bool cells = false;
  /// No simulation at all: every cell is a world-free probe evaluation
  /// (probes with needs_world == false — the §2.2 traversal table).
  bool static_eval = false;
  /// One derived seed per cell (derive_seed(seed, 0)); --seeds is
  /// ignored and the preamble echoes seeds=1.
  bool single_seed = false;
  /// "": no warm-up. "half": rounds/2 warm-up + traffic reset (Fig. 7's
  /// steady-state window). An integer literal: that many warm-up rounds.
  std::string warmup;
  /// Optional workload::program (program_from_json form). When set, it
  /// replaces the plain run_periods(rounds) simulation of each cell.
  std::optional<util::json> workload;
  /// Record per-seed workload trajectories into the JSON report
  /// (requires `workload`; heavy, so opt-in).
  bool trajectories = false;
  /// > 0: trajectory snapshots every N periods inside phases (otherwise
  /// phase boundaries only).
  int trajectory_sample_periods = 0;
  /// Sim-time health timeline (see spec_timeline).
  spec_timeline timeline;

  /// Structural validation (axis keys, probe names and selector
  /// kinds, ratio references, warmup literal, workload shape, profile
  /// values, static/check constraints). Throws nylon::contract_error.
  void validate() const;
};

/// Parses a spec document; unknown keys and malformed entries throw
/// nylon::contract_error with the offending key in the message. The
/// returned spec is already validate()d.
[[nodiscard]] experiment_spec spec_from_json(const util::json& doc);

/// Loads and parses a spec file (throws std::runtime_error on I/O
/// failure, json_parse_error / contract_error on bad content).
[[nodiscard]] experiment_spec load_spec_file(const std::string& path);

/// Execution knobs: the scale, seeding, engine and output choices of one
/// run (nylon_exp fills them from its flags). Study content —
/// latency model, protocol, NAT mix — belongs in the spec's `base`.
struct spec_options {
  std::size_t peers = 600;
  int seeds = 1;
  int rounds = 100;
  std::size_t view_a = 8;   ///< resolves $view_a (paper: 15)
  std::size_t view_b = 15;  ///< resolves $view_b (paper: 27)
  bool csv = false;
  std::uint64_t seed = 1;
  int threads = 0;          ///< seed-level parallelism (0 = all cores)
  std::size_t shards = 0;   ///< per-universe shards (0 = serial engine)
  std::string json;         ///< write BENCH_*.json here ("" = off)
  std::string transport = "sim";  ///< sim | sim-frames | udp
  double udp_time_scale = 0.0;    ///< udp pacing (0 = config default)
  /// Force-enable the sim-time health timeline even when the spec does
  /// not declare one (a default passive column set is used then).
  bool timeline = false;
  /// Overrides the timeline sampling period in sim seconds (0 = the
  /// spec's own period, or 5 s when force-enabled without one).
  double timeline_period_s = 0.0;
  /// Writes the timeline as long-form CSV here ("" = off):
  /// `cell,seed,t_s,<col>,...`, one line per sample.
  std::string timeline_csv;
  /// Name of the spec profile to apply ("" = none). Unknown names throw.
  std::string profile;
  /// Explicitly-given command-line flags beat profile values; the
  /// driver marks which scale options the user actually set. An
  /// explicit --rounds also disables profile overrides of the
  /// rounds-derived builtins ($rounds / $half_rounds).
  bool peers_explicit = false;
  bool seeds_explicit = false;
  bool rounds_explicit = false;
  bool view_a_explicit = false;
  bool view_b_explicit = false;
};

/// Executes the spec: prints the preamble, tables (or CSV) and footer to
/// `out`, writes the JSON report
/// to opt.json when set, and returns the report document. Check verdicts
/// (when the spec has any) land under "checks"; all_checks_passed() says
/// whether the driver should exit non-zero.
util::json run_spec(const experiment_spec& spec, const spec_options& opt,
                    std::ostream& out);

/// True when `report` (a run_spec result) has no failed check entries.
[[nodiscard]] bool all_checks_passed(const util::json& report);

}  // namespace nylon::runtime
