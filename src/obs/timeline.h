// Sim-time health timelines: per-seed time-series of protocol health
// columns (connectivity, isolated peers, drop rates, bytes by class,
// obs counters), sampled at a spec-configurable cadence by the
// runtime::scenario sampler and emitted three ways —
//
//  * BENCH json, under a "timeline" key next to "trajectories";
//  * long-form CSV via `nylon_exp --timeline-csv` (one line per
//    sample, ready for pandas / gnuplot);
//  * Perfetto counter tracks ("ph":"C") merged into the existing
//    trace export so health curves render beside the shard lanes.
//
// The recorder is storage only: column *evaluation* stays in the
// runtime layer (metrics::probe selectors and obs counter reads), so
// this file carries no protocol dependencies. Sampling is
// observation-only per DESIGN.md "Observability & the determinism
// contract": ticks are interleaved into scenario::run_until without
// scheduling events, columns are restricted to passive (rng-free)
// probes, and state digests are byte-identical with timelines on or
// off, in NYLON_OBS=OFF builds included (the recorder itself is plain
// data and works in both builds; only the Perfetto mirror disappears).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/json.h"

namespace nylon::obs {

/// One experiment cell's health time-series: sim-time rows, one value
/// per column. Each seed records into its own instance (the multi-seed
/// runner keeps seeds independent), and the runtime layer merges the
/// per-seed series into the report.
class timeline_recorder {
 public:
  timeline_recorder(double period_s, std::vector<std::string> columns);

  /// Appends one sample row. `values` must carry exactly one value per
  /// column, in column order.
  void append(double t_s, std::vector<double> values);

  [[nodiscard]] double period_s() const noexcept { return period_s_; }
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }
  [[nodiscard]] std::size_t sample_count() const noexcept {
    return rows_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }

  /// The samples as a JSON array of arrays: [[t_s, v0, v1, ...], ...].
  /// Column names and the period are emitted once at the block level by
  /// the caller, not repeated per seed.
  [[nodiscard]] util::json samples_json() const;

 private:
  struct row {
    double t_s = 0.0;
    std::vector<double> values;
  };

  double period_s_ = 0.0;
  std::vector<std::string> columns_;
  std::vector<row> rows_;
};

/// Interns "timeline/<column>" Perfetto counter-track names for live
/// mirroring: the sampler calls record_counter_samples at every tick
/// while a trace is recording, stamping the *wall-clock* trace time so
/// the curves line up under the span lanes. Returns empty when tracing
/// is off or telemetry is compiled out.
[[nodiscard]] std::vector<const char*> counter_track_names(
    const std::vector<std::string>& columns);

/// Records one "ph":"C" sample per column at the current trace time.
/// `tracks` comes from counter_track_names; size mismatch records the
/// shared prefix. No-op while tracing is off.
void record_counter_samples(const std::vector<const char*>& tracks,
                            const std::vector<double>& values);

}  // namespace nylon::obs
