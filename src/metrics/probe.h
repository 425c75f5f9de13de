// Named measurement probes: the bridge between a finished (or paused)
// runtime::scenario and the numbers the figure tables report. Probes form
// a small typed taxonomy instead of a flat scalar registry:
//
//  * scalar       — one number (biggest cluster %, stale %, ...);
//  * per_class    — one number per peer class (public / natted), the
//                   Fig. 8 load-balance shape;
//  * distribution — moment + quantile summaries of a sample stream (RVP
//                   chain lengths for Fig. 9, in-degrees for §5);
//  * check        — a pass/fail invariant with a table cell and a
//                   one-line diagnostic (the §2.2 traversal table, the
//                   §5 correctness verdicts).
//
// Experiment specs declare *which* measurements to record by name; a
// `probe_selector` narrows a non-scalar probe to one scalar (a class key
// or a distribution stat) for table cells and seed aggregation.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/randomness.h"
#include "metrics/reachability.h"
#include "sim/time.h"
#include "util/stats.h"

namespace nylon::runtime {
class scenario;
}  // namespace nylon::runtime

namespace nylon::metrics {

/// The four probe shapes. Scalar probes are the degenerate case the
/// registry consisted of before the taxonomy existed.
enum class probe_kind : std::uint8_t { scalar, per_class, distribution, check };

/// Display name ("scalar", "per_class", "distribution", "check").
[[nodiscard]] std::string_view to_string(probe_kind k) noexcept;

/// Moment (and, when the probe retains raw samples, quantile) summary of
/// a distribution probe's observations. Moments are computed with
/// util::running_stats in observation order, so a probe that replaces an
/// inline running_stats loop reproduces its floats bit-for-bit.
struct distribution_summary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// True when p50/p90/p99 are meaningful (raw samples were retained;
  /// stream-merged probes only carry moments).
  bool has_quantiles = false;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  /// stddev / mean (0 when the mean is 0) — the §5 "sigma/mean"
  /// dispersion cell.
  [[nodiscard]] double cv() const noexcept {
    return mean > 0.0 ? stddev / mean : 0.0;
  }
};

/// Moments-only summary of a streaming accumulator.
[[nodiscard]] distribution_summary summarize_stream(
    const util::running_stats& stats) noexcept;

/// Full summary (quantiles included) of raw samples; `stats` must have
/// accumulated exactly the same observations (kept separate so callers
/// control the float-op order of the moments).
[[nodiscard]] distribution_summary summarize_samples(
    const util::running_stats& stats, std::vector<double> samples);

/// Outcome of a check probe.
struct check_result {
  bool passed = true;
  std::string cell;    ///< table-cell text (e.g. "hole punching !")
  std::string detail;  ///< one-line diagnostic for the JSON report
};

/// The value a probe evaluates to; `kind` says which member is live.
struct probe_value {
  probe_kind kind = probe_kind::scalar;
  double scalar = 0.0;
  /// per_class: (class key, value) in the probe's declared key order.
  std::vector<std::pair<std::string, double>> classes;
  distribution_summary dist;
  check_result check;
};

/// Everything a probe may look at. The oracle is built once per run and
/// shared across all probes evaluated on the same scenario state. A
/// world-free context (params only) serves world-free probes such as the
/// packet-level traversal checks.
struct probe_context {
  probe_context(runtime::scenario& world_in,
                const reachability_oracle& oracle_in,
                sim::sim_time measure_window_in = 0)
      : measure_window(measure_window_in),
        world_(&world_in),
        oracle_(&oracle_in) {}

  /// World-free context: only probes with `needs_world == false` may run.
  explicit probe_context(std::map<std::string, std::string> params_in)
      : params(std::move(params_in)) {}

  [[nodiscard]] bool has_world() const noexcept { return world_ != nullptr; }
  /// Throw nylon::contract_error on a world-free context.
  [[nodiscard]] runtime::scenario& world() const;
  [[nodiscard]] const reachability_oracle& oracle() const;

  /// Simulated time since the transport's traffic counters were last
  /// reset; rate probes (bytes/s) return 0 when it is 0.
  sim::sim_time measure_window = 0;
  /// Probe parameters ('%'-prefixed spec keys), e.g. the NAT types of a
  /// traversal-table cell.
  std::map<std::string, std::string> params;
  /// Randomness battery over one sampled-id stream, built lazily by the
  /// first sample_* probe and shared by the rest — the battery's tests
  /// must judge the *same* stream (sampling consumes peer rngs, so a
  /// rebuild per probe would judge a different one).
  mutable std::optional<battery_result> battery;

 private:
  runtime::scenario* world_ = nullptr;
  const reachability_oracle* oracle_ = nullptr;
};

/// One registered probe: a named typed measurement with a short
/// description (shown by `nylon_exp --list-probes`).
struct probe {
  std::string_view name;
  std::string_view description;
  probe_kind kind = probe_kind::scalar;
  /// False when the probe evaluates without a simulated world: it reads
  /// only ctx.params. A spec whose probe columns are all world-free
  /// simulates nothing.
  bool needs_world = true;
  /// per_class probes: comma-separated class keys they emit, in order.
  std::string_view class_keys = {};
  /// distribution probes: raw samples retained (quantile stats valid).
  bool quantiles = false;
  /// True when evaluating the probe is observation-only: const reads of
  /// the world, no rng draws, no peer state consumed. Only passive
  /// probes may ride a sim-time timeline — a mid-run evaluation of a
  /// non-passive probe (the randomness battery consumes peer rngs)
  /// would perturb the subsequent evolution and break the digest
  /// contract. End-of-run columns may use either.
  bool passive = false;
  probe_value (*run)(const probe_context&);
};

/// Looks a probe up by name; nullptr when unknown.
[[nodiscard]] const probe* find_probe(std::string_view name) noexcept;

/// The full registry, in stable (alphabetical) order.
[[nodiscard]] std::span<const probe> all_probes() noexcept;

/// A scalar view over a probe of any kind: per_class probes need a class
/// key, distribution probes a stat name, scalars neither. check probes
/// have no scalar view (their cell is text) — selecting one throws.
struct probe_selector {
  const probe* p = nullptr;
  std::string cls;   ///< per_class key ("public", "natted", "all")
  std::string stat;  ///< distribution stat (count|mean|stddev|min|max|
                     ///< cv|p50|p90|p99)
};

/// Resolves and *validates* a selector: unknown probes, a missing /
/// superfluous class or stat, an unknown class key, or a quantile stat
/// on a stream-only probe all throw nylon::contract_error with a
/// message naming the fix.
[[nodiscard]] probe_selector resolve_selector(std::string_view probe_name,
                                              std::string_view cls,
                                              std::string_view stat);

/// Extracts the selected scalar from an evaluated probe value.
[[nodiscard]] double extract_scalar(const probe_selector& sel,
                                    const probe_value& value);

/// Evaluates the probe and extracts in one step.
[[nodiscard]] double eval_scalar(const probe_selector& sel,
                                 const probe_context& ctx);

}  // namespace nylon::metrics
