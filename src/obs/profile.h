// Epoch-profiler results: per-shard wall-clock work vs barrier-wait time
// accumulated by sim::shard_engine, plus the two derived numbers the
// speedup-curve work needs — shard imbalance and barrier overhead. The
// accumulation itself lives in the engine (and compiles out with
// NYLON_OBS=0); this header is the always-available result type so
// callers need no conditional code.
#pragma once

#include <cstdint>
#include <vector>

#include "util/json.h"

namespace nylon::obs {

/// One shard's wall-clock accounting across all epochs.
///
/// Each epoch has one barrier crossing per shard. A pool shard's wait
/// runs from its arrival to its release, so it includes the caller's
/// completion step (pick the next epoch's end, apply due staged actions,
/// flip the channel sets), which the former separate start barrier hid.
/// The wait that ends a run_until call's last epoch is not counted: it
/// spans the control plane between calls, which is idle time. Shard 0
/// runs on the caller, whose wait is for the last pool shard to arrive.
struct shard_profile {
  double work_s = 0.0;  ///< draining inbound channels + executing events
  double wait_s = 0.0;  ///< blocked at the epoch's barrier crossing
  std::uint64_t events = 0;  ///< events executed on this shard
  /// How this shard's barrier crossings resolved (spin-then-park
  /// barrier): released while spinning vs after parking on the condvar.
  std::uint64_t spin_waits = 0;
  std::uint64_t park_waits = 0;
};

/// The whole engine's profile. The per-shard wall-clock vector is empty
/// in serial mode or when telemetry is compiled out; the epoch-size
/// statistics are deterministic and filled whenever the sharded engine
/// ran.
struct epoch_profile {
  std::vector<shard_profile> shards;
  std::uint64_t epochs = 0;
  /// Epoch widths in sim-ms (grid points per epoch): the direct read on
  /// how far the engine strides per epoch (up to t_min + window, far
  /// wider than the latency floor over quiet stretches).
  std::int64_t epoch_width_ms_max = 0;
  double epoch_width_ms_mean = 0.0;
  double events_per_epoch = 0.0;

  [[nodiscard]] bool empty() const noexcept { return shards.empty(); }

  /// Shard-imbalance metric: max work time / mean work time. 1.0 is a
  /// perfectly balanced partition; 0 when there is no work at all.
  [[nodiscard]] double imbalance() const noexcept;

  /// Fraction of total shard wall-time spent waiting at barriers,
  /// in [0, 1]: sum(wait) / (sum(work) + sum(wait)); 0 when idle.
  [[nodiscard]] double barrier_overhead() const noexcept;

  /// Barrier crossings the busiest shard waited through (spun plus
  /// parked) per epoch; at most 1 with one crossing per epoch. 0 when
  /// there are no epochs or no per-shard numbers.
  [[nodiscard]] double crossings_per_epoch() const noexcept;
};

/// {"epochs": ..., "epoch_width_ms_mean": ..., "epoch_width_ms_max": ...,
///  "events_per_epoch": ..., "imbalance": ..., "barrier_overhead_pct": ...,
///  "crossings_per_epoch": ...,
///  "shards": [{"work_s": ..., "wait_s": ..., "events": ...,
///              "spin_waits": ..., "park_waits": ...}, ...]}.
[[nodiscard]] util::json to_json(const epoch_profile& profile);

}  // namespace nylon::obs
