#include "obs/profile.h"

#include <algorithm>

namespace nylon::obs {

double epoch_profile::imbalance() const noexcept {
  if (shards.empty()) return 0.0;
  double max_work = 0.0;
  double total_work = 0.0;
  for (const shard_profile& s : shards) {
    if (s.work_s > max_work) max_work = s.work_s;
    total_work += s.work_s;
  }
  if (total_work <= 0.0) return 0.0;
  const double mean = total_work / static_cast<double>(shards.size());
  return max_work / mean;
}

double epoch_profile::barrier_overhead() const noexcept {
  double work = 0.0;
  double wait = 0.0;
  for (const shard_profile& s : shards) {
    work += s.work_s;
    wait += s.wait_s;
  }
  const double total = work + wait;
  return total > 0.0 ? wait / total : 0.0;
}

double epoch_profile::crossings_per_epoch() const noexcept {
  if (epochs == 0) return 0.0;
  std::uint64_t busiest = 0;
  for (const shard_profile& s : shards) {
    busiest = std::max(busiest, s.spin_waits + s.park_waits);
  }
  return static_cast<double>(busiest) / static_cast<double>(epochs);
}

util::json to_json(const epoch_profile& profile) {
  util::json out = util::json::object();
  out["epochs"] = profile.epochs;
  out["epoch_width_ms_mean"] = profile.epoch_width_ms_mean;
  out["epoch_width_ms_max"] = profile.epoch_width_ms_max;
  out["events_per_epoch"] = profile.events_per_epoch;
  out["imbalance"] = profile.imbalance();
  out["barrier_overhead_pct"] = 100.0 * profile.barrier_overhead();
  out["crossings_per_epoch"] = profile.crossings_per_epoch();
  util::json shards = util::json::array();
  for (const shard_profile& s : profile.shards) {
    util::json& entry = shards.push_back(util::json::object());
    entry["work_s"] = s.work_s;
    entry["wait_s"] = s.wait_s;
    entry["events"] = s.events;
    entry["spin_waits"] = s.spin_waits;
    entry["park_waits"] = s.park_waits;
  }
  out["shards"] = std::move(shards);
  return out;
}

}  // namespace nylon::obs
