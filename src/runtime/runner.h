// Multi-seed execution: a spec's independent universes (every cell at
// every seed; the paper averages 30 seeds) run as one flat task list on
// one worker pool. Each task writes only its own result slot, so the
// results are bit-identical to a serial run on any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "util/stats.h"

namespace nylon::runtime {

/// Aggregate of one scalar metric across seeds.
struct seed_aggregate {
  std::vector<double> values;  ///< per-seed results, in seed order
  util::summary stats;         ///< summary over `values`
};

/// Concurrent universes for `tasks` (> 0) universes on a budget of
/// `threads` (0 = one per hardware core). A sharded universe spawns
/// `shards` workers of its own, so universes × shards stays within the
/// budget; 0 (serial engine) and 1 cost one thread each. Clamped to
/// [1, tasks]: one universe always runs, even over budget.
[[nodiscard]] int worker_budget(int threads, std::size_t shards, int tasks);

/// Runs `body(i)` once for every i in [0, count), each inside a "seed"
/// trace span: inline in index order at `workers` <= 1, else on
/// `workers` threads claiming indices from a shared counter. After a
/// failure no further index is claimed, and the first exception (by
/// completion order) is rethrown once every worker has joined.
void parallel_for(int count, int workers,
                  const std::function<void(int)>& body);

}  // namespace nylon::runtime
