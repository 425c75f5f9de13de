// The sharded universe engine: one simulated world executed as K
// independently clocked shards that advance in lockstep epochs.
//
// Each shard owns a full scheduler (pooled event queue included), so
// every data structure on the event hot path stays single-threaded
// exactly as DESIGN.md requires — the non-atomic slab refcounts and
// thread-local message pools are untouched. Shards interact only through
// `post`, which buffers an event into a per-(src, dst) shard_channel.
// Channels come in two sets chosen by epoch parity: an epoch's posts go
// into one set while each shard, at the top of that same epoch, drains
// its inbound column of the other set — the posts of the epoch before —
// into its scheduler's *staging lane* in canonical (time, order_a,
// order_b) order (see shard_channel.h and event_queue::stage_sorted).
// The lane — not a plain FIFO insert — is what makes the executed stream
// independent of *which* epoch staged each event: an event's execution
// slot depends only on its canonical key, so wherever the epochs are cut
// the engine replays the byte-identical simulation.
//
// Conservative-window synchronization: epochs are half-open spans
// [start, end) of the millisecond grid, and every cross-shard event
// posted during an epoch must land at or after the epoch's end (`post`
// asserts it). The end is end = t_min + W, where t_min is the earliest
// pending event across all shards (staging lanes included) and W is the
// window: the floor of every cross-shard delay (the runtime passes the
// latency model's min_delay()). Any event executing this epoch has
// timestamp >= t_min, so its sends land at >= t_min + W = end. Events
// still in a channel count toward t_min through the minimum `at` each
// source posted into the set. Quiet stretches — t_min far ahead, or no
// events at all — collapse into one epoch instead of thousands of
// W-sized ones. A cross event is staged at the top of the epoch after
// the one that posted it, which is no later than the epoch executing it,
// so with the canonical staging lane the executed stream does not depend
// on where run_until deadlines, sampler ticks or control events cut the
// epochs (the epoch-cut invariance tests pin this).
//
// Threads: the thread calling run_until runs shard 0 itself, and K - 1
// pool threads run shards 1..K-1 (K = 1 runs inline, with no pool). Each
// epoch costs one barrier crossing: a worker arrives when its shard is
// done and waits; the caller, done with shard 0, waits for the arrivals,
// then runs the completion step — pick the next end, apply due staged
// actions, publish completed_through(), flip the channel sets — and
// releases the workers into the next epoch.
//
// Determinism: given the same initial state and the same sequence of
// run_until calls, the engine executes the identical event stream
// regardless of how many worker threads run it — and, when producers
// follow the canonical-key discipline and keep all shared state reads
// barrier-stable (see DESIGN.md "Sharded determinism contract"), the
// stream is also independent of the *number of shards* and of the
// epoch cuts.
//
// Between run_until calls every shard is parked at `now()`; the caller
// (the control plane: scenario construction, workload actions, metric
// snapshots) may freely read and mutate world state in that window. The
// barrier handoff provides the happens-before edges between control
// mutations and worker reads.
//
// Staged control: a run_until call may also carry control actions that
// need no epoch cut of their own (churn joins and departures; see
// staged_actions). The completion step applies each one before the
// epoch holding its time, so churn rides inside window-wide
// epochs. Such an action may only read control-plane state no shard
// event writes, and reaches shard state through `post` — the departure
// event keyed (t, control_order, id) runs after every peer event of its
// millisecond, where a cut control action ran (DESIGN.md "Sharded
// determinism contract", rule 5).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/profile.h"
#include "sim/scheduler.h"
#include "sim/shard_channel.h"
#include "sim/time.h"

namespace nylon::sim {

/// Control actions a run_until call may apply at epoch barriers instead
/// of cutting an epoch at their times. The sharded engine applies an
/// action in the completion step opening the epoch that holds its time;
/// the serial engines run each one at its exact time. Actions run in
/// next_time() order and may add further actions.
class staged_actions {
 public:
  /// Time of the earliest pending action; time_never when none.
  [[nodiscard]] virtual sim_time next_time() const = 0;
  /// Pops and applies the earliest pending action.
  virtual void run_next() = 0;

 protected:
  ~staged_actions() = default;
};

class shard_engine {
 public:
  /// `shards` >= 1 clones of the scheduler machinery; `window` > 0 is
  /// the lookahead: at most the minimum cross-shard latency. Each epoch
  /// strides to t_min + window.
  shard_engine(std::size_t shards, sim_time window);
  ~shard_engine();

  shard_engine(const shard_engine&) = delete;
  shard_engine& operator=(const shard_engine&) = delete;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Barrier time: every shard's clock equals this between run_until
  /// calls.
  [[nodiscard]] sim_time now() const noexcept { return now_; }

  /// Shard s's scheduler. Only the owning worker may touch it mid-epoch;
  /// the control plane may use it freely while the engine is parked.
  [[nodiscard]] scheduler& shard_scheduler(std::size_t s) {
    return shards_[s]->sched;
  }

  /// Buffers `fn` to run on shard `dst` at time `at` (at or after the
  /// current epoch's end), ordered canonically by (at, order_a, order_b)
  /// against everything else draining into `dst`. Callable from the
  /// `src` shard's worker mid-epoch, or from the control plane while
  /// parked.
  void post(std::size_t src, std::size_t dst, sim_time at,
            std::uint64_t order_a, std::uint64_t order_b, util::callback fn);

  /// Runs lockstep epochs until every shard reaches `deadline`
  /// (>= now()). Events with timestamp exactly `deadline` are executed —
  /// including events scheduled at the current barrier time, so a call
  /// with deadline == now() still runs one (zero-length) epoch.
  ///
  /// `staged` (optional) holds control actions at >= now(). Each epoch
  /// ends at min(t_min, next staged time) + W; before it starts, the
  /// completion step applies every staged action due before that end, in
  /// order; the events they post are staged at the epoch's top. Actions
  /// at `deadline` or later are left pending: the caller runs them once
  /// every event at `deadline` has executed, as it would a cut action.
  void run_until(sim_time deadline, staged_actions* staged = nullptr);

  /// Earliest pending event across all shards — queues, staging lanes
  /// and events still in a channel; time_never when none. Read it while
  /// parked.
  [[nodiscard]] sim_time next_event_time() const noexcept;

  /// Total events executed across all shards.
  [[nodiscard]] std::uint64_t events_executed() const noexcept;

  /// Latest simulated time through which *every* shard has provably
  /// finished executing (monotone; -1 before the first epoch). The
  /// transport's payload-lease sweep reclaims against this floor — a
  /// shard clock alone says nothing about the other shards' progress.
  /// Safe to read from worker threads mid-epoch.
  [[nodiscard]] sim_time completed_through() const noexcept {
    return lease_floor_.load(std::memory_order_relaxed);
  }

  /// Lockstep epochs completed so far (deterministic for a fixed
  /// run_until sequence).
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }
  /// Widest single epoch so far, in sim-ms (grid points executed).
  [[nodiscard]] sim_time epoch_width_max() const noexcept {
    return width_max_;
  }
  /// Mean epoch width in sim-ms; 0 before the first epoch.
  [[nodiscard]] double epoch_width_mean() const noexcept {
    return epochs_ == 0 ? 0.0
                        : static_cast<double>(width_sum_) /
                              static_cast<double>(epochs_);
  }

  /// Per-shard work/wait wall-clock accounting accumulated across every
  /// epoch so far, plus the epoch-size statistics above (see
  /// obs/profile.h). Read it while parked. The per-shard wall numbers
  /// are empty when telemetry is compiled out (NYLON_OBS=0); the epoch
  /// statistics are deterministic and always present.
  [[nodiscard]] obs::epoch_profile profile() const;

 private:
  struct shard {
    scheduler sched;
    std::vector<channel_event> drain_scratch;  ///< recycled across epochs
    std::vector<std::size_t> drain_bounds;     ///< segment-merge scratch
    /// Earliest `at` this shard posted into each channel set since the
    /// set was last drained (time_never when none). Written by the
    /// shard's own thread mid-epoch, or by the control plane while
    /// parked.
    sim_time posted_min[2] = {time_never, time_never};
    // Epoch-profiler accumulators. work/wait are wall-clock seconds,
    // written only by the thread running this shard before it arrives at
    // the barrier; read by the control plane while the engine is parked.
    // The wall numbers stay zero when telemetry is compiled out; the
    // barrier-resolution counts are always maintained (they cost two
    // adds per epoch).
    double work_s = 0.0;  ///< drain_inbound + run_until
    double wait_s = 0.0;  ///< blocked at the epoch's one barrier crossing
    std::uint64_t spin_waits = 0;  ///< barrier crossings resolved spinning
    std::uint64_t park_waits = 0;  ///< crossings that slept on the condvar
  };

  /// Picks the next epoch's exclusive end in (now_, bound]. `bound` =
  /// final deadline + 1; `staged_at` is the earliest staged action to
  /// apply before the epoch (time_never when none).
  [[nodiscard]] sim_time next_epoch_end(sim_time bound,
                                        sim_time staged_at) const;

  /// Runs one epoch over [now_, end): publishes the epoch's floors and
  /// flips the channel sets, then every shard runs run_shard — shard 0
  /// on this thread, the others on the pool — and the call returns once
  /// all have finished. `run_start` marks a run_until call's first epoch,
  /// whose workers waited through the control plane, not an epoch.
  void run_epoch(sim_time end, bool run_start);

  /// One shard's epoch body: drain_inbound, then run its events through
  /// `target` (inclusive).
  void run_shard(std::size_t index, sim_time target);

  /// Shard `dst`'s top-of-epoch drain: gather its column of the channel
  /// set posted last epoch in source-shard order, canonical-merge the
  /// per-source segments, and stage the batch into the destination's
  /// lane.
  void drain_inbound(std::size_t dst);

  [[nodiscard]] shard_channel& channel(std::size_t set, std::size_t src,
                                       std::size_t dst) noexcept {
    return channels_[(set * shards_.size() + src) * shards_.size() + dst];
  }

  void start_workers();
  void stop_workers() noexcept;

  std::vector<std::unique_ptr<shard>> shards_;
  /// Two sets of K*K, each row-major by source.
  std::vector<shard_channel> channels_;
  /// The set `post` writes this epoch; shards drain the other one.
  std::size_t post_set_ = 0;
  sim_time window_;
  sim_time now_ = 0;
  std::uint64_t epochs_ = 0;   ///< lockstep epochs completed
  sim_time width_sum_ = 0;     ///< total grid points covered by epochs
  sim_time width_max_ = 0;
  /// Lower bound `post` enforces: the running epoch's exclusive end, or
  /// the parked barrier time between run_until calls.
  sim_time post_floor_ = 0;
  /// See completed_through(). Published in the completion step before
  /// each epoch's release; workers read it mid-epoch, so it is the one
  /// atomic in the epoch bookkeeping.
  std::atomic<sim_time> lease_floor_{-1};

  struct worker_pool;  // threads + barrier; built on the first K > 1 run
  std::unique_ptr<worker_pool> pool_;
};

}  // namespace nylon::sim
