// The discrete-event scheduler: a clock plus the event queue, with the
// run-loop and periodic-task helpers every component builds on.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"
#include "util/contracts.h"
#include "util/inplace_function.h"

namespace nylon::sim {

/// Drives simulated time forward by executing events in timestamp order.
///
/// The scheduler is passive: components schedule callbacks and the owner
/// calls `run_until` / `run_for`. Time only advances through events.
class scheduler {
 public:
  /// Current simulated time.
  [[nodiscard]] sim_time now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now). Templated (like
  /// event_queue::push) so captures land directly in the event pool.
  template <typename F>
  event_handle at(sim_time when, F&& fn) {
    NYLON_EXPECTS(when >= now_);
    return queue_.push(when, std::forward<F>(fn));
  }

  /// Schedules `fn` after `delay` (>= 0) from now.
  template <typename F>
  event_handle after(sim_time delay, F&& fn) {
    NYLON_EXPECTS(delay >= 0);
    return queue_.push(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` to run every `period` (> 0), first at `first`.
  /// The task reschedules itself until its handle is cancelled.
  event_handle every(sim_time first, sim_time period, util::callback fn);

  /// Stages canonically sorted cross-shard events (all >= now) into the
  /// queue's staging lane; see event_queue::stage_sorted. Shard-engine
  /// barrier use only — never call from inside a running event.
  void stage_sorted(std::vector<staged_event>& batch) {
    NYLON_EXPECTS(batch.empty() || batch.front().at >= now_);
    queue_.stage_sorted(batch);
  }

  /// Bytes reserved by the staging lane (drain-buffer telemetry).
  [[nodiscard]] std::size_t lane_reserved_bytes() const noexcept {
    return queue_.lane_reserved_bytes();
  }

  /// Runs events until the queue is exhausted or `deadline` is passed.
  /// Events with timestamp exactly `deadline` are executed; the clock
  /// finishes at min(deadline, last event time) and then jumps to
  /// `deadline`.
  void run_until(sim_time deadline);

  /// Runs for `duration` of simulated time from now.
  void run_for(sim_time duration) { run_until(now_ + duration); }

  /// Executes the single next event, if any; returns false when idle.
  bool step();

  /// Total events executed.
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return queue_.executed();
  }

  /// Timestamp of the earliest pending event (`time_never` when idle).
  /// The sharded engine uses it to cut epochs at control-event times.
  [[nodiscard]] sim_time next_event_time() const noexcept {
    return queue_.next_time();
  }

  /// True if no further events are queued.
  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }

 private:
  // A periodic task owns its state via shared_ptr so that cancellation of
  // the returned handle stops the self-rescheduling chain.
  struct periodic_state;

  sim_time now_ = 0;
  event_queue queue_;
};

}  // namespace nylon::sim
