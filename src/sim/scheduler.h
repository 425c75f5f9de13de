// The discrete-event scheduler: a clock plus the event queue, with the
// run-loop and periodic-task helpers every component builds on.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"
#include "util/contracts.h"

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
  void at(sim_time when, F&& fn) {
    NYLON_EXPECTS(when >= now_);
    queue_.push(when, std::forward<F>(fn));
  }

  /// Schedules `fn` after `delay` (>= 0) from now.
  template <typename F>
  void after(sim_time delay, F&& fn) {
    NYLON_EXPECTS(delay >= 0);
    queue_.push(now_ + delay, std::forward<F>(fn));
  }

  /// Runs `fn` every `period` (> 0), first at `first`, for as long as it
  /// returns true ("keep going"). This is the one way to stop a timer:
  /// the hop whose `fn` returns false schedules no successor. A task
  /// stopped from outside (a departed peer) has its owner's `fn` check
  /// its own state and return false, so the hop already queued still
  /// pops and counts as one executed event, and nothing follows it.
  /// Whatever `fn` touches must outlive that hop.
  template <typename F>
    requires std::is_invocable_r_v<bool, F&>
  void every(sim_time first, sim_time period, F fn) {
    NYLON_EXPECTS(first >= now_);
    NYLON_EXPECTS(period > 0);
    // The queue's push-site null check sees the hop, not `fn`.
    if constexpr (requires { fn == nullptr; }) {
      NYLON_EXPECTS(!(fn == nullptr));
    }
    queue_.push(first, periodic_hop<F>{this, period, std::move(fn)});
  }

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

  /// Total events executed.
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return queue_.executed();
  }

  /// Timestamp of the earliest pending event (`time_never` when idle).
  /// The sharded engine uses it to cut epochs at control-event times.
  [[nodiscard]] sim_time next_event_time() const noexcept {
    return queue_.next_time();
  }

 private:
  /// One hop of a periodic task. The task's state travels inside the
  /// queued event itself: each hop moves it into its successor, so a task
  /// allocates nothing beyond its pooled event slots.
  template <typename F>
  struct periodic_hop {
    scheduler* owner;
    sim_time period;
    F fn;

    void operator()() {
      // Runs in place in its slot (see event_queue::pop_and_run), so
      // moving *this into the successor's slot is safe.
      if (fn()) owner->after(period, std::move(*this));
    }
  };

  sim_time now_ = 0;
  event_queue queue_;
};

}  // namespace nylon::sim
