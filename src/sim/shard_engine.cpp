#include "sim/shard_engine.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "obs/counters.h"
#include "obs/trace.h"
#include "sim/spin_barrier.h"
#include "util/contracts.h"

namespace nylon::sim {

namespace {
#if NYLON_OBS
using profile_clock = std::chrono::steady_clock;

double profile_seconds(profile_clock::time_point from,
                       profile_clock::time_point to) noexcept {
  return std::chrono::duration<double>(to - from).count();
}

/// Emits a completed span from timestamps the profiler already read
/// (no extra clock calls on the trace path).
void profile_span(const char* name, profile_clock::time_point from,
                  profile_clock::time_point to) noexcept {
  if (!obs::trace_enabled()) return;
  obs::record_span(name, obs::trace_us(from),
                   static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::microseconds>(
                           to - from)
                           .count()));
}
#endif  // NYLON_OBS
}  // namespace

/// Persistent worker threads, one per shard, woken once per epoch
/// through spin-then-park barriers: same-epoch stragglers resolve with a
/// few microseconds of spinning (no syscall), while parked phases — the
/// control plane running between epochs, oversubscribed CI runs — fall
/// back to the condvar. Protocol per epoch, K workers + the coordinator:
///
///   coordinator: publish target -> arrive(start) ... arrive(finish)
///   worker i:    arrive(start) -> run_until(target)
///                -> arrive(mid, workers only) -> drain_inbound(i)
///                -> arrive(finish)
///
/// `mid` separates event execution from channel draining: a drain reads
/// channels *written by other workers* during the run phase, so every
/// producer must be past its run phase first.
struct shard_engine::worker_pool {
  explicit worker_pool(shard_engine& engine)
      : start(engine.shard_count() + 1),
        mid(engine.shard_count()),
        finish(engine.shard_count() + 1) {
    threads.reserve(engine.shard_count());
    for (std::size_t i = 0; i < engine.shard_count(); ++i) {
      threads.emplace_back([&engine, this, i] { run_worker(engine, i); });
    }
  }

  static void note_wait(shard& s, spin_barrier::wait_kind kind) noexcept {
    if (kind == spin_barrier::wait_kind::parked) {
      ++s.park_waits;
    } else if (kind == spin_barrier::wait_kind::spun) {
      ++s.spin_waits;
    }
  }

  void run_worker(shard_engine& engine, std::size_t index) {
#if NYLON_OBS
    // One trace lane per shard: tid == shard index, so a sharded run
    // renders as K parallel tracks in Perfetto.
    obs::set_thread_track(static_cast<std::uint32_t>(index),
                          "shard " + std::to_string(index));
#endif
    shard& s = *engine.shards_[index];
    // The finish barrier releases the coordinator, which may then read
    // this shard's accumulators (shard_engine::profile). So the finish
    // crossing's own accounting is held here and folded in during the
    // next epoch, before `mid`; the next finish barrier orders that write
    // before the coordinator's next read. A profile therefore lags by at
    // most the last epoch's finish wait.
    spin_barrier::wait_kind finish_kind = spin_barrier::wait_kind::last;
    [[maybe_unused]] double finish_wait_s = 0.0;
    for (;;) {
      start.arrive_and_wait();
      if (exiting) return;
      note_wait(s, finish_kind);
#if NYLON_OBS
      s.wait_s += finish_wait_s;
#endif
      // Profiler accounting (per epoch, five clock reads): work is the
      // run phase plus the drain phase; wait is the time blocked at the
      // mid and finish barriers. The start barrier is deliberately
      // excluded — between epochs workers park there while the control
      // plane runs, which is idle time, not straggler imbalance.
#if NYLON_OBS
      const auto t0 = profile_clock::now();
#endif
      try {
        s.sched.run_until(target);
      } catch (...) {
        record_error();
      }
#if NYLON_OBS
      const auto t1 = profile_clock::now();
      profile_span("epoch:run", t0, t1);
#endif
      note_wait(s, mid.arrive_and_wait());
#if NYLON_OBS
      const auto t2 = profile_clock::now();
      profile_span("barrier:mid", t1, t2);
#endif
      try {
        engine.drain_inbound(index);
      } catch (...) {
        record_error();
      }
#if NYLON_OBS
      const auto t3 = profile_clock::now();
      profile_span("epoch:drain", t2, t3);
      s.work_s += profile_seconds(t0, t1) + profile_seconds(t2, t3);
      s.wait_s += profile_seconds(t1, t2);
#endif
      finish_kind = finish.arrive_and_wait();
#if NYLON_OBS
      const auto t4 = profile_clock::now();
      profile_span("barrier:finish", t3, t4);
      finish_wait_s = profile_seconds(t3, t4);
#endif
    }
  }

  void record_error() noexcept {
    // First error wins; losers are dropped (they are almost always the
    // same contract violation observed from several shards).
    if (!error_flag.test_and_set()) error = std::current_exception();
  }

  std::vector<std::thread> threads;
  spin_barrier start;
  spin_barrier mid;
  spin_barrier finish;
  sim_time target = 0;     ///< published before start, read after it
  bool exiting = false;
  std::atomic_flag error_flag = ATOMIC_FLAG_INIT;
  std::exception_ptr error;
};

shard_engine::shard_engine(std::size_t shards, sim_time window)
    : window_(window) {
  NYLON_EXPECTS(shards >= 1);
  NYLON_EXPECTS(window > 0);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<shard>());
    // Pre-size the drain path so steady-state barriers never grow it
    // (the swap with the staging lane recycles whatever it reaches).
    shards_.back()->drain_scratch.reserve(256);
    shards_.back()->drain_bounds.reserve(shards + 1);
  }
  channels_.resize(shards * shards);
}

shard_engine::~shard_engine() { stop_workers(); }

void shard_engine::start_workers() {
  if (pool_ == nullptr) pool_ = std::make_unique<worker_pool>(*this);
}

void shard_engine::stop_workers() noexcept {
  if (pool_ == nullptr) return;
  pool_->exiting = true;
  pool_->start.arrive_and_wait();
  for (std::thread& t : pool_->threads) t.join();
  pool_.reset();
}

void shard_engine::post(std::size_t src, std::size_t dst, sim_time at,
                        std::uint64_t order_a, std::uint64_t order_b,
                        util::callback fn) {
  NYLON_EXPECTS(src < shards_.size() && dst < shards_.size());
  NYLON_EXPECTS(static_cast<bool>(fn));  // lanes cannot skip null events
  // Never earlier than the running epoch's (exclusive) end: an event
  // strictly inside the epoch could causally depend on shard state still
  // being computed. `at == post_floor_` is the boundary case — a
  // minimum-lookahead send from the epoch's last grid point — and is
  // safe: the epoch's own barrier stages it before any shard's clock
  // reaches `at`. While parked the floor is the barrier time itself,
  // which admits control-plane events at the current instant.
  NYLON_EXPECTS(at >= post_floor_);
  channel(src, dst).push(channel_event{at, order_a, order_b, std::move(fn)});
}

void shard_engine::drain_inbound(std::size_t dst) {
  shard& sh = *shards_[dst];
  std::vector<channel_event>& scratch = sh.drain_scratch;
  std::vector<std::size_t>& bounds = sh.drain_bounds;
  scratch.clear();
  bounds.clear();
  for (std::size_t src = 0; src < shards_.size(); ++src) {
    bounds.push_back(scratch.size());
    channel(src, dst).drain_into(scratch);
  }
  if (scratch.empty()) return;
  bounds.push_back(scratch.size());
#if NYLON_OBS
  if (obs::trace_enabled()) {
    obs::record_counter("drain/batch_events",
                        obs::trace_us(std::chrono::steady_clock::now()),
                        static_cast<double>(scratch.size()));
  }
#endif
  canonical_merge_segments(scratch, bounds);
  sh.sched.stage_sorted(scratch);
  obs::count_peak(obs::counter::drain_bytes_peak,
                  scratch.capacity() * sizeof(channel_event) +
                      sh.sched.lane_reserved_bytes());
}

sim_time shard_engine::next_epoch_end(sim_time bound,
                                      sim_time staged_at) const {
  // The earliest pending event anywhere (staging lanes included — the
  // engine cuts epochs on next_event_time, which covers both) bounds what
  // this epoch can execute; nothing executing at >= t_min can schedule
  // before t_min + window. Idle shards contribute time_never and never
  // constrain the stride. A staged action counts as pending at its time:
  // the events it creates land there or later.
  sim_time t_min = staged_at;
  for (const auto& s : shards_) {
    t_min = std::min(t_min, s->sched.next_event_time());
  }
  if (t_min >= bound) return bound;  // nothing due before the deadline
  return std::min(bound, t_min + window_);
}

void shard_engine::run_epoch(sim_time end) {
  // Everything before this epoch's first grid point has globally
  // executed; publish it for the transport's lease sweep before any
  // worker wakes (the start barrier provides the happens-before edge;
  // mid-epoch readers use the atomic).
  lease_floor_.store(now_ - 1, std::memory_order_relaxed);
  post_floor_ = end;
  ++epochs_;
  width_sum_ += end - now_;
  width_max_ = std::max(width_max_, end - now_);
#if NYLON_OBS
  if (obs::trace_enabled()) {
    obs::record_counter("epoch/width_ms",
                        obs::trace_us(profile_clock::now()),
                        static_cast<double>(end - now_));
  }
#endif
  const sim_time target = end - 1;  // inclusive form for the run loops
  if (shards_.size() == 1) {
    // Inline path: no barriers, so the whole epoch is work time.
#if NYLON_OBS
    const auto t0 = profile_clock::now();
#endif
    shards_[0]->sched.run_until(target);
    drain_inbound(0);
#if NYLON_OBS
    const auto t1 = profile_clock::now();
    profile_span("epoch", t0, t1);
    shards_[0]->work_s += profile_seconds(t0, t1);
#endif
    return;
  }
  start_workers();
  pool_->target = target;
  pool_->start.arrive_and_wait();
  pool_->finish.arrive_and_wait();
  if (pool_->error != nullptr) {
    worker_error_ = std::exchange(pool_->error, nullptr);
    pool_->error_flag.clear();
    std::rethrow_exception(worker_error_);
  }
}

void shard_engine::run_until(sim_time deadline, staged_actions* staged) {
  NYLON_EXPECTS(deadline >= now_);
  // Control-plane posts (made while parked, or by staged actions at a
  // barrier) may be due inside the next epoch: stage them before any
  // shard advances (single-threaded; nothing is running) so they take
  // their canonical slots.
  const auto drain_control_posts = [this] {
    for (std::size_t s = 0; s < shards_.size(); ++s) drain_inbound(s);
  };
  drain_control_posts();
  // Staged actions due strictly before the deadline ride inside epochs.
  const auto next_staged = [staged, deadline] {
    const sim_time at = staged != nullptr ? staged->next_time() : time_never;
    return at < deadline ? at : time_never;
  };
  // Epochs are half-open [now_, end) spans of the grid; the final epoch
  // ends at deadline + 1 so the deadline's own grid point executes,
  // matching scheduler::run_until's inclusive semantics. Always run at
  // least one epoch: events scheduled *at* the current barrier time (a
  // peer started with zero phase, say) must execute even when the
  // deadline equals now().
  const sim_time bound = deadline + 1;
  for (;;) {
    sim_time staged_at = next_staged();
    const sim_time end = next_epoch_end(bound, staged_at);
    if (staged_at < end) {
      // Everything a staged action creates lands at >= its time >=
      // now_, so the post floor and the window both still hold.
      NYLON_EXPECTS(staged_at >= now_);
      for (; staged_at < end; staged_at = next_staged()) staged->run_next();
      drain_control_posts();
    }
    run_epoch(end);
    now_ = end - 1;
    if (now_ >= deadline) break;
  }
  post_floor_ = now_;
}

std::uint64_t shard_engine::events_executed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->sched.events_executed();
  return total;
}

obs::epoch_profile shard_engine::profile() const {
  obs::epoch_profile out;
  // The epoch-size statistics are deterministic facts about the run (the
  // scale bench reports them even in NYLON_OBS=0 builds); only the
  // wall-clock shard accounting is telemetry-gated.
  out.epochs = epochs_;
  out.epoch_width_ms_max = width_max_;
  out.epoch_width_ms_mean = epoch_width_mean();
  const std::uint64_t events = events_executed();
  out.events_per_epoch = epochs_ == 0 ? 0.0
                                      : static_cast<double>(events) /
                                            static_cast<double>(epochs_);
#if NYLON_OBS
  out.shards.reserve(shards_.size());
  for (const auto& s : shards_) {
    out.shards.push_back(obs::shard_profile{s->work_s, s->wait_s,
                                            s->sched.events_executed(),
                                            s->spin_waits, s->park_waits});
  }
#endif
  return out;
}

}  // namespace nylon::sim
