// A sense-reversing barrier with a bounded spin phase before parking.
//
// The shard engine synchronizes its K shards once per epoch; with
// adaptive windows an epoch can be microseconds of wall time, where a
// futex-based std::barrier pays a syscall sleep/wake round-trip per
// crossing. Here a waiter first spins for a fixed budget — the common
// case when every shard has similar work — and only then takes the
// mutex/condvar slow path, so oversubscribed runs (more shards than
// cores, the common CI shape) still degrade to blocking instead of
// burning each other's quantum.
//
// Two ways to use it, on the same spin-then-park path:
//  * symmetric — every party calls arrive_and_wait(); the last arrival
//    releases the generation;
//  * coordinated — one party (the coordinator) never arrives. The other
//    parties - 1 call arrive_and_wait(); the coordinator calls
//    await_others(), runs a completion step that every party observes
//    once released, then release(). The completion runs once per
//    generation, on the coordinator's thread, while everyone else is
//    held at the barrier.
//
// The barrier reports how each wait resolved (no wait / spun / parked),
// which the engine folds into its per-shard wait telemetry.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/contracts.h"

namespace nylon::sim {

class spin_barrier {
 public:
  enum class wait_kind : std::uint8_t {
    last,    ///< nothing to wait for: this call found the barrier complete
    spun,    ///< released while still spinning
    parked,  ///< gave up spinning and slept on the condvar
  };

  /// `parties` threads take part in each generation (the coordinator
  /// counts as one). The spin budget is in polls; the default (~a few
  /// microseconds) covers same-epoch stragglers without hurting the
  /// parked control-plane case.
  explicit spin_barrier(std::size_t parties,
                        std::uint32_t spin_polls = 4096) noexcept
      : parties_(parties), spin_polls_(spin_polls) {
    NYLON_EXPECTS(parties >= 1);
  }

  spin_barrier(const spin_barrier&) = delete;
  spin_barrier& operator=(const spin_barrier&) = delete;

  /// Arrives and blocks until the generation is released: by the last
  /// arrival (symmetric use) or by the coordinator's release().
  wait_kind arrive_and_wait() {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    const std::size_t arrived =
        arrived_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (arrived == parties_) {
      release();
      return wait_kind::last;
    }
    if (arrived + 1 == parties_) {
      // The coordinator's await may be parked on this count; notifying
      // under the mutex means it cannot miss the wakeup between its
      // predicate check and its sleep.
      std::lock_guard<std::mutex> lock(mutex_);
      others_arrived_.notify_one();
    }
    return wait_until(released_, [this, gen] {
      return generation_.load(std::memory_order_acquire) != gen;
    });
  }

  /// Coordinator side: blocks until the other parties - 1 have arrived
  /// for the current generation. They stay held until release().
  wait_kind await_others() {
    return wait_until(others_arrived_, [this] {
      return arrived_.load(std::memory_order_acquire) + 1 == parties_;
    });
  }

  /// Releases the current generation; what the releasing thread wrote
  /// before the call is visible to every released party. The coordinator
  /// calls it after await_others() and its completion step.
  void release() {
    // The count reset must be ordered before the generation bump (the
    // release store publishes it): a released party may immediately
    // re-arrive for the next generation and must observe arrived_ == 0.
    // The bump and notify happen under the mutex so a parking waiter can
    // never miss the wakeup between its predicate check and its sleep.
    std::lock_guard<std::mutex> lock(mutex_);
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(generation_.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
    released_.notify_all();
  }

 private:
  /// The one spin-then-park path: polls `ready` for the spin budget,
  /// then sleeps on `cv` until it holds.
  template <class Ready>
  wait_kind wait_until(std::condition_variable& cv, Ready ready) {
    if (ready()) return wait_kind::last;
    for (std::uint32_t i = 0; i < spin_polls_; ++i) {
      cpu_relax();
      if (ready()) return wait_kind::spun;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv.wait(lock, ready);
    return wait_kind::parked;
  }

  static void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

  std::size_t parties_;
  std::uint32_t spin_polls_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> arrived_{0};
  std::mutex mutex_;
  std::condition_variable released_;        ///< arrivals wait here
  std::condition_variable others_arrived_;  ///< the coordinator waits here
};

}  // namespace nylon::sim
