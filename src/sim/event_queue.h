// A stable queue of timed events. Stability (FIFO among events with the
// same timestamp) is what makes whole simulations reproducible bit-for-bit
// from a seed, so it is guaranteed here rather than left to chance.
//
// Storage layout (the hot path of the whole simulator):
//
//  * Callbacks live in a slab of pooled slots recycled through a free
//    list; pushing an event allocates nothing once the slab has warmed up,
//    where the previous implementation paid one `std::function` heap
//    capture plus one `shared_ptr<bool>` control block per event.
//  * Events are grouped into per-timestamp FIFO buckets (a calendar
//    queue): simulated traffic clusters heavily on identical millisecond
//    timestamps (fixed latencies, shared period boundaries), so ordering
//    work happens once per *distinct time* — a small 4-ary min-heap of
//    timestamps — instead of once per event. Push and pop are O(1)
//    amortized; a binary heap of (time, seq) entries spent two thirds of
//    its time in sift_down.
//
// A pushed event always runs: there is no cancellation. Work that may
// have to stop (a departed peer's shuffle timer) checks its own state when
// it fires; periodic tasks end by returning false (scheduler::every).
//
// Threading: a queue belongs to one universe (or one shard) and one
// thread at a time; a spec run's worker pool gives every (cell, seed)
// universe its own scheduler.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "sim/time.h"
#include "util/contracts.h"
#include "util/flat_hash.h"
#include "util/inplace_function.h"

namespace nylon::sim {

/// One canonically keyed event, used by the staging API below (and, as
/// `channel_event`, by the cross-shard channels).
/// `order_a` / `order_b` break ties among equal timestamps; the sharded
/// transport uses (sender id, per-sender sequence number).
struct staged_event {
  sim_time at = 0;
  std::uint64_t order_a = 0;
  std::uint64_t order_b = 0;
  util::callback fn;
};

/// The canonical (at, order_a, order_b) strict weak order.
[[nodiscard]] inline bool canonical_less(const staged_event& a,
                                         const staged_event& b) noexcept {
  if (a.at != b.at) return a.at < b.at;
  if (a.order_a != b.order_a) return a.order_a < b.order_a;
  return a.order_b < b.order_b;
}

/// The `order_a` of control-plane lane events (the sharded engine's
/// staged departures): it sorts after every packet key at its timestamp,
/// and the queue does not count such events as executed — they are
/// bookkeeping moved off the barrier, not simulation work.
inline constexpr std::uint64_t control_order = ~std::uint64_t{0};

namespace detail {

/// One pooled event.
struct event_slot {
  util::callback fn;
  std::uint32_t next = 0;  ///< intrusive FIFO link within a time bucket
};

/// The slot slab. Slots live in fixed-size chunks so growth never
/// relocates live events (a callback runs in place while it pushes).
struct event_slab {
  static constexpr std::uint32_t chunk_shift = 8;  ///< 256 slots per chunk
  static constexpr std::uint32_t chunk_size = 1u << chunk_shift;
  static constexpr std::uint32_t chunk_mask = chunk_size - 1;

  std::vector<std::unique_ptr<event_slot[]>> chunks;
  std::vector<std::uint32_t> free_list;
  std::uint32_t slot_count = 0;  ///< slots handed out so far

  [[nodiscard]] event_slot& slot(std::uint32_t index) noexcept {
    return chunks[index >> chunk_shift][index & chunk_mask];
  }
};

}  // namespace detail

/// Queue of `void()` callbacks ordered by (time, insertion seq).
class event_queue {
 public:
  event_queue() {
    // Typical simulations keep O(100) distinct pending timestamps (one
    // latency horizon of sends plus period boundaries); pre-sizing skips
    // the growth/rehash chain that dominated fresh-queue cost.
    by_time_.reserve(128);
    time_heap_.reserve(128);
    buckets_.reserve(128);
  }

  event_queue(const event_queue&) = delete;
  event_queue& operator=(const event_queue&) = delete;

  /// Schedules `fn` at absolute time `at`. Templated so the capture is
  /// constructed directly in its pooled slot (no intermediate
  /// `util::callback` relocation on the hot path).
  template <typename F>
  void push(sim_time at, F&& fn) {
    // Nullable callables (nullptr, function pointers, std::function) are
    // rejected here, at the push site, instead of exploding when the
    // event fires; a plain lambda is statically known to be invocable.
    if constexpr (requires { fn == nullptr; }) {
      NYLON_EXPECTS(!(fn == nullptr));
    }
    const std::uint32_t slot = acquire_slot();
    detail::event_slot& s = slab_.slot(slot);
    s.fn = std::forward<F>(fn);
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, util::callback>) {
      if (!static_cast<bool>(s.fn)) {  // moved-from / default callback
        slab_.free_list.push_back(slot);
        NYLON_EXPECTS(static_cast<bool>(s.fn));
      }
    }
    s.next = no_slot;
    link_into_bucket(at, slot);
    ++queued_;
    obs::count_peak(obs::counter::queue_peak_depth, queued_);
  }

  /// Stages a batch of canonically sorted (see canonical_less; keys
  /// unique) events into the staging lane. Lane events execute
  /// interleaved with the queue in timestamp order; at equal timestamps
  /// queued events run first, then lane events in canonical order. The
  /// lane is what makes the sharded engine's merged stream independent
  /// of epoch boundaries: an event's execution slot depends only on its
  /// canonical key, never on which barrier staged it (bucket FIFO
  /// appends would order same-timestamp events by drain time instead).
  /// Must not be called from inside a running callback. `batch` is
  /// cleared with its capacity kept (often swapped with retired lane
  /// storage) so drain buffers recycle across epochs.
  void stage_sorted(std::vector<staged_event>& batch);

  /// Bytes currently reserved by the staging lane and its merge scratch
  /// (for the drain-buffer peak telemetry).
  [[nodiscard]] std::size_t lane_reserved_bytes() const noexcept {
    return (lane_.capacity() + lane_scratch_.capacity()) *
           sizeof(staged_event);
  }

  /// True when no events (queued or staged) remain.
  [[nodiscard]] bool empty() const noexcept {
    return time_heap_.empty() && lane_next_ == time_never;
  }

  /// Time of the earliest event, or `time_never` when empty.
  [[nodiscard]] sim_time next_time() const noexcept {
    const sim_time qt = time_heap_.empty() ? time_never : time_heap_.front();
    return qt < lane_next_ ? qt : lane_next_;
  }

  /// Pops and runs the earliest event; returns its time.
  /// Requires !empty().
  sim_time pop_and_run() {
    // Ties go to the queue: local events run before staged (cross-shard)
    // events sharing their timestamp, a fixed rule both engines and all
    // epoch partitions agree on.
    if (lane_next_ <
        (time_heap_.empty() ? time_never : time_heap_.front())) {
      return run_lane_front();
    }
    NYLON_EXPECTS(!time_heap_.empty());
    const sim_time at = time_heap_.front();
    bucket& b = buckets_[front_bucket()];
    const std::uint32_t slot = b.head;
    b.head = slab_.slot(slot).next;
    if (b.head == no_slot) b.tail = no_slot;
    --queued_;
    // Retire the bucket *before* running the callback so a reentrant push
    // at the same timestamp starts a fresh (later) bucket.
    if (b.head == no_slot) retire_front_bucket();
    ++executed_;
    obs::count(obs::counter::events_executed);
    // Run the callback in place: the slot is not on the free list yet, so
    // reentrant pushes cannot recycle it, and slot chunks never relocate.
    detail::event_slot& s = slab_.slot(slot);
    s.fn();
    s.fn = nullptr;  // destroy the capture eagerly
    slab_.free_list.push_back(slot);
    return at;
  }

  /// Total number of events executed so far.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  /// FIFO of events sharing one timestamp: an intrusive list threaded
  /// through the slots (`event_slot::next`), so a bucket is 8 bytes and
  /// never allocates.
  struct bucket {
    std::uint32_t head = no_slot;
    std::uint32_t tail = no_slot;
  };

  static constexpr std::uint32_t no_slot = ~std::uint32_t{0};
  static constexpr std::uint32_t no_bucket = ~std::uint32_t{0};
  static constexpr std::size_t heap_arity = 4;

  /// Direct-mapped time→bucket cache entry. Simulated traffic reuses a
  /// small set of pending timestamps (latency horizons, period
  /// boundaries), so most pushes resolve their bucket with one compare
  /// instead of a hash probe. Entries are invalidated when their bucket
  /// retires.
  struct time_cache_entry {
    sim_time t = time_never;
    std::uint32_t bucket = no_bucket;
  };
  static constexpr std::size_t time_cache_size = 128;  // power of two

  std::uint32_t acquire_slot() {
    if (!slab_.free_list.empty()) {
      const std::uint32_t index = slab_.free_list.back();
      slab_.free_list.pop_back();
      obs::count(obs::counter::pool_event_reuses);
      return index;
    }
    obs::count(obs::counter::pool_event_allocs);
    const std::uint32_t index = slab_.slot_count++;
    if ((index >> detail::event_slab::chunk_shift) >= slab_.chunks.size()) {
      grow_slab();
    }
    return index;
  }

  void grow_slab();

  /// Appends `slot` to the FIFO bucket for time `at` (creating it and
  /// registering the timestamp when needed).
  void link_into_bucket(sim_time at, std::uint32_t slot) {
    std::uint32_t bindex;
    time_cache_entry& cached =
        time_cache_[static_cast<std::uint64_t>(at) & (time_cache_size - 1)];
    if (cached.t == at) {
      bindex = cached.bucket;
    } else {
      bindex = bucket_for_new_time(at, cached);
    }
    bucket& b = buckets_[bindex];
    if (b.tail == no_slot) {
      b.head = slot;
    } else {
      slab_.slot(b.tail).next = slot;
    }
    b.tail = slot;
  }

  /// Slow path of link_into_bucket: resolves (or creates) the bucket via
  /// by_time_ and refreshes the direct-mapped cache entry.
  std::uint32_t bucket_for_new_time(sim_time at, time_cache_entry& cached);

  /// Runs the front staged-lane event (requires one strictly earlier
  /// than every queued event); returns its time.
  sim_time run_lane_front();

  void heap_push(sim_time t) noexcept;
  void heap_pop() noexcept;
  /// Bucket index of the earliest timestamp (cached; requires
  /// !time_heap_.empty()).
  [[nodiscard]] std::uint32_t front_bucket() noexcept {
    if (front_bucket_ == no_bucket) {
      front_bucket_ =
          *by_time_.find(static_cast<std::uint64_t>(time_heap_.front())) - 1;
    }
    return front_bucket_;
  }
  /// Retires the drained front bucket and pops its timestamp.
  void retire_front_bucket() noexcept;

  detail::event_slab slab_;
  std::vector<bucket> buckets_;              ///< bucket pool
  std::vector<std::uint32_t> bucket_free_;   ///< drained bucket indices
  /// time -> bucket-index + 1 (0 is flat_hash_map's default "absent").
  util::flat_hash_map<std::uint64_t, std::uint32_t> by_time_;
  std::vector<sim_time> time_heap_;          ///< distinct pending times
  /// Bucket of time_heap_.front(); no_bucket = recompute lazily.
  std::uint32_t front_bucket_ = no_bucket;
  std::array<time_cache_entry, time_cache_size> time_cache_;
  std::size_t queued_ = 0;
  std::uint64_t executed_ = 0;
  /// Staging lane (see stage_sorted): canonically sorted, consumed from
  /// `lane_pos_`. Storage is recycled — fully consumed lanes swap with
  /// the next batch, partial ones merge through `lane_scratch_`.
  std::vector<staged_event> lane_;
  std::size_t lane_pos_ = 0;
  std::vector<staged_event> lane_scratch_;
  /// lane_[lane_pos_].at, cached for the run-loop compare (`time_never`
  /// when the lane is drained).
  sim_time lane_next_ = time_never;
};

}  // namespace nylon::sim
