#include "sim/event_queue.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/contracts.h"

namespace nylon::sim {

void event_queue::grow_slab() {
  // Default-init, not value-init: zeroing every slot's 64-byte inline
  // buffer (~50 KB per chunk) is measurable on queue-heavy benches.
  slab_.chunks.emplace_back(
      new detail::event_slot[detail::event_slab::chunk_size]);
}

void event_queue::heap_push(sim_time t) noexcept {
  time_heap_.push_back(t);
  std::size_t i = time_heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / heap_arity;
    if (time_heap_[parent] <= t) break;
    time_heap_[i] = time_heap_[parent];
    i = parent;
  }
  time_heap_[i] = t;
}

void event_queue::heap_pop() noexcept {
  const sim_time last = time_heap_.back();
  time_heap_.pop_back();
  const std::size_t n = time_heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = heap_arity * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + heap_arity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (time_heap_[c] < time_heap_[best]) best = c;
    }
    if (time_heap_[best] >= last) break;
    time_heap_[i] = time_heap_[best];
    i = best;
  }
  time_heap_[i] = last;
}

std::uint32_t event_queue::bucket_for_new_time(sim_time at,
                                               time_cache_entry& cached) {
  std::uint32_t& bucket_ref =
      by_time_.insert_or_get(static_cast<std::uint64_t>(at));
  if (bucket_ref == 0) {  // first event at this timestamp
    std::uint32_t index;
    if (!bucket_free_.empty()) {
      index = bucket_free_.back();
      bucket_free_.pop_back();
    } else {
      index = static_cast<std::uint32_t>(buckets_.size());
      buckets_.emplace_back();
    }
    bucket_ref = index + 1;
    heap_push(at);
  }
  const std::uint32_t bindex = bucket_ref - 1;
  if (time_heap_.front() == at) front_bucket_ = bindex;
  cached.t = at;
  cached.bucket = bindex;
  return bindex;
}

void event_queue::retire_front_bucket() noexcept {
  const sim_time t = time_heap_.front();
  const std::uint32_t index = front_bucket();
  buckets_[index] = bucket{};
  bucket_free_.push_back(index);
  by_time_.erase(static_cast<std::uint64_t>(t));
  heap_pop();
  front_bucket_ = no_bucket;
  time_cache_entry& cached =
      time_cache_[static_cast<std::uint64_t>(t) & (time_cache_size - 1)];
  if (cached.t == t) cached.t = time_never;  // bucket no longer exists
}

void event_queue::stage_sorted(std::vector<staged_event>& batch) {
  if (batch.empty()) return;
  for (std::size_t i = 1; i < batch.size(); ++i) {
    NYLON_EXPECTS(canonical_less(batch[i - 1], batch[i]));
  }
  if (lane_pos_ == lane_.size()) {
    // Lane fully consumed: swap storage so the caller's drain buffer
    // inherits the retired lane capacity (and vice versa) — no epoch
    // steady state allocates.
    lane_.clear();
    lane_.swap(batch);
  } else {
    // Merge the un-consumed remainder with the new batch. std::merge is
    // stable, but the canonical keys are unique by contract, so the
    // result is the one total order either way.
    lane_scratch_.clear();
    lane_scratch_.reserve(lane_.size() - lane_pos_ + batch.size());
    std::merge(std::make_move_iterator(lane_.begin() +
                                       static_cast<std::ptrdiff_t>(lane_pos_)),
               std::make_move_iterator(lane_.end()),
               std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()),
               std::back_inserter(lane_scratch_),
               [](const staged_event& a, const staged_event& b) noexcept {
                 return canonical_less(a, b);
               });
    lane_.swap(lane_scratch_);
    lane_scratch_.clear();
    batch.clear();
  }
  lane_pos_ = 0;
  lane_next_ = lane_.front().at;
  obs::count_peak(obs::counter::queue_peak_depth,
                  queued_ + (lane_.size() - lane_pos_));
}

sim_time event_queue::run_lane_front() {
  staged_event& ev = lane_[lane_pos_];
  const sim_time at = ev.at;
  const bool counted = ev.order_a != control_order;
  // Move the callback out before running it: it may reenter push (never
  // stage_sorted — that is the lane contract), and dropping the capture
  // eagerly releases whatever it owns.
  util::callback fn = std::move(ev.fn);
  ++lane_pos_;
  if (lane_pos_ == lane_.size()) {
    lane_.clear();
    lane_pos_ = 0;
    lane_next_ = time_never;
  } else {
    lane_next_ = lane_[lane_pos_].at;
  }
  if (counted) {
    ++executed_;
    obs::count(obs::counter::events_executed);
  }
  fn();
  return at;
}

}  // namespace nylon::sim
