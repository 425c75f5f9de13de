// Deterministic cross-shard event transfer for the sharded universe
// engine. During an epoch each shard buffers the events it wants to run
// on other shards (packet deliveries, in practice) into per-(src, dst)
// channels; at the top of the next epoch every destination gathers its
// inbound channels and schedules the events in *canonical* order — sorted by
// (timestamp, order_a, order_b), which for packets is (delivery time,
// sender id, per-sender sequence number).
//
// The canonical key is what makes the merged event stream independent of
// how peers are partitioned: two packets arriving at the same destination
// at the same millisecond enqueue in (sender, sequence) order no matter
// which shards — or how many — the senders lived on. Channel FIFO order
// alone would not do that (it reflects intra-epoch execution order, which
// is partition-dependent).
//
// Threading: a channel is single-producer (the thread running the source
// shard, during an epoch) and single-consumer (the thread running the
// destination shard, at the top of the next epoch). The barrier crossing
// between the two epochs provides the happens-before edge; the channel
// itself is deliberately unsynchronized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"
#include "util/inplace_function.h"

namespace nylon::sim {

/// One buffered cross-shard event. `order_a` / `order_b` are the
/// canonical tiebreaks among equal timestamps; producers must make
/// (at, order_a, order_b) unique across all events in flight between
/// two drains (the transport uses sender id + a per-sender monotonic
/// sequence). Same layout the event queue's staging lane consumes, so a
/// drained batch stages without conversion.
using channel_event = staged_event;

/// FIFO buffer of events from one source shard to one destination shard.
/// One cache line each: during an epoch every source thread pushes into
/// its own row while destination threads drain the other set, and
/// neighbouring channels written by different threads must not share a
/// line.
class alignas(64) shard_channel {
 public:
  /// Buffers `ev` (producer side; FIFO order preserved until drain).
  void push(channel_event ev) { events_.push_back(std::move(ev)); }

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Moves every buffered event onto the back of `out` in push (FIFO)
  /// order and clears the channel, keeping its capacity for reuse.
  void drain_into(std::vector<channel_event>& out);

 private:
  std::vector<channel_event> events_;
};

/// Sorts `events` into the canonical cross-shard order, (at, order_a,
/// order_b) ascending, given as `bounds.size() - 1` contiguous segments
/// (`bounds` are the segment start offsets plus the end): each segment —
/// one drained channel's FIFO batch in practice — is sorted in place,
/// then adjacent segments are pairwise merged until one sorted run
/// remains; k short almost-independent runs sort and merge cheaper than
/// one cold global sort at barrier rates. The caller guarantees key
/// uniqueness, so the result is a total order independent of the input
/// permutation and of the segmentation — the property shard determinism
/// rests on. `bounds` is consumed as merge scratch (contents unspecified
/// afterwards; capacity kept for reuse).
void canonical_merge_segments(std::vector<channel_event>& events,
                              std::vector<std::size_t>& bounds);

}  // namespace nylon::sim
