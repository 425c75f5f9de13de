// Message lifecycle flight recorder: hop-by-hop forensics for a
// deterministically-sampled subset of messages ("why did this punch
// die?"). The transport's send / NAT-translate / drop / deliver paths
// call the hooks below; sampled messages carry a non-zero tag through
// their delivery closure, and every hop lands in the recording
// thread's private overwrite ring (oldest hops evicted first, the
// eviction counted — the tail of a long run is the interesting part).
//
// Sampling is a pure hash of digest-pinned send facts (sender id,
// sender's message ordinal, sim time), so the same messages are
// sampled on the serial engine and on every shard count, and the
// decision never touches an rng. Like all obs instrumentation the
// recorder is observation-only (DESIGN.md "Observability & the
// determinism contract"): state digests are byte-identical with the
// recorder on, off, or compiled out (NYLON_OBS=0 turns every hook into
// an empty inline and msglog_tag into a constant 0, so no message is
// ever tagged).
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string_view>

#include "obs/counters.h"  // the NYLON_OBS gate
#include "util/json.h"

namespace nylon::obs {

/// The lifecycle stations a message passes through.
enum class hop_kind : std::uint8_t {
  send,           ///< accepted by transport::send (post NAT translate)
  nat_translate,  ///< source endpoint rewritten by the sender's NAT
  drop,           ///< terminated; note names the net::drop_reason
  deliver,        ///< handed to the destination's handler
};

/// Display name ("send", "nat_translate", "drop", "deliver").
[[nodiscard]] std::string_view to_string(hop_kind k) noexcept;

/// One recorded hop. The string fields must have static storage
/// (literals or obs::intern_name) — hooks fire on the hot path and must
/// not allocate.
struct hop_record {
  std::uint64_t tag = 0;       ///< sampled-message id (msglog_tag)
  std::int64_t at = 0;         ///< sim time, ms
  std::uint64_t from = 0;      ///< sender node id
  std::uint64_t to = 0;        ///< destination node id (0 when unknown)
  hop_kind kind = hop_kind::send;
  const char* msg = "";        ///< message kind name ("open_hole", ...)
  const char* note = nullptr;  ///< drop reason / hop detail, or null
};

/// Recording totals, for tests and end-of-run reporting.
struct msglog_stats {
  std::size_t recorded = 0;  ///< hops currently held in rings
  std::size_t dropped = 0;   ///< hops overwritten by ring wrap-around
  std::size_t threads = 0;   ///< threads that recorded at least once
};

/// Starts (or restarts) the recorder, sampling one in `sample_one_in`
/// messages (1 = every message). Existing rings are cleared; each ring
/// holds up to `ring_capacity` hops per thread. Call before the traced
/// work starts — not thread-safe against concurrent recorders.
void msglog_start(std::uint64_t sample_one_in,
                  std::size_t ring_capacity = std::size_t{1} << 12);

/// Stops recording; buffered hops stay readable until the next start.
void msglog_stop() noexcept;

/// True while recording. The one check every hook makes first.
[[nodiscard]] bool msglog_enabled() noexcept;

/// The deterministic sampling decision: hashes the digest-pinned send
/// facts and returns a non-zero tag when the message is sampled, 0
/// otherwise (0 also while the recorder is off or compiled out). The
/// tag identifies the message across all of its hops.
[[nodiscard]] std::uint64_t msglog_tag(std::uint64_t sender,
                                       std::uint64_t ordinal,
                                       std::int64_t at) noexcept;

/// Records one hop on the calling thread's ring (no-op when
/// `rec.tag == 0` or the recorder is off).
void msglog_record(const hop_record& rec) noexcept;

[[nodiscard]] msglog_stats msglog_statistics() noexcept;

/// The whole recording as JSON, hops grouped per sampled message:
/// {"sample_one_in": R, "dropped": D, "messages":
///   [{"tag": "0x...", "from": ..., "hops": [{...}, ...]}, ...]}
/// Messages are ordered by first-hop time, hops within a message by
/// (time, station) — the forensics view for "name the drop_reason".
[[nodiscard]] util::json msglog_to_json();

/// Human-readable dump (one line per sampled message) of the whole
/// recording. `limit` caps the message count (0 = all).
void msglog_dump(std::ostream& out, std::size_t limit = 0);

/// The calling thread's recording position: every hop the thread
/// records after this call is at or past the mark.
[[nodiscard]] std::uint64_t msglog_mark() noexcept;

/// msglog_dump restricted to the hops the calling thread recorded since
/// `mark`: one universe's forensics, for the automatic dump when a
/// check probe fails, untouched by whatever ran on the thread before or
/// on other threads. The header counts only those hops.
void msglog_dump_since(std::ostream& out, std::uint64_t mark,
                       std::size_t limit = 0);

}  // namespace nylon::obs
