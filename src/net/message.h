// Type-erased datagram payloads. Protocol layers (gossip, nylon) define
// concrete payloads; the transport only needs a wire size for bandwidth
// accounting and a message kind for per-kind statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "net/address.h"
#include "net/payload_arena.h"

namespace nylon::net {

/// Transport-level message classification: the protocol kinds the
/// simulator accounts for with a fixed array instead of a string-keyed
/// hash (a per-send lookup by type name was hot). Payloads outside the
/// gossip protocol (test doubles, measurement probes) report `other` and
/// share its one counter.
enum class message_kind : std::uint8_t {
  request,    ///< shuffle request carrying the initiator's buffer
  response,   ///< shuffle response carrying the target's buffer
  open_hole,  ///< Nylon: hole-punch trigger, forwarded along the RVP chain
  ping,       ///< Nylon: opens the sender's own NAT hole towards dest
  pong,       ///< Nylon: confirms the hole is open
  other,      ///< anything else (one shared byte counter)
  count_      ///< number of kinds (internal)
};

/// Display name of a known message kind ("?" for `other`).
[[nodiscard]] constexpr std::string_view to_string(message_kind k) noexcept {
  switch (k) {
    case message_kind::request: return "REQUEST";
    case message_kind::response: return "RESPONSE";
    case message_kind::open_hole: return "OPEN_HOLE";
    case message_kind::ping: return "PING";
    case message_kind::pong: return "PONG";
    case message_kind::other:
    case message_kind::count_: break;
  }
  return "?";
}

class frame_payload;

/// Base class of everything that can ride inside a simulated UDP datagram.
class payload {
 public:
  virtual ~payload() = default;

  /// Serialized payload size in bytes (excluding the IP/UDP header, which
  /// the transport adds).
  [[nodiscard]] virtual std::size_t wire_size() const noexcept = 0;

  /// Stable name of the message type ("REQUEST", ...) for diagnostics.
  [[nodiscard]] virtual std::string_view type_name() const noexcept = 0;

  /// Transport-level kind for O(1) accounting and dispatch; `other`
  /// unless the payload is a gossip protocol message.
  [[nodiscard]] virtual message_kind wire_kind() const noexcept {
    return message_kind::other;
  }

  /// Non-null iff this payload is a serialized frame (raw bytes) rather
  /// than an in-memory protocol struct. The transport uses it to decode
  /// before dispatching to a handler.
  [[nodiscard]] virtual const frame_payload* as_frame() const noexcept {
    return nullptr;
  }
};

/// A payload that is a serialized byte frame. Its wire_size()/wire_kind()
/// must report the *encoded message's* nominal size and kind so that
/// bandwidth accounting is invariant under serialization.
class frame_payload : public payload {
 public:
  /// The serialized frame (header + body).
  [[nodiscard]] virtual std::span<const std::byte> bytes() const noexcept = 0;

  [[nodiscard]] const frame_payload* as_frame() const noexcept final {
    return this;
  }
};

/// Payloads are immutable, arena-allocated and intrusively refcounted;
/// shared between the in-flight datagram's delivery lease and any
/// sender-side bookkeeping (pending-request buffers).
using payload_ptr = arena_ref<const payload>;

/// Serializer installed on a transport that carries real bytes
/// (sim-frames mode, the UDP backend). Implemented by wire/codec.cpp;
/// declared here so net/ stays independent of the wire/ and gossip/
/// layers.
class frame_codec {
 public:
  virtual ~frame_codec() = default;

  /// Serializes a protocol payload into a frame_payload (arena block
  /// holding header + body bytes). Precondition: the codec recognizes
  /// the payload's concrete type.
  [[nodiscard]] virtual payload_ptr encode(const payload& body) const = 0;

  /// Parses a frame back into the protocol payload it encodes, or null
  /// if the bytes are malformed (typed errors live on the concrete
  /// codec's decode entry point).
  [[nodiscard]] virtual payload_ptr decode(
      std::span<const std::byte> bytes) const = 0;
};

/// A delivered datagram, as the receiving socket sees it: the source is
/// the post-NAT translated endpoint (what a real socket's recvfrom yields).
/// `body` is a borrowed pointer, valid only for the duration of the
/// handler callback — a receiver keeps what it needs by copying (or, in
/// test code, by `payload_ptr::retain`), never by storing the datagram.
struct datagram {
  endpoint source;
  endpoint destination;
  const payload* body = nullptr;
};

/// Bytes of IP + UDP header added to every datagram (20 + 8).
inline constexpr std::size_t udp_header_bytes = 28;

}  // namespace nylon::net
