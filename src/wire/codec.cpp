#include "wire/codec.h"

#include <cstring>
#include <vector>

#include "nat/nat_type.h"
#include "util/contracts.h"

namespace nylon::wire {

namespace {

// --- little-endian cursors --------------------------------------------------

void put8(std::byte*& p, std::uint8_t v) noexcept {
  *p++ = static_cast<std::byte>(v);
}

void put16(std::byte*& p, std::uint16_t v) noexcept {
  put8(p, static_cast<std::uint8_t>(v));
  put8(p, static_cast<std::uint8_t>(v >> 8));
}

void put32(std::byte*& p, std::uint32_t v) noexcept {
  put16(p, static_cast<std::uint16_t>(v));
  put16(p, static_cast<std::uint16_t>(v >> 16));
}

std::uint8_t get8(const std::byte*& p) noexcept {
  return std::to_integer<std::uint8_t>(*p++);
}

std::uint16_t get16(const std::byte*& p) noexcept {
  const std::uint16_t lo = get8(p);
  return static_cast<std::uint16_t>(lo | (get8(p) << 8));
}

std::uint32_t get32(const std::byte*& p) noexcept {
  const std::uint32_t lo = get16(p);
  return lo | (static_cast<std::uint32_t>(get16(p)) << 16);
}

// --- layout -----------------------------------------------------------------

constexpr std::size_t wide_port_extra = 2;  ///< port u16 -> u32

std::size_t descriptor_bytes(std::uint8_t flags) noexcept {
  return gossip::descriptor_wire_bytes +
         ((flags & flag_wide_ports) != 0 ? wide_port_extra : 0);
}

std::size_t entry_bytes(std::uint8_t flags) noexcept {
  return descriptor_bytes(flags) + ((flags & flag_wide_age) != 0 ? 4 : 2) +
         ((flags & flag_wide_ttl) != 0 ? 4 : 2);
}

/// Body bytes before the entry tail: kind echo + 3 descriptors +
/// count + hops.
std::size_t body_prefix_bytes(std::uint8_t flags) noexcept {
  return 1 + 3 * descriptor_bytes(flags) + 2 + 1;
}

std::size_t body_size_for(std::uint8_t flags, std::size_t count) noexcept {
  return body_prefix_bytes(flags) + count * entry_bytes(flags);
}

// --- field encoders ---------------------------------------------------------

void put_descriptor(std::byte*& p, const gossip::node_descriptor& d,
                    std::uint8_t flags) {
  put32(p, d.id);
  put32(p, d.addr.ip.value);
  if ((flags & flag_wide_ports) != 0) {
    put32(p, d.addr.port);
  } else {
    NYLON_EXPECTS(d.addr.port <= 0xFFFF);
    put16(p, static_cast<std::uint16_t>(d.addr.port));
  }
  put8(p, static_cast<std::uint8_t>(d.type));
  put8(p, 0);  // pad
}

gossip::node_descriptor get_descriptor(const std::byte*& p, std::uint8_t flags,
                                       decode_error& err) noexcept {
  gossip::node_descriptor d;
  d.id = get32(p);
  d.addr.ip.value = get32(p);
  d.addr.port = (flags & flag_wide_ports) != 0 ? get32(p) : get16(p);
  const std::uint8_t type_byte = get8(p);
  const std::uint8_t pad = get8(p);
  if (type_byte > static_cast<std::uint8_t>(nat::nat_type::symmetric) ||
      pad != 0) {
    err = decode_error::bad_body;
  }
  d.type = static_cast<nat::nat_type>(type_byte);
  return d;
}

}  // namespace

std::uint8_t frame_flags_for(const gossip::gossip_message& msg) noexcept {
  const auto wide_port = [](const gossip::node_descriptor& d) noexcept {
    return d.addr.port > 0xFFFF;
  };
  std::uint8_t flags = 0;
  if (wide_port(msg.sender) || wide_port(msg.src) || wide_port(msg.dest)) {
    flags |= flag_wide_ports;
  }
  for (const gossip::view_entry& e : msg.entries) {
    if (wide_port(e.peer)) flags |= flag_wide_ports;
    if (e.route_ttl > 0xFFFF) flags |= flag_wide_ttl;
    if (e.age > 0xFFFF) flags |= flag_wide_age;
  }
  return flags;
}

std::size_t encoded_body_size(const gossip::gossip_message& msg) noexcept {
  return body_size_for(frame_flags_for(msg), msg.entries.size());
}

net::arena_ref<const encoded_frame> encode(const gossip::gossip_message& msg) {
  const std::uint8_t flags = frame_flags_for(msg);
  const std::size_t count = msg.entries.size();
  const std::size_t body = body_size_for(flags, count);
  NYLON_EXPECTS(count <= 0xFFFF);
  NYLON_EXPECTS(body <= max_body_bytes);

  // Frame-size honesty: the nominal encoding is byte-for-byte the size
  // the transport bills (payload::wire_size), and each wide flag adds
  // exactly its documented widening — bandwidth accounting can never
  // drift from real bytes.
  std::size_t expected = msg.wire_size();
  if ((flags & flag_wide_ports) != 0) expected += wide_port_extra * (3 + count);
  if ((flags & flag_wide_ttl) != 0) expected += 2 * count;
  if ((flags & flag_wide_age) != 0) expected += 2 * count;
  NYLON_ENSURES(body == expected);

  const std::size_t frame_bytes = frame_header_bytes + body;
  void* memory =
      net::arena_detail::allocate(sizeof(encoded_frame) + frame_bytes);
  auto* frame = ::new (memory)
      encoded_frame(msg.wire_kind(), static_cast<std::uint32_t>(msg.wire_size()),
                    static_cast<std::uint32_t>(frame_bytes));
  // Owned from here on, so a contract failure below releases the block.
  auto owned = net::arena_ref<const encoded_frame>::adopt(frame);
  auto* out = const_cast<std::byte*>(frame->bytes().data());

  std::byte* p = out;
  put16(p, frame_magic);
  put8(p, frame_version);
  put8(p, static_cast<std::uint8_t>(msg.wire_kind()));
  put8(p, flags);
  put8(p, 0);  // reserved
  put16(p, static_cast<std::uint16_t>(body));
  put32(p, 0);  // checksum, patched below

  put8(p, static_cast<std::uint8_t>(msg.wire_kind()));
  put_descriptor(p, msg.sender, flags);
  put_descriptor(p, msg.src, flags);
  put_descriptor(p, msg.dest, flags);
  put16(p, static_cast<std::uint16_t>(count));
  put8(p, msg.hops);
  for (const gossip::view_entry& e : msg.entries) {
    put_descriptor(p, e.peer, flags);
    if ((flags & flag_wide_age) != 0) {
      put32(p, e.age);
    } else {
      put16(p, static_cast<std::uint16_t>(e.age));
    }
    NYLON_EXPECTS(e.route_ttl >= 0 && e.route_ttl <= 0xFFFFFFFF);
    if ((flags & flag_wide_ttl) != 0) {
      put32(p, static_cast<std::uint32_t>(e.route_ttl));
    } else {
      put16(p, static_cast<std::uint16_t>(e.route_ttl));
    }
  }
  NYLON_ENSURES(p == out + frame_bytes);

  const std::uint32_t checksum = frame_checksum({out, frame_bytes});
  std::byte* c = out + 8;
  put32(c, checksum);
  return owned;
}

decode_result decode(std::span<const std::byte> frame) {
  const auto fail = [](decode_error e) { return decode_result{e, nullptr}; };
  if (frame.size() < frame_header_bytes) return fail(decode_error::truncated);

  const std::byte* p = frame.data();
  if (get16(p) != frame_magic) return fail(decode_error::bad_magic);
  if (get8(p) != frame_version) return fail(decode_error::bad_version);
  const std::uint8_t kind_byte = get8(p);
  if (kind_byte >= static_cast<std::uint8_t>(net::message_kind::other)) {
    return fail(decode_error::bad_kind);
  }
  const std::uint8_t flags = get8(p);
  const std::uint8_t reserved = get8(p);
  const std::size_t length = get16(p);
  const std::uint32_t stored_checksum = get32(p);
  if (frame_header_bytes + length > frame.size()) {
    return fail(decode_error::truncated);
  }
  if (frame_header_bytes + length < frame.size()) {
    return fail(decode_error::trailing_bytes);
  }
  if (frame_checksum(frame) != stored_checksum) {
    return fail(decode_error::bad_checksum);
  }
  // Checksum verified: any failure past this point is a forged frame
  // violating an encoder invariant, not line noise.
  if ((flags & ~known_flags) != 0 || reserved != 0) {
    return fail(decode_error::bad_body);
  }
  if (length < body_prefix_bytes(flags)) return fail(decode_error::bad_length);

  decode_error err = decode_error::none;
  gossip::gossip_message msg;
  if (get8(p) != kind_byte) return fail(decode_error::bad_body);
  msg.kind = static_cast<gossip::message_kind>(kind_byte);
  msg.sender = get_descriptor(p, flags, err);
  msg.src = get_descriptor(p, flags, err);
  msg.dest = get_descriptor(p, flags, err);
  const std::size_t count = get16(p);
  msg.hops = get8(p);
  if (err != decode_error::none) return fail(err);
  if (length != body_size_for(flags, count)) {
    return fail(decode_error::bad_length);
  }

  // Entry scratch: decode runs inside delivery on the destination
  // shard's thread, so a thread-local vector gives allocation-free
  // steady state without cross-shard sharing.
  static thread_local std::vector<gossip::view_entry> scratch;
  scratch.clear();
  scratch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    gossip::view_entry e;
    e.peer = get_descriptor(p, flags, err);
    e.age = (flags & flag_wide_age) != 0 ? get32(p) : get16(p);
    e.route_ttl = (flags & flag_wide_ttl) != 0 ? get32(p) : get16(p);
    scratch.push_back(e);
  }
  if (err != decode_error::none) return fail(err);
  NYLON_ENSURES(p == frame.data() + frame.size());
  msg.entries = scratch;

  // Canonical-form check: the flags must be exactly the ones this
  // message needs. Guarantees encode(decode(f)) == f bit-for-bit and
  // rejects forged frames padding fields they don't need.
  if (frame_flags_for(msg) != flags) return fail(decode_error::bad_body);

  return {decode_error::none, gossip::make_message(msg)};
}

namespace {

class gossip_frame_codec final : public net::frame_codec {
 public:
  net::payload_ptr encode(const net::payload& body) const override {
    const auto* msg = dynamic_cast<const gossip::gossip_message*>(&body);
    // v1 frames cover the gossip protocol; test doubles and probes
    // (`other` kinds) cannot ride a bytes-carrying transport.
    NYLON_EXPECTS(msg != nullptr);
    return wire::encode(*msg);
  }

  net::payload_ptr decode(std::span<const std::byte> bytes) const override {
    decode_result result = wire::decode(bytes);
    if (result.error != decode_error::none) return nullptr;
    return std::move(result.message);
  }
};

}  // namespace

const net::frame_codec& gossip_codec() noexcept {
  static const gossip_frame_codec codec;
  return codec;
}

}  // namespace nylon::wire
