#include "net/udp_backend.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "net/transport.h"
#include "util/contracts.h"

namespace nylon::net {

namespace {

// Routing envelope prefixed to every frame. Real deployments would read
// the sender and destination off the socket addresses; here N simulated
// peers share one process and loopback hides the sim addressing, so the
// envelope carries what recvfrom cannot: the sim endpoints (post-NAT),
// the sending node, and the latency model's stamped delivery time.
// Little-endian: from u32, src ip u32, src port u32, dst ip u32,
// dst port u32, deliver_at i64.
constexpr std::size_t envelope_bytes = 28;

void put_u32(std::byte* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::byte>(v >> (8 * i));
}

void put_i64(std::byte* p, std::int64_t v) noexcept {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::byte>(u >> (8 * i));
}

std::uint32_t get_u32(const std::byte* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

std::int64_t get_i64(const std::byte* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return static_cast<std::int64_t>(v);
}

}  // namespace

udp_backend::udp_backend(transport& transport, sim::scheduler& sched,
                         const frame_codec& codec, config cfg)
    : transport_(transport), sched_(sched), codec_(codec), cfg_(cfg) {
  NYLON_EXPECTS(cfg_.time_scale > 0.0);
  by_sim_ip_.reserve(1024);
}

udp_backend::~udp_backend() {
  for (const socket_entry& s : sockets_) ::close(s.fd);
}

void udp_backend::on_public_ip(node_id id, ip_address public_ip) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  NYLON_ENSURES(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // kernel-chosen
  NYLON_ENSURES(
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0);
  socklen_t len = sizeof(addr);
  NYLON_ENSURES(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  // Fresh IPs only: add_node allocates unique 10.x addresses and every
  // rebind draws a never-reused 11.x address.
  NYLON_EXPECTS(by_sim_ip_.find(public_ip.value) == nullptr);
  by_sim_ip_.insert_or_get(public_ip.value) =
      static_cast<std::uint32_t>(sockets_.size());
  sockets_.push_back(
      socket_entry{fd, ntohs(addr.sin_port), public_ip, id});
  pollfds_.push_back(pollfd{fd, POLLIN, 0});
}

void udp_backend::ship(node_id from, const endpoint& source,
                       const endpoint& to, payload_ptr body, std::size_t bytes,
                       sim::sim_time send_time, sim::sim_time delay) {
  const std::uint32_t* dst_index = by_sim_ip_.find(to.ip.value);
  if (dst_index == nullptr) {
    // The destination IP never had a socket (an address no node ever
    // owned). Hand the datagram straight to the delivery path so the
    // transport books the same unknown_destination drop the sim would.
    ++stats_.no_route;
    transport_.deliver_inbound(from, source, to, body.get(), bytes);
    return;
  }

  const payload_ptr encoded = codec_.encode(*body);
  const frame_payload* frame = encoded->as_frame();
  NYLON_ENSURES(frame != nullptr);
  const std::span<const std::byte> frame_bytes = frame->bytes();

  send_buf_.resize(envelope_bytes + frame_bytes.size());
  std::byte* p = send_buf_.data();
  put_u32(p + 0, from);
  put_u32(p + 4, source.ip.value);
  put_u32(p + 8, source.port);
  put_u32(p + 12, to.ip.value);
  put_u32(p + 16, to.port);
  put_i64(p + 20, send_time + delay);
  std::memcpy(p + envelope_bytes, frame_bytes.data(), frame_bytes.size());

  // Send from the socket of the sender's public (post-NAT) IP when it
  // has one; a source that somehow lacks a socket falls back to the
  // destination's own fd (the source endpoint still travels in the
  // envelope, so routing is unaffected).
  const std::uint32_t* src_index = by_sim_ip_.find(source.ip.value);
  const int fd =
      sockets_[src_index != nullptr ? *src_index : *dst_index].fd;
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dst.sin_port = htons(sockets_[*dst_index].real_port);
  const ssize_t sent =
      ::sendto(fd, send_buf_.data(), send_buf_.size(), 0,
               reinterpret_cast<const sockaddr*>(&dst), sizeof(dst));
  if (sent < 0 || static_cast<std::size_t>(sent) != send_buf_.size()) {
    ++stats_.send_failures;  // kernel dropped it: genuine packet loss
    return;
  }
  ++stats_.datagrams_sent;
  stats_.real_bytes_sent += udp_header_bytes + send_buf_.size();
}

bool udp_backend::drain_sockets() {
  bool any = false;
  // Envelope + the largest possible frame (12-byte header + 64 KiB body).
  std::byte buf[envelope_bytes + 12 + 0xFFFF];
  for (const socket_entry& s : sockets_) {
    for (;;) {
      const ssize_t n = ::recv(s.fd, buf, sizeof(buf), 0);
      if (n < 0) break;  // EAGAIN: socket dry
      any = true;
      ++stats_.datagrams_received;
      handle_datagram({buf, static_cast<std::size_t>(n)});
    }
  }
  return any;
}

void udp_backend::handle_datagram(std::span<const std::byte> data) {
  if (data.size() < envelope_bytes) {
    ++stats_.decode_errors;
    return;
  }
  const std::byte* p = data.data();
  const node_id from = get_u32(p + 0);
  const endpoint source{ip_address{get_u32(p + 4)}, get_u32(p + 8)};
  const endpoint destination{ip_address{get_u32(p + 12)}, get_u32(p + 16)};
  sim::sim_time deliver_at = get_i64(p + 20);
  payload_ptr body = codec_.decode(data.subspan(envelope_bytes));
  if (body == nullptr) {
    ++stats_.decode_errors;
    return;
  }
  if (deliver_at < sched_.now()) {
    // The wall clock overran the latency stamp; deliver now and record
    // the jitter instead of time-traveling.
    ++stats_.late_deliveries;
    deliver_at = sched_.now();
  }
  const std::size_t bytes = udp_header_bytes + body->wire_size();
  // The delivery may reentrantly ship() replies; sends are immediate.
  sched_.at(deliver_at, [this, from, source, destination,
                         body = std::move(body), bytes] {
    transport_.deliver_inbound(from, source, destination, body.get(), bytes);
  });
}

void udp_backend::run_until(sim::sim_time deadline) {
  using clock = std::chrono::steady_clock;
  NYLON_EXPECTS(deadline >= sched_.now());
  const clock::time_point wall0 = clock::now();
  const sim::sim_time sim0 = sched_.now();
  // sim_time is in milliseconds; time_scale is wall-seconds per sim-second.
  const auto wall_at = [&](sim::sim_time t) {
    const double sim_seconds = static_cast<double>(t - sim0) / 1000.0;
    return wall0 + std::chrono::duration_cast<clock::duration>(
                       std::chrono::duration<double>(sim_seconds *
                                                     cfg_.time_scale));
  };
  for (;;) {
    drain_sockets();
    // The next thing due: a scheduler event (a timer or a received
    // datagram's delivery), or the deadline itself.
    sim::sim_time next =
        std::clamp(sched_.next_event_time(), sched_.now(), deadline);
    // Pace: wait on the sockets until `next`'s wall image. Datagrams
    // arriving meanwhile can pull `next` earlier (a stamp between now
    // and the horizon).
    for (;;) {
      const clock::time_point target = wall_at(next);
      const auto remaining = target - clock::now();
      if (remaining <= clock::duration::zero()) break;
      // Bounded slices keep the sockets drained even across long idle
      // stretches of simulated time.
      const int timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
              .count(),
          1, 20));
      ::poll(pollfds_.data(), pollfds_.size(), timeout_ms);
      if (drain_sockets()) {
        next = std::clamp(sched_.next_event_time(), sched_.now(), next);
      }
    }
    sched_.run_until(next);
    if (next >= deadline) return;
  }
}

}  // namespace nylon::net
