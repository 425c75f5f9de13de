// Real loopback-UDP transport backend: a small world of simulated peers
// exchanges genuine datagrams through OS sockets.
//
// Topology: one nonblocking UDP socket per simulated *public* IP, bound
// to 127.0.0.1 on a kernel-chosen port (so N peers need N sockets, not
// N processes). NAT boxes stay simulated — the transport still runs
// translation on the way out and filtering on the way in; what the
// backend replaces is the flight itself: every datagram is serialized
// into a v1 wire frame (wire/codec.h), prefixed with a routing
// envelope, and sent through the kernel's loopback path to the
// destination IP's socket, where it is received, parsed, and handed
// back to the transport's delivery path.
//
// Time: simulated time is paced against the wall clock at
// `config::time_scale` wall seconds per simulated second. The sender
// stamps each envelope with the latency model's target delivery time;
// the receiver turns the parsed datagram into a scheduler event at that
// stamp, which runs once the paced clock reaches it (real loopback
// transit, microseconds, hides inside the simulated-latency floor). When
// the wall clock overruns a stamp — scheduler bursts, a slow CI runner —
// the event is scheduled at the current simulated time instead and
// `late_deliveries` counts the jitter, so runs degrade gracefully
// instead of stalling.
//
// On a NAT rebind the node's fresh public IP gets a fresh socket; the
// old socket stays open and keeps receiving, so packets addressed to
// the abandoned endpoint still make the full kernel round trip before
// the transport books them as unknown_destination — same accounting as
// the in-sim path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/address.h"
#include "net/message.h"
#include "net/node_id.h"
#include "sim/scheduler.h"
#include "sim/time.h"
#include "util/flat_hash.h"

struct pollfd;  // <poll.h>

namespace nylon::net {

class transport;

class udp_backend {
 public:
  struct config {
    /// Wall seconds per simulated second (0.02 = a 150 s experiment in
    /// 3 s of wall clock). Must leave the simulated latency floor well
    /// above real loopback transit: 50 ms * 0.02 = 1 ms >> ~50 us.
    double time_scale = 0.02;
  };

  /// Wire-level telemetry; separate from the transport's books, which
  /// stay in nominal protocol bytes across all transports.
  struct backend_stats {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t real_bytes_sent = 0;  ///< envelope + frame bytes
    std::uint64_t decode_errors = 0;    ///< malformed envelope or frame
    std::uint64_t late_deliveries = 0;  ///< wall clock overran the stamp
    std::uint64_t no_route = 0;         ///< destination IP never had a socket
    std::uint64_t send_failures = 0;    ///< sendto() errors (counted as loss)
  };

  /// All references must outlive the backend. `codec` serializes and
  /// parses the frames (wire::gossip_codec() in production).
  udp_backend(transport& transport, sim::scheduler& sched,
              const frame_codec& codec, config cfg);
  ~udp_backend();

  udp_backend(const udp_backend&) = delete;
  udp_backend& operator=(const udp_backend&) = delete;

  /// A node gained a public-facing IP: called by the transport once per
  /// node at add_node (for natted nodes, with the NAT box's IP) and again
  /// on every NAT rebind/migration with the fresh address. Maps the sim
  /// IP to a real socket.
  void on_public_ip(node_id id, ip_address public_ip);

  /// Carries one datagram. Called by transport::send after translation,
  /// accounting, and the loss/latency draws; arranges for
  /// transport::deliver_inbound to run `delay` after `send_time` (in
  /// simulated time) with this datagram's fields. Takes ownership of
  /// `body`; `bytes` is the accounted wire size (UDP header + payload).
  void ship(node_id from, const endpoint& source, const endpoint& to,
            payload_ptr body, std::size_t bytes, sim::sim_time send_time,
            sim::sim_time delay);

  /// Drives the simulation to `deadline`: alternates between draining
  /// sockets (each datagram becomes a scheduler event), waiting (poll)
  /// until the next scheduler event comes due on the paced wall clock,
  /// and executing it. The wall anchor is
  /// re-established per call, so time spent between calls (probe
  /// evaluation, reporting) never counts as backlog.
  void run_until(sim::sim_time deadline);

  [[nodiscard]] const backend_stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t socket_count() const noexcept {
    return sockets_.size();
  }

 private:
  struct socket_entry {
    int fd = -1;
    std::uint16_t real_port = 0;  ///< kernel-chosen loopback port
    ip_address sim_ip;
    node_id owner = nil_node;
  };

  /// recv()s every socket dry; returns true if anything arrived.
  bool drain_sockets();
  /// Parses one datagram and schedules its delivery to the transport at
  /// max(stamp, now).
  void handle_datagram(std::span<const std::byte> data);

  transport& transport_;
  sim::scheduler& sched_;
  const frame_codec& codec_;
  config cfg_;
  backend_stats stats_;
  std::vector<socket_entry> sockets_;
  std::vector<pollfd> pollfds_;  ///< parallel to sockets_
  util::flat_hash_map<std::uint32_t, std::uint32_t> by_sim_ip_;
  std::vector<std::byte> send_buf_;
};

}  // namespace nylon::net
