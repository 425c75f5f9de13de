// Nylon (Fig. 6): the paper's NAT-resilient peer-sampling protocol.
//
// On top of the (pushpull, rand, healer) basis, a Nylon peer:
//  * keeps a routing table of RVPs (Fig. 5) besides its view,
//  * performs *reactive* hole punching: OPEN_HOLE travels along the RVP
//    chain only when a gossip towards that target is actually initiated,
//  * relays REQUEST/RESPONSE through the chain when hole punching cannot
//    work (symmetric-NAT combinations, Fig. 6 lines 5-7 and 20-22),
//  * stamps every view entry it sends with the remaining TTL of its own
//    route towards that entry, propagating the chain minimum (Fig. 5).
//
// Deviations from the paper's pseudocode are repairs its prose requires;
// they are listed in DESIGN.md ("Pseudocode fidelity notes") and each one
// is unit-tested.
#pragma once

#include <cstdint>
#include <span>

#include "core/routing_table.h"
#include "gossip/peer.h"
#include "util/flat_hash.h"
#include "util/stats.h"

namespace nylon::core {

/// Nylon-specific counters and chain-length observations.
struct nylon_stats {
  std::uint64_t direct_shuffles = 0;    ///< REQUEST sent straight to target
  std::uint64_t relayed_shuffles = 0;   ///< REQUEST routed through RVPs
  std::uint64_t punches_started = 0;    ///< OPEN_HOLE emitted
  std::uint64_t punches_completed = 0;  ///< PONG received, REQUEST sent
  std::uint64_t punches_expired = 0;    ///< no PONG within the horizon
  std::uint64_t response_route_drops = 0;  ///< could not route a RESPONSE
  std::uint64_t unroutable_entries_dropped = 0;  ///< view entries purged
  std::uint64_t buffer_entries_filtered = 0;     ///< not shared (no route)
  std::uint64_t merge_entries_filtered = 0;      ///< not merged (no route)
  /// RVP-chain lengths, measured at the target as the number of
  /// forwarding hops of the arriving OPEN_HOLE (Fig. 9).
  util::running_stats punch_chain_hops;
  /// Same for fully relayed REQUESTs (symmetric-NAT shuffles).
  util::running_stats relay_chain_hops;
};

class nylon_peer : public gossip::peer {
 public:
  /// Nylon fixes propagation to pushpull (the paper's basis config);
  /// selection/merge default to (rand, healer) but stay configurable for
  /// ablations.
  nylon_peer(net::transport& transport, util::rng& rng,
             gossip::protocol_config cfg);

  [[nodiscard]] const nylon_stats& nat_stats() const noexcept {
    return nylon_stats_;
  }
  [[nodiscard]] const routing_table& routes() const noexcept {
    return routing_;
  }

 protected:
  void initiate_shuffle() override;
  void handle_message(const net::datagram& dgram,
                      const gossip::gossip_message& msg) override;
  void decorate_buffer(std::vector<gossip::view_entry>& buffer) override;

 private:
  /// True when a REQUEST can simply be addressed to `d`'s advertised
  /// endpoint: public peers, and full-cone peers whose NAT forwards
  /// everything while their binding is alive (§2.2).
  [[nodiscard]] static bool directly_addressable(
      const gossip::node_descriptor& d) noexcept;

  /// Fig. 6 lines 5 and 20: the combinations where hole punching cannot
  /// work and the protocol falls back to relaying through the chain.
  [[nodiscard]] bool must_relay_request(
      const gossip::node_descriptor& target) const noexcept;
  [[nodiscard]] bool must_relay_response(
      const gossip::node_descriptor& src) const noexcept;

  /// Forwards a routed message one hop along the RVP chain (lines 17-19,
  /// 29-31, 39-40), re-stamping the hop sender and the hop counter.
  void forward(const gossip::gossip_message& msg);

  /// Sends to a resolved next hop, refreshing its direct entry: our
  /// packet refreshes the hop's NAT rule for us, so the link stays usable
  /// as long as traffic flows — the send-side half of §4's TTL-update
  /// rule, without which chains decay while still carrying traffic.
  void send_via_hop(const next_hop& hop, gossip::gossip_message msg);
  void send_via_hop(const next_hop& hop, net::payload_ptr body);

  /// Fig. 6 lines 25-26: merge the received buffer into the view, then
  /// bind each received entry to the shuffle partner as its RVP with the
  /// advertised (chain-minimum) TTL. `sent` must stay alive for the call.
  void merge_and_learn(const gossip::gossip_message& msg,
                       std::span<const gossip::view_entry> sent);

  void remember_request(net::node_id target,
                        net::arena_ref<const gossip::gossip_message> sent);
  void prune_pending();

  /// Drops natted view entries with no live route (the paper's views
  /// contain "no stale references"; a routeless entry cannot be gossiped
  /// with, so keeping it would only distort the sample). As a side
  /// effect fills `ttl_scratch_` with each surviving entry's remaining
  /// TTL, which the immediately following decorate_buffer consumes
  /// instead of re-probing the routing table.
  void drop_unroutable_entries(sim::sim_time now);

  static constexpr int pending_ttl_periods = 10;
  static constexpr std::uint8_t max_forward_hops = 32;

  routing_table routing_;
  nylon_stats nylon_stats_;

  /// The sent buffer is shared with the wire message instead of copied.
  struct pending_request {
    net::arena_ref<const gossip::gossip_message> sent_msg;
    sim::sim_time sent_at = 0;
  };
  util::flat_hash_map<net::node_id, pending_request> pending_requests_;
  /// target -> punch start time + 1 (0 is the table's "fresh" default).
  util::flat_hash_map<net::node_id, sim::sim_time> pending_punches_;
  /// Per-view-entry TTLs computed by drop_unroutable_entries, consumed
  /// (and invalidated) by the next decorate_buffer in the same
  /// initiate_shuffle call — the two walk the same entries and would
  /// otherwise duplicate every routing-table probe.
  std::vector<sim::sim_time> ttl_scratch_;
  bool ttl_scratch_valid_ = false;
};

}  // namespace nylon::core
