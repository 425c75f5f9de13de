// The NAT-oblivious baseline of §3: a literal implementation of Fig. 1.
// It addresses gossip targets by their advertised endpoint and lets the
// network do what it will — which is exactly how it degrades behind NATs.
#pragma once

#include "gossip/peer.h"
#include "util/flat_hash.h"

namespace nylon::gossip {

/// Generic peer-sampling peer (Fig. 1), configurable along the three
/// dimensions of §3 via `protocol_config`.
class generic_peer : public peer {
 public:
  generic_peer(net::transport& transport, util::rng& rng,
               protocol_config cfg)
      : peer(transport, rng, cfg) {}

 protected:
  void initiate_shuffle() override;
  void handle_message(const net::datagram& dgram,
                      const gossip_message& msg) override;

 private:
  /// Outstanding REQUESTs, so a later RESPONSE can be merged with the
  /// right `sent` set (swapper policy needs it). The sent buffer is
  /// shared with the wire message instead of copied. Entries are pruned
  /// once they are `pending_ttl_periods` shuffle periods old.
  struct pending_request {
    net::arena_ref<const gossip_message> sent_msg;
    sim::sim_time sent_at = 0;
  };
  static constexpr int pending_ttl_periods = 10;

  void prune_pending(sim::sim_time now);

  util::flat_hash_map<net::node_id, pending_request> pending_;
};

}  // namespace nylon::gossip
