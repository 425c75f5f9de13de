// Nylon's per-peer routing state (Fig. 5): for every natted peer we may
// want to gossip with, the rendez-vous peer (RVP) that can forward our
// OPEN_HOLE / relayed messages towards it, with a time-to-live.
//
// Two layers, mirroring how the protocol actually learns paths:
//  * direct contacts — peers we exchanged messages with recently; we hold
//    their observed endpoint and the NAT holes are mutual. Refreshed every
//    time a message from them arrives (update_next_RVP(p, p, HOLE_TIMEOUT)).
//  * chained routes — "to reach d, go through rvp r", learnt from a
//    shuffle (the partner that handed us d's reference becomes the RVP,
//    §4) or from a forwarded message's reverse path. The advertised TTL
//    propagates the minimum remaining validity along the chain (Fig. 5's
//    120/140/170 example).
//
// TTLs are stored as absolute expiry times; "decreasing TTLs every period"
// (Fig. 6 line 14) then reduces to purging expired entries.
//
// Storage: both layers live in ONE open-addressed map keyed by the
// destination id. The hot queries (next_rvp / resolve / remaining_ttl)
// always consult the direct layer first and fall through to the chained
// layer for the same destination, so fusing the layers answers them with
// a single probe sequence where the two-map layout paid two; the layer
// split survives as two expiry fields inside the combined entry.
#pragma once

#include <cstddef>
#include <optional>

#include "net/address.h"
#include "net/node_id.h"
#include "sim/time.h"
#include "util/flat_hash.h"

namespace nylon::core {

/// Resolved next hop for a destination.
struct next_hop {
  net::node_id rvp = net::nil_node;  ///< equals dest when direct
  net::endpoint address;             ///< where to physically send
};

class routing_table {
 public:
  /// `hole_timeout` is the NAT-rule lifetime (the paper's 90 s); direct
  /// contacts and freshly learnt routes live at most this long. The
  /// table grows on demand; `expected_contacts` is an optional capacity
  /// hint and never changes what any query answers.
  explicit routing_table(sim::sim_time hole_timeout,
                         std::size_t expected_contacts = 0);

  // --- updates ---------------------------------------------------------------

  /// update_next_RVP(p, p, HOLE_TIMEOUT): a message from `p` (observed at
  /// `addr`) just arrived; `p` is a direct contact for a full timeout.
  void touch_direct(net::node_id p, const net::endpoint& addr,
                    sim::sim_time now);

  /// Records "reach `dest` via `rvp`" with an absolute expiry.
  ///
  /// First-giver-wins: while an existing route is still valid it is kept
  /// and the new one ignored. This is what makes RVP chains converge: a
  /// peer's pointer then always leads to someone who knew the destination
  /// *earlier*, so pointer chains follow strictly decreasing first-learn
  /// times — acyclic and terminating at the destination (or at a peer
  /// that punched with it directly). Last-writer-wins would turn the
  /// pointer graph into a random functional graph whose walks mostly end
  /// in cycles, breaking hole punching at scale.
  ///
  /// Exception: `authoritative` routes — the giver advertised a full
  /// hole-timeout TTL, i.e. it holds a *fresh direct hole* to the
  /// destination — replace whatever is stored. That is distance-1
  /// information; preferring it is what keeps chains at the paper's 1-3
  /// hops instead of wandering through stale pointers. (A cycle through
  /// authoritative pointers would need every hop's direct contact to
  /// have just expired — vanishingly rare, and the hop-count guard in
  /// the forwarder bounds the damage.)
  void learn_route(net::node_id dest, net::node_id rvp, sim::sim_time expires,
                   sim::sim_time now, bool authoritative = false);

  /// Drops everything known about `dest` (e.g. presumed dead).
  void forget(net::node_id dest);

  /// Fig. 6 line 14: purge entries whose TTL has run out. Runs once per
  /// shuffle, so it is guarded by a next-expiry watermark: one compare
  /// while nothing can have expired, a flat sweep otherwise.
  void purge_expired(sim::sim_time now);

  // --- queries ---------------------------------------------------------------

  /// next_RVP(dest): the hop to send to for `dest`, or nullopt when no
  /// live route exists. Direct contact wins over a chained route. A
  /// chained route is usable only while its RVP is itself a direct
  /// contact (we must be able to physically reach the next hop).
  [[nodiscard]] std::optional<next_hop> next_rvp(net::node_id dest,
                                                 sim::sim_time now) const;

  /// True when `dest` is a live direct contact.
  [[nodiscard]] bool is_direct(net::node_id dest, sim::sim_time now) const;

  /// Remaining validity (ms) of our route towards `dest` — the minimum
  /// along the chain, which is what a peer advertises when it hands the
  /// reference onward ("TTLs are exchanged together with the views").
  /// 0 when no route.
  [[nodiscard]] sim::sim_time remaining_ttl(net::node_id dest,
                                            sim::sim_time now) const;

  /// next_rvp and remaining_ttl answered by one probe sequence, for
  /// callers that need both (`reachable` matches next_rvp's has_value;
  /// `ttl` matches remaining_ttl, and can be 0 for a route expiring at
  /// `now` exactly).
  struct route_status {
    bool reachable = false;
    sim::sim_time ttl = 0;
  };
  [[nodiscard]] route_status resolve(net::node_id dest,
                                     sim::sim_time now) const;

  // --- introspection ----------------------------------------------------------

  [[nodiscard]] std::size_t direct_count(sim::sim_time now) const;
  [[nodiscard]] std::size_t route_count(sim::sim_time now) const;
  [[nodiscard]] sim::sim_time hole_timeout() const noexcept {
    return hole_timeout_;
  }

 private:
  /// Both layers for one destination. A layer is live iff its expiry is
  /// >= now; the vacant states (`direct_expires == -1`, `rvp ==
  /// nil_node`) compare dead at any sim time including 0, exactly like
  /// absence from the old per-layer maps did.
  struct route_entry {
    net::endpoint direct_address;
    sim::sim_time direct_expires = -1;
    net::node_id rvp = net::nil_node;
    sim::sim_time route_expires = 0;
  };

  /// Lowers the purge watermark to cover a newly set expiry.
  void note_expiry(sim::sim_time expires) noexcept {
    if (expires < next_expiry_) next_expiry_ = expires;
  }

  /// The live direct contact for `dest`, or nullptr.
  [[nodiscard]] const route_entry* live_direct(net::node_id dest,
                                               sim::sim_time now) const {
    const route_entry* e = table_.find(dest);
    return e != nullptr && e->direct_expires >= now ? e : nullptr;
  }

  sim::sim_time hole_timeout_;
  util::flat_hash_map<net::node_id, route_entry> table_;
  /// No entry expires before this; purge is a no-op until then.
  sim::sim_time next_expiry_ = sim::time_never;
  sim::sim_time last_sweep_ = 0;  ///< GC throttle (see purge_expired)
};

}  // namespace nylon::core
