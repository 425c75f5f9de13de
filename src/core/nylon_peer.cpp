#include "core/nylon_peer.h"

#include <algorithm>
#include <utility>

#include "util/contracts.h"

namespace nylon::core {

using gossip::gossip_message;
using gossip::message_kind;
using gossip::node_descriptor;
using gossip::view_entry;

nylon_peer::nylon_peer(net::transport& transport, util::rng& rng,
                       gossip::protocol_config cfg)
    : gossip::peer(transport, rng,
                   [&] {
                     // Nylon's basis is pushpull (§4); the other two
                     // dimensions remain configurable for ablations.
                     cfg.propagation = gossip::propagation_policy::pushpull;
                     return cfg;
                   }()),
      routing_(transport.config().hole_timeout) {}

bool nylon_peer::directly_addressable(const node_descriptor& d) noexcept {
  return d.type == nat::nat_type::open || d.type == nat::nat_type::full_cone;
}

bool nylon_peer::must_relay_request(
    const node_descriptor& target) const noexcept {
  // Fig. 6 line 5: (target is SYM and self is PRC) or self is SYM.
  using nat::nat_type;
  const nat_type self_type = self().type;
  return (target.type == nat_type::symmetric &&
          self_type == nat_type::port_restricted_cone) ||
         self_type == nat_type::symmetric;
}

bool nylon_peer::must_relay_response(
    const node_descriptor& src) const noexcept {
  // Fig. 6 line 20: (src is SYM and self != public) or
  //                 (self is SYM and src != public).
  using nat::nat_type;
  const nat_type self_type = self().type;
  const bool self_public = !nat::is_natted(self_type);
  const bool src_public = !nat::is_natted(src.type);
  return (src.type == nat_type::symmetric && !self_public) ||
         (self_type == nat_type::symmetric && !src_public);
}

void nylon_peer::initiate_shuffle() {
  // Fig. 6 lines 1-14.
  const sim::sim_time now = transport_.now_for(id());
  routing_.purge_expired(now);  // line 14 (equivalent placement)
  drop_unroutable_entries(now);
  prune_pending();
  if (view_.empty()) {
    ++stats_.empty_view_skips;
    return;
  }
  const node_descriptor target = view_.select(cfg_.selection, rng_).peer;
  const auto hop = routing_.next_rvp(target.id, now);

  if (directly_addressable(target) || (hop && hop->rvp == target.id)) {
    // Line 3: target public or next_RVP(target) == target.
    ++stats_.initiated;
    ++nylon_stats_.direct_shuffles;
    gossip_message msg;
    msg.kind = message_kind::request;
    msg.sender = self();
    msg.src = self();
    msg.dest = target;
    msg.entries = build_buffer();
    net::arena_ref<const gossip_message> body = make_message(msg);
    if (hop && hop->rvp == target.id) {
      send_via_hop(*hop, body);
    } else {
      transport_.send(id(), target.addr, body);
    }
    remember_request(target.id, std::move(body));
  } else if (must_relay_request(target)) {
    // Lines 5-7: relay the REQUEST through the chain.
    if (!hop) {
      ++stats_.no_route_skips;
    } else {
      ++stats_.initiated;
      ++nylon_stats_.relayed_shuffles;
      gossip_message msg;
      msg.kind = message_kind::request;
      msg.sender = self();
      msg.src = self();
      msg.dest = target;
      msg.entries = build_buffer();
      net::arena_ref<const gossip_message> body = make_message(msg);
      send_via_hop(*hop, body);
      remember_request(target.id, std::move(body));
    }
  } else {
    // Lines 8-12: reactive hole punching.
    if (!hop) {
      ++stats_.no_route_skips;
    } else {
      ++stats_.initiated;
      ++nylon_stats_.punches_started;
      gossip_message open;
      open.kind = message_kind::open_hole;
      open.sender = self();
      open.src = self();
      open.dest = target;
      send_via_hop(*hop, std::move(open));
      if (nat::is_natted(self().type)) {
        // Line 11-12: open our own hole towards the target. The PING is
        // usually dropped by the target's NAT; its purpose is the rule it
        // creates in *our* NAT, which the PONG will traverse.
        gossip_message ping;
        ping.kind = message_kind::ping;
        ping.sender = self();
        ping.src = self();
        ping.dest = target;
        transport_.send(id(), target.addr, make_message(ping));
      }
      // Keep the first punch's timestamp if one is already outstanding
      // (emplace semantics). Times are stored +1 so the table's
      // default-constructed 0 means "fresh entry" even at sim time 0.
      sim::sim_time& started = pending_punches_.insert_or_get(target.id);
      if (started == 0) started = now + 1;
    }
  }
  // The scratch is only meaningful within this call (the punch path may
  // not have consumed it; a REQUEST handled later must not see it).
  ttl_scratch_valid_ = false;
  view_.increase_age();  // line 13
}

void nylon_peer::send_via_hop(const next_hop& hop, net::payload_ptr body) {
  // Sending refreshes the hop's NAT rule for us, so the link bookkeeping
  // may be refreshed too. Chained-route TTLs are NOT refreshed here: a
  // pointer's downstream chain can die invisibly, so pointers must expire
  // at their learnt TTL (first-giver discipline, see routing_table.h).
  const sim::sim_time now = transport_.now_for(id());
  routing_.touch_direct(hop.rvp, hop.address, now);
  transport_.send(id(), hop.address, std::move(body));
}

void nylon_peer::send_via_hop(const next_hop& hop, gossip_message msg) {
  send_via_hop(hop, make_message(msg));
}

void nylon_peer::forward(const gossip_message& msg) {
  const sim::sim_time now = transport_.now_for(id());
  if (msg.hops >= max_forward_hops) {
    ++stats_.forward_drops;
    return;
  }
  const auto hop = routing_.next_rvp(msg.dest.id, now);
  if (!hop) {
    ++stats_.forward_drops;
    return;
  }
  gossip_message copy = msg;
  copy.sender = self();
  copy.hops = static_cast<std::uint8_t>(msg.hops + 1);
  ++stats_.messages_forwarded;
  send_via_hop(*hop, std::move(copy));
}

void nylon_peer::handle_message(const net::datagram& dgram,
                                const gossip_message& msg) {
  const sim::sim_time now = transport_.now_for(id());
  // Fig. 6 lines 16/28/36/42/45: any message makes its immediate sender a
  // direct contact for a full hole timeout.
  if (msg.sender.id != id()) {
    routing_.touch_direct(msg.sender.id, dgram.source, now);
  }
  // Reverse route towards the originator of a forwarded message (DESIGN.md
  // fidelity note 3): we can reach `src` back through the hop that
  // delivered this message.
  if (msg.src.id != id() && msg.src.id != msg.sender.id &&
      gossip::valid(msg.src)) {
    routing_.learn_route(msg.src.id, msg.sender.id,
                         now + routing_.hole_timeout(), now);
  }

  switch (msg.kind) {
    case message_kind::request: {
      if (msg.dest.id != id()) {  // lines 17-19
        forward(msg);
        return;
      }
      ++stats_.requests_received;
      if (msg.hops > 0) {
        nylon_stats_.relay_chain_hops.add(static_cast<double>(msg.hops));
      }
      gossip_message response;
      response.kind = message_kind::response;
      response.sender = self();
      response.src = self();
      response.dest = msg.src;
      response.entries = build_buffer();
      const net::arena_ref<const gossip_message> reply = make_message(response);
      if (must_relay_response(msg.src)) {  // lines 20-22
        const auto hop = routing_.next_rvp(msg.src.id, now);
        if (hop) {
          send_via_hop(*hop, reply);
        } else {
          ++nylon_stats_.response_route_drops;
        }
      } else {  // lines 23-24: direct reply to the observed endpoint
        transport_.send(id(), dgram.source, reply);
      }
      merge_and_learn(msg, reply->entries);  // lines 25-26
      return;
    }

    case message_kind::response: {
      if (msg.dest.id != id()) {  // lines 29-31
        forward(msg);
        return;
      }
      ++stats_.responses_received;
      std::span<const view_entry> sent;
      net::arena_ref<const gossip_message> request;  // keeps `sent` alive
      if (pending_request* pending = pending_requests_.find(msg.src.id)) {
        request = std::move(pending->sent_msg);
        pending_requests_.erase(msg.src.id);
        if (request) sent = request->entries;
      }
      merge_and_learn(msg, sent);  // lines 33-34
      return;
    }

    case message_kind::open_hole: {
      if (msg.dest.id != id()) {  // lines 39-40
        forward(msg);
        return;
      }
      // Lines 37-38: the chain delivered the punch request; answer the
      // originator directly (its own PING opened the way for this PONG).
      nylon_stats_.punch_chain_hops.add(static_cast<double>(msg.hops));
      gossip_message pong;
      pong.kind = message_kind::pong;
      pong.sender = self();
      pong.src = self();
      pong.dest = msg.src;
      transport_.send(id(), msg.src.addr, make_message(pong));
      return;
    }

    case message_kind::ping: {
      // Lines 41-43: reply to the observed endpoint.
      gossip_message pong;
      pong.kind = message_kind::pong;
      pong.sender = self();
      pong.src = self();
      pong.dest = msg.sender;
      transport_.send(id(), dgram.source, make_message(pong));
      return;
    }

    case message_kind::pong: {
      // Lines 44-46: the hole is open — run the deferred shuffle. Answer
      // only the first PONG per outstanding punch (a PING that slipped
      // through can produce a second one).
      if (!pending_punches_.erase(msg.sender.id)) return;
      ++nylon_stats_.punches_completed;
      gossip_message request;
      request.kind = message_kind::request;
      request.sender = self();
      request.src = self();
      request.dest = msg.sender;
      request.entries = build_buffer();
      net::arena_ref<const gossip_message> body = make_message(request);
      transport_.send(id(), dgram.source, body);
      remember_request(msg.sender.id, std::move(body));
      return;
    }
  }
}

void nylon_peer::merge_and_learn(const gossip_message& msg,
                                 std::span<const view_entry> sent) {
  const sim::sim_time now = transport_.now_for(id());
  // update_routing_table (Fig. 6 line 26, prose of §4): the shuffle
  // partner becomes the RVP for every entry it handed over — usable only
  // when the partner is itself directly reachable (DESIGN.md note 5: a
  // fully relayed exchange provides no usable first hop, so natted
  // entries we cannot bind a route for are not merged either).
  const bool partner_direct = routing_.is_direct(msg.src.id, now);
  if (partner_direct) {
    for (const view_entry& e : msg.entries) {
      if (e.peer.id == id() || e.peer.id == msg.src.id) continue;
      if (directly_addressable(e.peer)) continue;  // no RVP needed
      const sim::sim_time advertised =
          std::clamp<sim::sim_time>(e.route_ttl, 0, routing_.hole_timeout());
      if (advertised <= 0) continue;
      // A full-timeout advertisement means the partner holds a fresh
      // direct hole to this entry: authoritative, replaces stale chains.
      // (Replacing on *any* fresher copy was tried and re-introduces the
      // pointer-cycle instability — see EXPERIMENTS.md's Fig. 9 notes.)
      const bool authoritative =
          advertised >= routing_.hole_timeout() - cfg_.shuffle_period;
      routing_.learn_route(e.peer.id, msg.src.id, now + advertised, now,
                           authoritative);
    }
    view_.merge(msg.entries, sent, cfg_.merge, id(), rng_);
    return;
  }
  std::vector<view_entry> usable;
  usable.reserve(msg.entries.size());
  for (const view_entry& e : msg.entries) {
    if (directly_addressable(e.peer) ||
        routing_.next_rvp(e.peer.id, now).has_value()) {
      usable.push_back(e);
    } else {
      ++nylon_stats_.merge_entries_filtered;
    }
  }
  view_.merge(usable, sent, cfg_.merge, id(), rng_);
}

void nylon_peer::decorate_buffer(std::vector<view_entry>& buffer) {
  const sim::sim_time now = transport_.now_for(id());
  if (ttl_scratch_valid_ && buffer.size() == ttl_scratch_.size() + 1 &&
      buffer.front().peer.id == id()) {
    // Fast path for initiate_shuffle: drop_unroutable_entries just
    // resolved every view entry; reuse those TTLs instead of probing the
    // routing table a second time.
    ttl_scratch_valid_ = false;
    buffer.front().route_ttl = routing_.hole_timeout();
    for (std::size_t i = 1; i < buffer.size(); ++i) {
      buffer[i].route_ttl = ttl_scratch_[i - 1];
    }
  } else {
    ttl_scratch_valid_ = false;
    for (view_entry& e : buffer) {
      if (e.peer.id == id() || directly_addressable(e.peer)) {
        e.route_ttl = routing_.hole_timeout();
      } else {
        e.route_ttl = routing_.remaining_ttl(e.peer.id, now);
      }
    }
  }
  // Never hand out a natted reference we cannot route to ourselves: the
  // receiver would bind its route through us, so the reference would be
  // dead on arrival — pure view pollution (DESIGN.md fidelity note 6).
  const std::size_t before = buffer.size();
  std::erase_if(buffer, [&](const view_entry& e) {
    return e.peer.id != id() && !directly_addressable(e.peer) &&
           e.route_ttl <= 0;
  });
  nylon_stats_.buffer_entries_filtered += before - buffer.size();
}

void nylon_peer::drop_unroutable_entries(sim::sim_time now) {
  // The paper observes "no stale references in peer views" (§5): a view
  // entry whose route has expired is unusable for gossip, so Nylon drops
  // it and lets the next merge refill the slot.
  std::vector<net::node_id> unroutable;
  ttl_scratch_.clear();
  for (const view_entry& e : view_.entries()) {
    if (directly_addressable(e.peer)) {
      ttl_scratch_.push_back(routing_.hole_timeout());
      continue;
    }
    const routing_table::route_status status =
        routing_.resolve(e.peer.id, now);
    if (status.reachable) {
      ttl_scratch_.push_back(status.ttl);
    } else {
      unroutable.push_back(e.peer.id);
    }
  }
  ttl_scratch_valid_ = true;
  for (const net::node_id dead : unroutable) {
    view_.remove(dead);
    ++nylon_stats_.unroutable_entries_dropped;
  }
}

void nylon_peer::remember_request(
    net::node_id target, net::arena_ref<const gossip_message> sent) {
  pending_requests_.insert_or_get(target) =
      pending_request{std::move(sent), transport_.now_for(id())};
}

void nylon_peer::prune_pending() {
  const sim::sim_time horizon = transport_.now_for(id()) -
                                pending_ttl_periods * cfg_.shuffle_period;
  pending_requests_.erase_if([&](net::node_id, const pending_request& item) {
    return item.sent_at < horizon;
  });
  pending_punches_.erase_if([&](net::node_id, sim::sim_time started) {
    if (started - 1 >= horizon) return false;  // stored +1; see header
    ++nylon_stats_.punches_expired;
    return true;
  });
}

}  // namespace nylon::core
