#include "core/routing_table.h"

#include <algorithm>

#include "obs/counters.h"
#include "util/contracts.h"

namespace nylon::core {

routing_table::routing_table(sim::sim_time hole_timeout,
                             std::size_t expected_contacts)
    : hole_timeout_(hole_timeout) {
  NYLON_EXPECTS(hole_timeout > 0);
  table_.reserve(expected_contacts);
}

void routing_table::touch_direct(net::node_id p, const net::endpoint& addr,
                                 sim::sim_time now) {
  route_entry& e = table_.insert_or_get(p);
  obs::count_peak(obs::counter::route_table_peak, table_.size());
  e.direct_address = addr;
  e.direct_expires = now + hole_timeout_;
  note_expiry(e.direct_expires);
}

void routing_table::learn_route(net::node_id dest, net::node_id rvp,
                                sim::sim_time expires, sim::sim_time now,
                                bool authoritative) {
  NYLON_EXPECTS(dest != rvp);
  route_entry& e = table_.insert_or_get(dest);
  obs::count_peak(obs::counter::route_table_peak, table_.size());
  const bool existing_valid =
      e.rvp != net::nil_node && e.route_expires >= now;
  if (!existing_valid || (authoritative && expires > e.route_expires)) {
    e.rvp = rvp;
    e.route_expires = expires;
    note_expiry(expires);
  }
  // else: first-giver-wins — see the header for why this keeps chains
  // acyclic.
}

void routing_table::forget(net::node_id dest) { table_.erase(dest); }

void routing_table::purge_expired(sim::sim_time now) {
  if (now <= next_expiry_) return;  // nothing can have expired yet
  // Queries reject expired entries themselves, so the sweep is pure
  // garbage collection — run it at most once per hole timeout. Lingering
  // expired entries are invisible (every read re-checks expiry) and
  // bounded by one timeout's worth of learns (sweeping more often
  // shrinks the table but costs more than the garbage does).
  if (now < last_sweep_ + hole_timeout_) return;
  last_sweep_ = now;
  sim::sim_time next = sim::time_never;
  table_.erase_if([&](net::node_id, route_entry& e) {
    // An entry survives while either layer is live; the dead layer is
    // reset to its vacant state (what erasing from the old per-layer map
    // did), so introspection never counts it again.
    bool live = false;
    if (e.direct_expires >= now) {
      next = std::min(next, e.direct_expires);
      live = true;
    } else {
      e.direct_expires = -1;
    }
    if (e.rvp != net::nil_node && e.route_expires >= now) {
      next = std::min(next, e.route_expires);
      live = true;
    } else {
      e.rvp = net::nil_node;
      e.route_expires = 0;
    }
    return !live;
  });
  next_expiry_ = next;
}

bool routing_table::is_direct(net::node_id dest, sim::sim_time now) const {
  return live_direct(dest, now) != nullptr;
}

std::optional<next_hop> routing_table::next_rvp(net::node_id dest,
                                                sim::sim_time now) const {
  const route_entry* e = table_.find(dest);
  if (e == nullptr) return std::nullopt;
  if (e->direct_expires >= now) return next_hop{dest, e->direct_address};
  if (e->rvp == net::nil_node || e->route_expires < now) return std::nullopt;
  const route_entry* hop = live_direct(e->rvp, now);
  if (hop == nullptr) {
    // The RVP itself is no longer reachable; the chain is broken here.
    return std::nullopt;
  }
  return next_hop{e->rvp, hop->direct_address};
}

sim::sim_time routing_table::remaining_ttl(net::node_id dest,
                                           sim::sim_time now) const {
  const route_entry* e = table_.find(dest);
  if (e == nullptr) return 0;
  if (e->direct_expires >= now) return e->direct_expires - now;
  if (e->rvp == net::nil_node || e->route_expires < now) return 0;
  const route_entry* hop = live_direct(e->rvp, now);
  if (hop == nullptr) return 0;
  // Minimum along the chain as seen from here: the learnt expiry already
  // carries the upstream minimum; the local link to the RVP caps it.
  return std::min(e->route_expires, hop->direct_expires) - now;
}

routing_table::route_status routing_table::resolve(net::node_id dest,
                                                   sim::sim_time now) const {
  const route_entry* e = table_.find(dest);
  if (e == nullptr) return {};
  if (e->direct_expires >= now) return {true, e->direct_expires - now};
  if (e->rvp == net::nil_node || e->route_expires < now) return {};
  const route_entry* hop = live_direct(e->rvp, now);
  if (hop == nullptr) return {};
  return {true, std::min(e->route_expires, hop->direct_expires) - now};
}

std::size_t routing_table::direct_count(sim::sim_time now) const {
  std::size_t count = 0;
  table_.for_each([&](net::node_id, const route_entry& e) {
    if (e.direct_expires >= now) ++count;
  });
  return count;
}

std::size_t routing_table::route_count(sim::sim_time now) const {
  std::size_t count = 0;
  table_.for_each([&](net::node_id, const route_entry& e) {
    if (e.rvp != net::nil_node && e.route_expires >= now) ++count;
  });
  return count;
}

}  // namespace nylon::core
