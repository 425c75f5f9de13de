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
  const sim::sim_time expires = now + hole_timeout_;
  const std::uint32_t stamp = dead_from(expires);
  route_entry& e = table_.insert_or_get(p);
  obs::count_peak(obs::counter::route_table_peak, table_.size());
  e.direct_address = addr;
  e.direct_dead_from = stamp;
  note_expiry(expires);
}

void routing_table::learn_route(net::node_id dest, net::node_id rvp,
                                sim::sim_time expires, sim::sim_time now,
                                bool authoritative) {
  NYLON_EXPECTS(dest != rvp);
  const std::uint32_t stamp = dead_from(expires);
  route_entry& e = table_.insert_or_get(dest);
  obs::count_peak(obs::counter::route_table_peak, table_.size());
  if (!route_live(e, now) ||
      (authoritative && expires > expiry_of(e.route_dead_from))) {
    e.rvp = rvp;
    e.route_dead_from = stamp;
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
    bool live_layer = false;
    if (live(e.direct_dead_from, now)) {
      next = std::min(next, expiry_of(e.direct_dead_from));
      live_layer = true;
    } else {
      e.direct_dead_from = 0;
    }
    if (route_live(e, now)) {
      next = std::min(next, expiry_of(e.route_dead_from));
      live_layer = true;
    } else {
      e.rvp = net::nil_node;
      e.route_dead_from = 0;
    }
    return !live_layer;
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
  if (live(e->direct_dead_from, now)) return next_hop{dest, e->direct_address};
  if (!route_live(*e, now)) return std::nullopt;
  const route_entry* hop = live_direct(e->rvp, now);
  if (hop == nullptr) {
    // The RVP itself is no longer reachable; the chain is broken here.
    return std::nullopt;
  }
  return next_hop{e->rvp, hop->direct_address};
}

sim::sim_time routing_table::remaining_ttl(net::node_id dest,
                                           sim::sim_time now) const {
  return resolve(dest, now).ttl;
}

routing_table::route_status routing_table::resolve(net::node_id dest,
                                                   sim::sim_time now) const {
  const route_entry* e = table_.find(dest);
  if (e == nullptr) return {};
  if (live(e->direct_dead_from, now)) {
    return {true, expiry_of(e->direct_dead_from) - now};
  }
  if (!route_live(*e, now)) return {};
  const route_entry* hop = live_direct(e->rvp, now);
  if (hop == nullptr) return {};
  // Minimum along the chain as seen from here: the learnt expiry already
  // carries the upstream minimum; the local link to the RVP caps it.
  return {true,
          expiry_of(std::min(e->route_dead_from, hop->direct_dead_from)) - now};
}

std::size_t routing_table::direct_count(sim::sim_time now) const {
  std::size_t count = 0;
  table_.for_each([&](net::node_id, const route_entry& e) {
    if (live(e.direct_dead_from, now)) ++count;
  });
  return count;
}

std::size_t routing_table::route_count(sim::sim_time now) const {
  std::size_t count = 0;
  table_.for_each([&](net::node_id, const route_entry& e) {
    if (route_live(e, now)) ++count;
  });
  return count;
}

}  // namespace nylon::core
