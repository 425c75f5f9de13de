#include "core/routing_table.h"

#include <gtest/gtest.h>

#include "util/contracts.h"
#include "util/rng.h"

namespace nylon::core {
namespace {

constexpr sim::sim_time timeout = sim::seconds(90);
const net::endpoint ep1{net::ip_address{1}, 1000};
const net::endpoint ep2{net::ip_address{2}, 2000};

TEST(routing_table, empty_has_no_routes) {
  routing_table rt(timeout);
  EXPECT_FALSE(rt.next_rvp(1, 0).has_value());
  EXPECT_EQ(rt.remaining_ttl(1, 0), 0);
  EXPECT_FALSE(rt.is_direct(1, 0));
}

TEST(routing_table, rejects_nonpositive_timeout) {
  EXPECT_THROW(routing_table(0), nylon::contract_error);
}

TEST(routing_table, direct_contact_resolves_to_itself) {
  routing_table rt(timeout);
  rt.touch_direct(7, ep1, 0);
  const auto hop = rt.next_rvp(7, 10);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->rvp, 7u);
  EXPECT_EQ(hop->address, ep1);
  EXPECT_TRUE(rt.is_direct(7, 10));
}

TEST(routing_table, direct_contact_expires) {
  routing_table rt(timeout);
  rt.touch_direct(7, ep1, 0);
  EXPECT_TRUE(rt.next_rvp(7, timeout).has_value());
  EXPECT_FALSE(rt.next_rvp(7, timeout + 1).has_value());
}

TEST(routing_table, touch_refreshes_and_updates_address) {
  routing_table rt(timeout);
  rt.touch_direct(7, ep1, 0);
  rt.touch_direct(7, ep2, 50);
  const auto hop = rt.next_rvp(7, timeout + 40);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->address, ep2);
}

TEST(routing_table, chained_route_resolves_through_direct_rvp) {
  routing_table rt(timeout);
  rt.touch_direct(3, ep1, 0);
  rt.learn_route(9, 3, 60'000, 0);
  const auto hop = rt.next_rvp(9, 10);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(hop->rvp, 3u);
  EXPECT_EQ(hop->address, ep1);
}

TEST(routing_table, chained_route_unusable_without_direct_rvp) {
  routing_table rt(timeout);
  rt.learn_route(9, 3, 60'000, 0);
  EXPECT_FALSE(rt.next_rvp(9, 10).has_value());
}

TEST(routing_table, chained_route_expires_at_learnt_ttl) {
  routing_table rt(timeout);
  rt.touch_direct(3, ep1, 0);
  rt.learn_route(9, 3, 40'000, 0);
  rt.touch_direct(3, ep1, 40'000);  // keep the RVP alive
  EXPECT_TRUE(rt.next_rvp(9, 40'000).has_value());
  EXPECT_FALSE(rt.next_rvp(9, 40'001).has_value());
}

TEST(routing_table, first_giver_wins_while_valid) {
  routing_table rt(timeout);
  rt.touch_direct(3, ep1, 0);
  rt.touch_direct(4, ep2, 0);
  rt.learn_route(9, 3, 50'000, 0);
  // A second, even longer-lived offer must NOT replace the live route
  // (acyclic-chain discipline; see routing_table.h).
  rt.learn_route(9, 4, 80'000, 10);
  EXPECT_EQ(rt.next_rvp(9, 10)->rvp, 3u);
}

TEST(routing_table, expired_route_is_replaced) {
  routing_table rt(timeout);
  rt.touch_direct(3, ep1, 0);
  rt.touch_direct(4, ep2, 51'000);
  rt.learn_route(9, 3, 50'000, 0);
  rt.learn_route(9, 4, 95'000, 51'000);  // old one lapsed at 50s
  EXPECT_EQ(rt.next_rvp(9, 52'000)->rvp, 4u);
}

TEST(routing_table, learn_route_rejects_self_pointing) {
  routing_table rt(timeout);
  EXPECT_THROW(rt.learn_route(5, 5, 1'000, 0), nylon::contract_error);
}

TEST(routing_table, direct_preferred_over_chain) {
  routing_table rt(timeout);
  rt.touch_direct(3, ep1, 0);
  rt.learn_route(9, 3, 80'000, 0);
  rt.touch_direct(9, ep2, 10);
  EXPECT_EQ(rt.next_rvp(9, 20)->rvp, 9u);
  // When the direct hole lapses, the chain takes over again.
  EXPECT_EQ(rt.next_rvp(9, 10 + timeout + 1), std::nullopt);  // rvp 3 also gone
}

TEST(routing_table, remaining_ttl_direct) {
  routing_table rt(timeout);
  rt.touch_direct(7, ep1, 1'000);
  EXPECT_EQ(rt.remaining_ttl(7, 31'000), timeout - 30'000);
}

TEST(routing_table, remaining_ttl_chain_is_min_of_links) {
  routing_table rt(timeout);
  rt.touch_direct(3, ep1, 0);       // direct link expires at 90s
  rt.learn_route(9, 3, 40'000, 0);  // chain expires at 40s
  EXPECT_EQ(rt.remaining_ttl(9, 10'000), 30'000);
  // Fig. 5 sanity: the advertised TTL is the chain minimum, so a fresher
  // local link must not inflate it.
  rt.touch_direct(3, ep1, 10'000);
  EXPECT_EQ(rt.remaining_ttl(9, 10'000), 30'000);
}

TEST(routing_table, purge_drops_expired_entries) {
  routing_table rt(timeout);
  rt.touch_direct(3, ep1, 0);
  rt.learn_route(9, 3, 10'000, 0);
  rt.learn_route(8, 3, 200'000, 0);
  rt.purge_expired(100'000);
  EXPECT_EQ(rt.direct_count(100'000), 0u);
  EXPECT_EQ(rt.route_count(100'000), 1u);
}

TEST(routing_table, forget_removes_both_layers) {
  routing_table rt(timeout);
  rt.touch_direct(3, ep1, 0);
  rt.touch_direct(9, ep2, 0);
  rt.learn_route(9, 3, 50'000, 0);
  rt.forget(9);
  EXPECT_FALSE(rt.next_rvp(9, 0).has_value());
  EXPECT_TRUE(rt.next_rvp(3, 0).has_value());
}

TEST(routing_table, counts_only_live_entries) {
  routing_table rt(timeout);
  rt.touch_direct(1, ep1, 0);
  rt.touch_direct(2, ep2, 50'000);
  rt.learn_route(9, 1, 30'000, 0);
  EXPECT_EQ(rt.direct_count(100'000), 1u);
  EXPECT_EQ(rt.route_count(100'000), 0u);
}

/// A layer expiring at t is live at t and dead at t + 1, both at small
/// times and at the last expiry the 32-bit stamps hold (2^32 - 2 ms).
TEST(routing_table, expiry_is_inclusive_from_zero_to_the_stamp_horizon) {
  const sim::sim_time last = routing_table::stamp_horizon - 1;
  for (const sim::sim_time base : {sim::sim_time{0}, last - timeout}) {
    routing_table rt(timeout);
    rt.touch_direct(1, ep1, base);
    const sim::sim_time t = base + timeout;
    EXPECT_TRUE(rt.is_direct(1, t)) << base;
    EXPECT_FALSE(rt.is_direct(1, t + 1)) << base;
    EXPECT_EQ(rt.remaining_ttl(1, t), 0) << base;
    EXPECT_TRUE(rt.resolve(1, t).reachable) << base;
    rt.learn_route(2, 1, t - 5, base);
    EXPECT_EQ(rt.next_rvp(2, t - 5)->rvp, 1u) << base;
    EXPECT_FALSE(rt.next_rvp(2, t - 4).has_value()) << base;
    EXPECT_EQ(rt.route_count(t - 5), 1u) << base;
    EXPECT_EQ(rt.route_count(t - 4), 0u) << base;
  }
}

/// The vacant stamp (0) is dead at every sim time, including 0, while a
/// layer that expires at 0 is live at 0.
TEST(routing_table, vacant_layers_are_dead_at_time_zero) {
  routing_table rt(timeout);
  rt.learn_route(5, 1, 0, 0);  // route layer only
  EXPECT_FALSE(rt.is_direct(5, 0));
  EXPECT_EQ(rt.direct_count(0), 0u);
  EXPECT_EQ(rt.route_count(0), 1u);
  EXPECT_EQ(rt.route_count(1), 0u);
  rt.touch_direct(1, ep1, 0);  // direct layer only
  EXPECT_EQ(rt.direct_count(0), 1u);
  EXPECT_EQ(rt.route_count(0), 1u);
  const auto status = rt.resolve(5, 0);
  EXPECT_TRUE(status.reachable);
  EXPECT_EQ(status.ttl, 0);
  EXPECT_EQ(rt.next_rvp(5, 0)->rvp, 1u);
}

/// Expiries at or past 2^32 - 1 ms do not fit a stamp: the write is a
/// contract violation and stores nothing. The last expiry that fits is
/// accepted, in a 24-byte slot.
TEST(routing_table, expiry_past_the_stamp_horizon_is_a_contract_error) {
  const sim::sim_time horizon = routing_table::stamp_horizon;
  EXPECT_EQ(horizon, (sim::sim_time{1} << 32) - 1);
  routing_table rt(timeout);
  EXPECT_THROW(rt.touch_direct(1, ep1, horizon - timeout),
               nylon::contract_error);
  EXPECT_THROW(rt.learn_route(2, 1, horizon, 0), nylon::contract_error);
  EXPECT_THROW(rt.learn_route(2, 1, sim::time_never, 0),
               nylon::contract_error);
  EXPECT_THROW(rt.learn_route(2, 1, -1, 0), nylon::contract_error);
  EXPECT_EQ(rt.bytes(), 0u);
  rt.touch_direct(1, ep1, horizon - 1 - timeout);
  rt.learn_route(2, 1, horizon - 1, 0);
  EXPECT_TRUE(rt.is_direct(1, horizon - 1));
  EXPECT_EQ(rt.route_count(horizon - 1), 1u);
  // Eight 24-byte slots, their control bytes and one word of copies.
  EXPECT_EQ(rt.bytes(), 8u * (24u + 1u) + 8u);
}

/// Capacity is not state: a table pre-sized by the constructor hint and
/// one that grows on demand through several doublings answer every query
/// identically under the same operation sequence. So does a third table
/// that runs the same sequence shifted to just below the 2^32 ms stamp
/// horizon: its answers, read at the shifted times, are the same.
TEST(routing_table, capacity_hint_never_changes_answers) {
  constexpr net::node_id keys = 1'000;
  constexpr int ops = 24'000;
  constexpr sim::sim_time max_step = 40;
  // The latest write expires at most one timeout after the last op.
  const sim::sim_time late_base =
      routing_table::stamp_horizon - 1 - ops * max_step - timeout;
  routing_table hinted(timeout, 1024);
  routing_table grown(timeout);
  routing_table late(timeout);
  util::rng r(14);
  sim::sim_time now = 0;
  for (int op = 1; op <= ops; ++op) {
    now += static_cast<sim::sim_time>(r.uniform(0, max_step));
    const auto a = static_cast<net::node_id>(r.uniform(0, keys - 1));
    const auto b = static_cast<net::node_id>(r.uniform(0, keys - 1));
    switch (r.uniform(0, 7)) {
      case 0:
      case 1:
      case 2: {
        const net::endpoint addr{net::ip_address{a + 1},
                                 static_cast<std::uint32_t>(1000 + op % 8)};
        hinted.touch_direct(a, addr, now);
        grown.touch_direct(a, addr, now);
        late.touch_direct(a, addr, late_base + now);
        break;
      }
      case 3:
      case 4:
      case 5: {
        if (a == b) break;
        const sim::sim_time expires =
            now + static_cast<sim::sim_time>(r.uniform(0, timeout));
        const bool authoritative = r.bernoulli(0.2);
        hinted.learn_route(a, b, expires, now, authoritative);
        grown.learn_route(a, b, expires, now, authoritative);
        late.learn_route(a, b, late_base + expires, late_base + now,
                         authoritative);
        break;
      }
      case 6:
        hinted.forget(a);
        grown.forget(a);
        late.forget(a);
        break;
      case 7:
        hinted.purge_expired(now);
        grown.purge_expired(now);
        late.purge_expired(late_base + now);
        break;
    }
    if (op % 3'000 != 0) continue;
    for (const sim::sim_time at : {now, now + sim::seconds(30)}) {
      for (const auto& [other, shift] :
           {std::pair<const routing_table*, sim::sim_time>{&hinted, 0},
            {&late, late_base}}) {
        const sim::sim_time other_at = at + shift;
        ASSERT_EQ(other->direct_count(other_at), grown.direct_count(at))
            << op;
        ASSERT_EQ(other->route_count(other_at), grown.route_count(at)) << op;
        for (net::node_id d = 0; d < keys; ++d) {
          const auto h = other->next_rvp(d, other_at);
          const auto g = grown.next_rvp(d, at);
          ASSERT_EQ(h.has_value(), g.has_value()) << op << " dest " << d;
          if (h.has_value()) {
            EXPECT_EQ(h->rvp, g->rvp);
            EXPECT_EQ(h->address, g->address);
          }
          const auto hs = other->resolve(d, other_at);
          const auto gs = grown.resolve(d, at);
          EXPECT_EQ(hs.reachable, gs.reachable);
          EXPECT_EQ(hs.ttl, gs.ttl);
          EXPECT_EQ(other->remaining_ttl(d, other_at),
                    grown.remaining_ttl(d, at));
        }
      }
    }
  }
  // The unhinted table must have grown through several doublings; a
  // sequence that stayed small would prove nothing.
  EXPECT_GT(grown.direct_count(now) + grown.route_count(now), 300u);
}

}  // namespace
}  // namespace nylon::core
