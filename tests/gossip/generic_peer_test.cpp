#include "gossip/generic_peer.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gossip/bootstrap.h"
#include "net/latency.h"
#include "net/transport.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace nylon::gossip {
namespace {

/// Tiny hand-wired world of generic peers (no runtime::scenario, to test
/// the gossip layer in isolation).
class world {
 public:
  explicit world(protocol_config cfg = {})
      : rng_(1),
        transport_(sched_, rng_, net::paper_latency()),
        cfg_(cfg) {}

  generic_peer& add(nat::nat_type type) {
    auto p = std::make_unique<generic_peer>(transport_, rng_, cfg_);
    const net::node_id id = transport_.add_node(type, *p);
    p->attach(id);
    peers_.push_back(std::move(p));
    return *peers_.back();
  }

  void bootstrap_and_start() {
    std::vector<peer*> raw;
    for (const auto& p : peers_) raw.push_back(p.get());
    bootstrap_with_public_peers(raw, rng_);
    for (const auto& p : peers_) p->start(0);
  }

  void run_periods(int n) { sched_.run_for(n * cfg_.shuffle_period); }

  sim::scheduler sched_;
  util::rng rng_;
  net::transport transport_;
  protocol_config cfg_;
  std::vector<std::unique_ptr<generic_peer>> peers_;
};

protocol_config small_config() {
  protocol_config cfg;
  cfg.view_size = 4;
  return cfg;
}

TEST(generic_peer, attach_builds_self_descriptor) {
  world w(small_config());
  generic_peer& p = w.add(nat::nat_type::open);
  EXPECT_EQ(p.self().id, 0u);
  EXPECT_EQ(p.self().type, nat::nat_type::open);
  EXPECT_EQ(p.self().addr, w.transport_.advertised_endpoint(0));
}

TEST(generic_peer, empty_view_skips_shuffle) {
  world w(small_config());
  generic_peer& p = w.add(nat::nat_type::open);
  p.start(0);
  w.run_periods(3);
  EXPECT_EQ(p.stats().initiated, 0u);
  EXPECT_GE(p.stats().empty_view_skips, 3u);
}

TEST(generic_peer, two_public_peers_exchange_views) {
  world w(small_config());
  generic_peer& a = w.add(nat::nat_type::open);
  generic_peer& b = w.add(nat::nat_type::open);
  w.bootstrap_and_start();
  w.run_periods(2);
  EXPECT_GT(a.stats().initiated, 0u);
  EXPECT_GT(b.stats().requests_received, 0u);
  EXPECT_GT(a.stats().responses_received, 0u);
  // After one exchange each knows the other.
  EXPECT_TRUE(a.current_view().contains(b.id()));
  EXPECT_TRUE(b.current_view().contains(a.id()));
}

TEST(generic_peer, push_mode_sends_no_responses) {
  protocol_config cfg = small_config();
  cfg.propagation = propagation_policy::push;
  world w(cfg);
  generic_peer& a = w.add(nat::nat_type::open);
  generic_peer& b = w.add(nat::nat_type::open);
  w.bootstrap_and_start();
  w.run_periods(3);
  EXPECT_GT(b.stats().requests_received, 0u);
  EXPECT_EQ(a.stats().responses_received, 0u);
  EXPECT_EQ(b.stats().responses_received, 0u);
}

TEST(generic_peer, self_descriptor_spreads_through_gossip) {
  world w(small_config());
  for (int i = 0; i < 6; ++i) w.add(nat::nat_type::open);
  w.bootstrap_and_start();
  w.run_periods(10);
  // Every peer should appear in someone's view (self-injection works).
  for (const auto& target : w.peers_) {
    int appearances = 0;
    for (const auto& p : w.peers_) {
      if (p->id() != target->id() &&
          p->current_view().contains(target->id())) {
        ++appearances;
      }
    }
    EXPECT_GT(appearances, 0) << "peer " << target->id();
  }
}

TEST(generic_peer, natted_peer_can_gossip_out_but_not_be_reached) {
  world w(small_config());
  generic_peer& pub = w.add(nat::nat_type::open);
  generic_peer& natted = w.add(nat::nat_type::port_restricted_cone);
  w.bootstrap_and_start();
  w.run_periods(2);
  // The natted peer initiates towards the public one and gets responses.
  EXPECT_GT(natted.stats().initiated, 0u);
  EXPECT_GT(natted.stats().responses_received, 0u);
  EXPECT_GT(pub.stats().requests_received, 0u);
}

TEST(generic_peer, stale_references_emerge_behind_nats) {
  // One public hub and many PRC peers: the hub learns natted references
  // but its unsolicited REQUESTs towards them are filtered.
  world w(small_config());
  w.add(nat::nat_type::open);
  for (int i = 0; i < 5; ++i) w.add(nat::nat_type::port_restricted_cone);
  w.bootstrap_and_start();
  w.run_periods(30);
  EXPECT_GT(w.transport_.drops(net::drop_reason::nat_filtered), 0u);
}

TEST(generic_peer, view_never_contains_self_or_duplicates) {
  world w(small_config());
  for (int i = 0; i < 8; ++i) w.add(nat::nat_type::open);
  w.bootstrap_and_start();
  w.run_periods(20);
  for (const auto& p : w.peers_) {
    std::set<net::node_id> seen;
    for (const view_entry& e : p->current_view().entries()) {
      EXPECT_NE(e.peer.id, p->id());
      EXPECT_TRUE(seen.insert(e.peer.id).second);
    }
    EXPECT_LE(p->current_view().size(), w.cfg_.view_size);
  }
}

TEST(generic_peer, sample_returns_view_member) {
  world w(small_config());
  generic_peer& a = w.add(nat::nat_type::open);
  w.add(nat::nat_type::open);
  w.bootstrap_and_start();
  w.run_periods(2);
  const auto sampled = a.sample();
  ASSERT_TRUE(sampled.has_value());
  EXPECT_TRUE(a.current_view().contains(sampled->id));
}

TEST(generic_peer, known_peers_matches_view) {
  world w(small_config());
  generic_peer& a = w.add(nat::nat_type::open);
  w.add(nat::nat_type::open);
  w.bootstrap_and_start();
  w.run_periods(2);
  const auto known = a.known_peers();
  EXPECT_EQ(known.size(), a.current_view().size());
}

TEST(generic_peer, stop_halts_gossip) {
  world w(small_config());
  generic_peer& a = w.add(nat::nat_type::open);
  w.add(nat::nat_type::open);
  w.bootstrap_and_start();
  w.run_periods(2);
  const auto initiated = a.stats().initiated;
  a.stop();
  EXPECT_FALSE(a.running());
  w.run_periods(5);
  EXPECT_EQ(a.stats().initiated, initiated);
}

TEST(generic_peer, double_start_rejected) {
  world w(small_config());
  generic_peer& a = w.add(nat::nat_type::open);
  a.start(0);
  EXPECT_THROW(a.start(0), nylon::contract_error);
}

// Start is once-only: a restart would queue a second shuffle chain beside
// the stopped one whose last hop may still be pending.
TEST(generic_peer, start_after_stop_rejected) {
  world w(small_config());
  generic_peer& a = w.add(nat::nat_type::open);
  a.start(0);
  w.run_periods(2);
  a.stop();
  EXPECT_THROW(a.start(w.sched_.now()), nylon::contract_error);
  generic_peer& b = w.add(nat::nat_type::open);
  b.stop();  // departs before it ever started
  EXPECT_THROW(b.start(w.sched_.now()), nylon::contract_error);
}

// The property every digest rests on: stopping a peer leaves its one
// queued hop in place. That hop still pops and counts as one executed
// event, but it runs no shuffle and schedules no successor.
TEST(generic_peer, stopped_peer_pending_hop_runs_once_without_shuffling) {
  world w(small_config());
  generic_peer& a = w.add(nat::nat_type::open);  // alone: only its hops run
  a.start(0);
  const sim::sim_time period = w.cfg_.shuffle_period;
  w.sched_.run_until(2 * period + period / 2);  // hops at 0, P, 2P
  ASSERT_EQ(w.sched_.events_executed(), 3u);
  ASSERT_EQ(a.stats().empty_view_skips, 3u);  // one initiate_shuffle each
  a.stop();
  EXPECT_EQ(w.sched_.next_event_time(), 3 * period);  // the queued hop
  w.run_periods(10);
  EXPECT_EQ(w.sched_.events_executed(), 4u);  // it ran, as one event
  EXPECT_EQ(a.stats().empty_view_skips, 3u);  // without initiate_shuffle
  EXPECT_EQ(a.stats().initiated, 0u);
  EXPECT_EQ(w.sched_.next_event_time(), sim::time_never);  // no later hop
}

TEST(generic_peer, ages_increase_per_period) {
  world w(small_config());
  generic_peer& a = w.add(nat::nat_type::open);
  generic_peer& b = w.add(nat::nat_type::open);
  (void)b;
  w.bootstrap_and_start();
  const auto before = a.current_view().entries().front().age;
  w.run_periods(1);
  // a initiated one shuffle (age +1) and possibly received one request.
  EXPECT_GT(a.current_view().entries().front().age + 0u, before);
}

}  // namespace
}  // namespace nylon::gossip
