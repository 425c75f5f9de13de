#include "net/transport.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "util/rng.h"

namespace nylon::net {
namespace {

class test_payload final : public payload {
 public:
  explicit test_payload(std::size_t size = 100) : size_(size) {}
  [[nodiscard]] std::size_t wire_size() const noexcept override {
    return size_;
  }
  [[nodiscard]] std::string_view type_name() const noexcept override {
    return "TEST";
  }

 private:
  std::size_t size_;
};

class recorder final : public endpoint_handler {
 public:
  void on_datagram(const datagram& dgram) override {
    received.push_back(dgram);
  }
  std::vector<datagram> received;
};

class transport_test : public ::testing::Test {
 protected:
  transport_test()
      : rng_(1),
        transport_(sched_, rng_,
                   std::make_unique<fixed_latency>(sim::millis(50))) {}

  payload_ptr body(std::size_t size = 100) {
    return make_payload<test_payload>(size);
  }

  sim::scheduler sched_;
  util::rng rng_;
  transport transport_;
};

TEST_F(transport_test, public_to_public_delivery) {
  recorder a;
  recorder b;
  const node_id ida = transport_.add_node(nat::nat_type::open, a);
  const node_id idb = transport_.add_node(nat::nat_type::open, b);
  transport_.send(ida, transport_.advertised_endpoint(idb), body());
  EXPECT_TRUE(b.received.empty());  // not before the latency elapses
  sched_.run_for(sim::millis(49));
  EXPECT_TRUE(b.received.empty());
  sched_.run_for(sim::millis(1));
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].source, transport_.advertised_endpoint(ida));
}

TEST_F(transport_test, unsolicited_to_natted_is_filtered) {
  recorder pub;
  recorder natted;
  const node_id id_pub = transport_.add_node(nat::nat_type::open, pub);
  const node_id id_nat =
      transport_.add_node(nat::nat_type::port_restricted_cone, natted);
  transport_.send(id_pub, transport_.advertised_endpoint(id_nat), body());
  sched_.run_for(sim::millis(100));
  EXPECT_TRUE(natted.received.empty());
  EXPECT_EQ(transport_.drops(drop_reason::nat_filtered), 1u);
}

TEST_F(transport_test, outbound_opens_hole_for_reply) {
  recorder pub;
  recorder natted;
  const node_id id_pub = transport_.add_node(nat::nat_type::open, pub);
  const node_id id_nat =
      transport_.add_node(nat::nat_type::port_restricted_cone, natted);
  // Natted peer contacts the public peer first...
  transport_.send(id_nat, transport_.advertised_endpoint(id_pub), body());
  sched_.run_for(sim::millis(100));
  ASSERT_EQ(pub.received.size(), 1u);
  // ...then the reply to the observed source endpoint passes the NAT.
  transport_.send(id_pub, pub.received[0].source, body());
  sched_.run_for(sim::millis(100));
  ASSERT_EQ(natted.received.size(), 1u);
  EXPECT_EQ(transport_.drops(drop_reason::nat_filtered), 0u);
}

TEST_F(transport_test, reply_after_hole_timeout_is_dropped) {
  recorder pub;
  recorder natted;
  const node_id id_pub = transport_.add_node(nat::nat_type::open, pub);
  const node_id id_nat =
      transport_.add_node(nat::nat_type::restricted_cone, natted);
  transport_.send(id_nat, transport_.advertised_endpoint(id_pub), body());
  sched_.run_for(sim::millis(100));
  ASSERT_EQ(pub.received.size(), 1u);
  sched_.run_for(transport_.config().hole_timeout);
  transport_.send(id_pub, pub.received[0].source, body());
  sched_.run_for(sim::millis(100));
  EXPECT_TRUE(natted.received.empty());
  EXPECT_EQ(transport_.drops(drop_reason::nat_filtered), 1u);
}

TEST_F(transport_test, messages_to_dead_nodes_dropped) {
  recorder a;
  recorder b;
  const node_id ida = transport_.add_node(nat::nat_type::open, a);
  const node_id idb = transport_.add_node(nat::nat_type::open, b);
  transport_.remove_node(idb);
  EXPECT_FALSE(transport_.alive(idb));
  transport_.send(ida, transport_.advertised_endpoint(idb), body());
  sched_.run_for(sim::millis(100));
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(transport_.drops(drop_reason::dead_node), 1u);
}

TEST_F(transport_test, dead_sender_cannot_send) {
  recorder a;
  recorder b;
  const node_id ida = transport_.add_node(nat::nat_type::open, a);
  const node_id idb = transport_.add_node(nat::nat_type::open, b);
  transport_.remove_node(ida);
  transport_.send(ida, transport_.advertised_endpoint(idb), body());
  sched_.run_for(sim::millis(100));
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(transport_.drops(drop_reason::sender_dead), 1u);
}

TEST_F(transport_test, unknown_destination_dropped) {
  recorder a;
  const node_id ida = transport_.add_node(nat::nat_type::open, a);
  transport_.send(ida, endpoint{ip_address{0xDEADBEEF}, 1}, body());
  sched_.run_for(sim::millis(100));
  EXPECT_EQ(transport_.drops(drop_reason::unknown_destination), 1u);
}

TEST_F(transport_test, wrong_port_on_public_host_dropped) {
  recorder a;
  recorder b;
  const node_id ida = transport_.add_node(nat::nat_type::open, a);
  const node_id idb = transport_.add_node(nat::nat_type::open, b);
  endpoint wrong = transport_.advertised_endpoint(idb);
  wrong.port += 1;
  transport_.send(ida, wrong, body());
  sched_.run_for(sim::millis(100));
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(transport_.drops(drop_reason::unknown_destination), 1u);
}

TEST_F(transport_test, byte_accounting_includes_headers) {
  recorder a;
  recorder b;
  const node_id ida = transport_.add_node(nat::nat_type::open, a);
  const node_id idb = transport_.add_node(nat::nat_type::open, b);
  transport_.send(ida, transport_.advertised_endpoint(idb), body(72));
  sched_.run_for(sim::millis(100));
  EXPECT_EQ(transport_.traffic(ida).bytes_sent, 72 + udp_header_bytes);
  EXPECT_EQ(transport_.traffic(idb).bytes_received, 72 + udp_header_bytes);
  EXPECT_EQ(transport_.traffic(ida).msgs_sent, 1u);
  EXPECT_EQ(transport_.traffic(idb).msgs_received, 1u);
}

TEST_F(transport_test, dropped_messages_count_as_sent_not_received) {
  recorder a;
  recorder natted;
  const node_id ida = transport_.add_node(nat::nat_type::open, a);
  const node_id id_nat =
      transport_.add_node(nat::nat_type::symmetric, natted);
  transport_.send(ida, transport_.advertised_endpoint(id_nat), body());
  sched_.run_for(sim::millis(100));
  EXPECT_GT(transport_.traffic(ida).bytes_sent, 0u);
  EXPECT_EQ(transport_.traffic(id_nat).bytes_received, 0u);
}

TEST_F(transport_test, reset_traffic_zeroes_counters) {
  recorder a;
  recorder b;
  const node_id ida = transport_.add_node(nat::nat_type::open, a);
  const node_id idb = transport_.add_node(nat::nat_type::open, b);
  transport_.send(ida, transport_.advertised_endpoint(idb), body());
  sched_.run_for(sim::millis(100));
  EXPECT_GT(transport_.bytes_by_kind(message_kind::other), 0u);
  transport_.reset_traffic();
  EXPECT_EQ(transport_.traffic(ida).bytes_sent, 0u);
  EXPECT_EQ(transport_.traffic(idb).bytes_received, 0u);
  EXPECT_EQ(transport_.bytes_by_kind(message_kind::other), 0u);
}

TEST_F(transport_test, bytes_by_type_accumulates) {
  recorder a;
  recorder b;
  const node_id ida = transport_.add_node(nat::nat_type::open, a);
  const node_id idb = transport_.add_node(nat::nat_type::open, b);
  transport_.send(ida, transport_.advertised_endpoint(idb), body(10));
  transport_.send(ida, transport_.advertised_endpoint(idb), body(20));
  sched_.run_for(sim::millis(100));
  // Payloads outside the protocol enum share the `other` counter.
  EXPECT_EQ(transport_.bytes_by_kind(message_kind::other),
            10 + 20 + 2 * udp_header_bytes);
  EXPECT_EQ(transport_.bytes_by_kind(message_kind::request), 0u);
}

TEST_F(transport_test, would_deliver_matches_reality_public) {
  recorder a;
  recorder b;
  const node_id ida = transport_.add_node(nat::nat_type::open, a);
  const node_id idb = transport_.add_node(nat::nat_type::open, b);
  EXPECT_EQ(transport_.would_deliver(ida, transport_.advertised_endpoint(idb)),
            idb);
}

TEST_F(transport_test, would_deliver_respects_nat_state) {
  recorder pub;
  recorder natted;
  const node_id id_pub = transport_.add_node(nat::nat_type::open, pub);
  const node_id id_nat =
      transport_.add_node(nat::nat_type::restricted_cone, natted);
  const endpoint nat_ep = transport_.advertised_endpoint(id_nat);
  EXPECT_EQ(transport_.would_deliver(id_pub, nat_ep), std::nullopt);
  // After the natted peer opens a hole, the oracle flips to deliverable.
  transport_.send(id_nat, transport_.advertised_endpoint(id_pub), body());
  sched_.run_for(sim::millis(100));
  EXPECT_EQ(transport_.would_deliver(id_pub, nat_ep), id_nat);
}

TEST_F(transport_test, would_deliver_never_mutates) {
  recorder pub;
  recorder natted;
  const node_id id_pub = transport_.add_node(nat::nat_type::open, pub);
  const node_id id_nat =
      transport_.add_node(nat::nat_type::restricted_cone, natted);
  const endpoint nat_ep = transport_.advertised_endpoint(id_nat);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(transport_.would_deliver(id_pub, nat_ep), std::nullopt);
  }
  // Dry-runs must not have created any NAT state admitting the packet.
  transport_.send(id_pub, nat_ep, body());
  sched_.run_for(sim::millis(100));
  EXPECT_TRUE(natted.received.empty());
}

TEST_F(transport_test, loss_rate_drops_messages) {
  sim::scheduler sched;
  util::rng rng(3);
  transport_config cfg;
  cfg.loss_rate = 1.0;
  transport lossy(sched, rng, std::make_unique<fixed_latency>(1), cfg);
  recorder a;
  recorder b;
  const node_id ida = lossy.add_node(nat::nat_type::open, a);
  const node_id idb = lossy.add_node(nat::nat_type::open, b);
  lossy.send(ida, lossy.advertised_endpoint(idb),
             make_payload<test_payload>());
  sched.run_for(sim::millis(10));
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(lossy.drops(drop_reason::random_loss), 1u);
}

/// Loss and latency draws come from the rng a node was added with; the
/// two-argument add_node keeps the transport's shared stream.
TEST_F(transport_test, sends_draw_from_the_rng_given_at_add_node) {
  // Two streams are in the same state iff they yield the same next value
  // (compared on copies, so the check draws nothing itself).
  const auto same_state = [](util::rng a, util::rng b) { return a() == b(); };
  sim::scheduler sched;
  util::rng shared(3);
  util::rng own(4);
  transport_config cfg;
  cfg.loss_rate = 0.5;
  transport net(sched, shared,
                std::make_unique<uniform_latency>(sim::millis(10),
                                                  sim::millis(90)),
                cfg);
  recorder a;
  recorder b;
  const node_id ida = net.add_node(nat::nat_type::open, a, own);
  const node_id idb = net.add_node(nat::nat_type::open, b);

  util::rng shared_mark = shared;
  util::rng own_mark = own;
  for (int i = 0; i < 20; ++i) {
    net.send(ida, net.advertised_endpoint(idb), make_payload<test_payload>());
  }
  sched.run_for(sim::millis(100));
  EXPECT_GT(b.received.size(), 0u);
  EXPECT_GT(net.drops(drop_reason::random_loss), 0u);
  EXPECT_TRUE(same_state(shared, shared_mark));
  EXPECT_FALSE(same_state(own, own_mark));

  shared_mark = shared;
  own_mark = own;
  net.send(idb, net.advertised_endpoint(ida), make_payload<test_payload>());
  EXPECT_FALSE(same_state(shared, shared_mark));
  EXPECT_TRUE(same_state(own, own_mark));
}

TEST_F(transport_test, node_metadata_accessors) {
  recorder a;
  recorder b;
  const node_id ida = transport_.add_node(nat::nat_type::open, a);
  const node_id idb = transport_.add_node(nat::nat_type::symmetric, b);
  EXPECT_EQ(transport_.node_count(), 2u);
  EXPECT_EQ(transport_.type_of(ida), nat::nat_type::open);
  EXPECT_EQ(transport_.type_of(idb), nat::nat_type::symmetric);
  EXPECT_EQ(transport_.device_of(ida), nullptr);
  EXPECT_NE(transport_.device_of(idb), nullptr);
  EXPECT_EQ(transport_.advertised_endpoint(idb).port, 0u);
}

TEST_F(transport_test, total_drops_sums_reasons) {
  recorder a;
  const node_id ida = transport_.add_node(nat::nat_type::open, a);
  transport_.send(ida, endpoint{ip_address{0xDEADBEEF}, 1}, body());
  sched_.run_for(sim::millis(100));
  EXPECT_EQ(transport_.total_drops(), 1u);
}

}  // namespace
}  // namespace nylon::net
