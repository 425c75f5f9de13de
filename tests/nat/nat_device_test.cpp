#include "nat/nat_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "util/contracts.h"
#include "util/rng.h"

namespace nylon::nat {
namespace {

using net::endpoint;
using net::ip_address;

constexpr ip_address nat_ip{0x0A000001};
constexpr endpoint priv{ip_address{0xAC100001}, 5000};
constexpr endpoint remote_a{ip_address{0x0A000002}, 4000};
constexpr endpoint remote_a2{ip_address{0x0A000002}, 4001};  // same IP
constexpr endpoint remote_b{ip_address{0x0A000003}, 4000};
constexpr sim::sim_time timeout = sim::seconds(90);

nat_device make(nat_type t) { return nat_device(t, nat_ip, timeout); }

TEST(nat_device, rejects_open_type) {
  EXPECT_THROW(nat_device(nat_type::open, nat_ip, timeout),
               nylon::contract_error);
}

TEST(nat_device, rejects_nonpositive_timeout) {
  EXPECT_THROW(nat_device(nat_type::full_cone, nat_ip, 0),
               nylon::contract_error);
}

// --- mapping behaviour -------------------------------------------------------

class cone_mapping_test : public ::testing::TestWithParam<nat_type> {};

TEST_P(cone_mapping_test, same_public_port_for_all_destinations) {
  nat_device dev = make(GetParam());
  const endpoint m1 = dev.translate_outbound(priv, remote_a, 0);
  const endpoint m2 = dev.translate_outbound(priv, remote_b, 0);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1.ip, nat_ip);
}

TEST_P(cone_mapping_test, advertised_endpoint_matches_mapping) {
  nat_device dev = make(GetParam());
  const endpoint advertised = dev.advertised_endpoint(priv);
  const endpoint mapped = dev.translate_outbound(priv, remote_a, 0);
  EXPECT_EQ(advertised, mapped);
}

INSTANTIATE_TEST_SUITE_P(cone_types, cone_mapping_test,
                         ::testing::Values(nat_type::full_cone,
                                           nat_type::restricted_cone,
                                           nat_type::port_restricted_cone));

// One peer sits behind each box, so a device serves exactly one private
// endpoint: the first one to use it binds it, and any other one after
// that is a caller bug.
class one_client_test : public ::testing::TestWithParam<nat_type> {};

TEST_P(one_client_test, second_private_endpoint_is_rejected) {
  const endpoint other_priv{ip_address{0xAC100002}, 5000};
  nat_device dev = make(GetParam());
  const endpoint pub = dev.translate_outbound(priv, remote_a, 0);
  EXPECT_THROW(dev.translate_outbound(other_priv, remote_a, 0),
               nylon::contract_error);
  EXPECT_THROW((void)dev.would_translate(other_priv, remote_a, 0),
               nylon::contract_error);
  // The rejected packet left the bound client's state alone.
  EXPECT_EQ(dev.translate_outbound(priv, remote_a, 1), pub);
  if (is_cone(GetParam())) {
    EXPECT_THROW(dev.advertised_endpoint(other_priv), nylon::contract_error);
    // For cone types, advertising binds the endpoint too.
    nat_device advertised = make(GetParam());
    advertised.advertised_endpoint(priv);
    EXPECT_THROW(advertised.translate_outbound(other_priv, remote_a, 0),
                 nylon::contract_error);
  }
}

INSTANTIATE_TEST_SUITE_P(all_types, one_client_test,
                         ::testing::Values(nat_type::full_cone,
                                           nat_type::restricted_cone,
                                           nat_type::port_restricted_cone,
                                           nat_type::symmetric));

TEST(nat_device, symmetric_fresh_port_per_destination) {
  nat_device dev = make(nat_type::symmetric);
  const endpoint m1 = dev.translate_outbound(priv, remote_a, 0);
  const endpoint m2 = dev.translate_outbound(priv, remote_b, 0);
  const endpoint m1_again = dev.translate_outbound(priv, remote_a, 0);
  EXPECT_NE(m1.port, m2.port);
  EXPECT_EQ(m1, m1_again);  // same session reuses its port
}

TEST(nat_device, symmetric_mapping_is_port_sensitive) {
  nat_device dev = make(nat_type::symmetric);
  const endpoint m1 = dev.translate_outbound(priv, remote_a, 0);
  const endpoint m2 = dev.translate_outbound(priv, remote_a2, 0);
  EXPECT_NE(m1.port, m2.port);  // different destination port = new session
}

TEST(nat_device, symmetric_advertises_port_zero) {
  nat_device dev = make(nat_type::symmetric);
  EXPECT_EQ(dev.advertised_endpoint(priv).port, 0u);
}

TEST(nat_device, symmetric_expired_session_gets_new_port) {
  nat_device dev = make(nat_type::symmetric);
  const endpoint m1 = dev.translate_outbound(priv, remote_a, 0);
  const endpoint m2 = dev.translate_outbound(priv, remote_a, timeout + 1);
  EXPECT_NE(m1.port, m2.port);
}

// --- filtering behaviour -----------------------------------------------------

TEST(nat_device, full_cone_forwards_from_anyone_while_bound) {
  nat_device dev = make(nat_type::full_cone);
  const endpoint pub = dev.translate_outbound(priv, remote_a, 0);
  EXPECT_EQ(dev.filter_inbound(pub, remote_b, 10), priv);
  EXPECT_EQ(dev.filter_inbound(pub, remote_a2, 10), priv);
}

TEST(nat_device, full_cone_drops_after_binding_expires) {
  nat_device dev = make(nat_type::full_cone);
  const endpoint pub = dev.translate_outbound(priv, remote_a, 0);
  EXPECT_EQ(dev.filter_inbound(pub, remote_b, timeout + 1), std::nullopt);
}

TEST(nat_device, restricted_cone_filters_by_ip_only) {
  nat_device dev = make(nat_type::restricted_cone);
  const endpoint pub = dev.translate_outbound(priv, remote_a, 0);
  // Same IP, different source port: allowed.
  EXPECT_EQ(dev.filter_inbound(pub, remote_a2, 10), priv);
  // Different IP: dropped.
  EXPECT_EQ(dev.filter_inbound(pub, remote_b, 10), std::nullopt);
}

TEST(nat_device, port_restricted_cone_filters_by_ip_and_port) {
  nat_device dev = make(nat_type::port_restricted_cone);
  const endpoint pub = dev.translate_outbound(priv, remote_a, 0);
  EXPECT_EQ(dev.filter_inbound(pub, remote_a, 10), priv);
  EXPECT_EQ(dev.filter_inbound(pub, remote_a2, 10), std::nullopt);
  EXPECT_EQ(dev.filter_inbound(pub, remote_b, 10), std::nullopt);
}

TEST(nat_device, symmetric_filters_by_exact_session) {
  nat_device dev = make(nat_type::symmetric);
  const endpoint pub_a = dev.translate_outbound(priv, remote_a, 0);
  const endpoint pub_b = dev.translate_outbound(priv, remote_b, 0);
  EXPECT_EQ(dev.filter_inbound(pub_a, remote_a, 10), priv);
  EXPECT_EQ(dev.filter_inbound(pub_b, remote_b, 10), priv);
  // Cross-session: the right peer on the wrong session port is dropped.
  EXPECT_EQ(dev.filter_inbound(pub_a, remote_b, 10), std::nullopt);
  EXPECT_EQ(dev.filter_inbound(pub_b, remote_a, 10), std::nullopt);
  // Same IP, different port than the session target: dropped.
  EXPECT_EQ(dev.filter_inbound(pub_a, remote_a2, 10), std::nullopt);
}

class filtering_expiry_test : public ::testing::TestWithParam<nat_type> {};

TEST_P(filtering_expiry_test, rule_expires_after_timeout) {
  nat_device dev = make(GetParam());
  const endpoint pub = dev.translate_outbound(priv, remote_a, 0);
  EXPECT_EQ(dev.filter_inbound(pub, remote_a, timeout), priv);
  nat_device dev2 = make(GetParam());
  const endpoint pub2 = dev2.translate_outbound(priv, remote_a, 0);
  EXPECT_EQ(dev2.filter_inbound(pub2, remote_a, timeout + 1), std::nullopt);
}

TEST_P(filtering_expiry_test, outbound_refreshes_rule) {
  nat_device dev = make(GetParam());
  endpoint pub = dev.translate_outbound(priv, remote_a, 0);
  pub = dev.translate_outbound(priv, remote_a, timeout - 1);  // refresh
  EXPECT_EQ(dev.filter_inbound(pub, remote_a, 2 * timeout - 2), priv);
}

TEST_P(filtering_expiry_test, accepted_inbound_refreshes_rule) {
  nat_device dev = make(GetParam());
  const endpoint pub = dev.translate_outbound(priv, remote_a, 0);
  // A message received at t refreshes the rule to t + timeout (§2.1:
  // "after the last message was sent (or received)").
  EXPECT_EQ(dev.filter_inbound(pub, remote_a, timeout - 1), priv);
  EXPECT_EQ(dev.filter_inbound(pub, remote_a, 2 * timeout - 2), priv);
}

INSTANTIATE_TEST_SUITE_P(all_types, filtering_expiry_test,
                         ::testing::Values(nat_type::full_cone,
                                           nat_type::restricted_cone,
                                           nat_type::port_restricted_cone,
                                           nat_type::symmetric));

TEST(nat_device, unknown_port_dropped) {
  nat_device dev = make(nat_type::full_cone);
  EXPECT_EQ(dev.filter_inbound(endpoint{nat_ip, 9999}, remote_a, 0),
            std::nullopt);
}

TEST(nat_device, unsolicited_inbound_dropped) {
  nat_device dev = make(nat_type::restricted_cone);
  const endpoint advertised = dev.advertised_endpoint(priv);
  // Port reserved but no session has ever been opened.
  EXPECT_EQ(dev.filter_inbound(advertised, remote_a, 0), std::nullopt);
}

// --- dry-run parity ----------------------------------------------------------

class dry_run_test : public ::testing::TestWithParam<nat_type> {};

TEST_P(dry_run_test, would_translate_matches_actual_mapping) {
  nat_device dev = make(GetParam());
  const endpoint actual = dev.translate_outbound(priv, remote_a, 0);
  const predicted_source predicted = dev.would_translate(priv, remote_a, 1);
  EXPECT_EQ(predicted.ip, actual.ip);
  ASSERT_TRUE(predicted.port.has_value());
  EXPECT_EQ(*predicted.port, actual.port);
}

TEST_P(dry_run_test, would_accept_matches_filter_without_mutating) {
  nat_device dev = make(GetParam());
  const endpoint pub = dev.translate_outbound(priv, remote_a, 0);
  const std::size_t rules_before = dev.active_rule_count(1);
  const auto verdict_allowed =
      dev.would_accept(pub, remote_a.ip, remote_a.port, 1);
  const auto verdict_stranger =
      dev.would_accept(pub, ip_address{0x0A0000FF}, 1234, 1);
  EXPECT_TRUE(verdict_allowed.has_value());
  // Full cone forwards from anyone while bound; every other type must
  // reject a stranger.
  EXPECT_EQ(verdict_stranger.has_value(),
            GetParam() == nat_type::full_cone);
  EXPECT_EQ(dev.active_rule_count(1), rules_before);
}

INSTANTIATE_TEST_SUITE_P(all_types, dry_run_test,
                         ::testing::Values(nat_type::full_cone,
                                           nat_type::restricted_cone,
                                           nat_type::port_restricted_cone,
                                           nat_type::symmetric));

TEST(nat_device, symmetric_would_translate_unknown_for_fresh_session) {
  nat_device dev = make(nat_type::symmetric);
  const predicted_source predicted = dev.would_translate(priv, remote_a, 0);
  EXPECT_FALSE(predicted.port.has_value());
}

TEST(nat_device, unknown_source_port_only_passes_ip_level_filters) {
  // A fresh symmetric source has an unpredictable port: FC accepts, RC
  // accepts on IP match, PRC and SYM must reject.
  for (const nat_type type :
       {nat_type::full_cone, nat_type::restricted_cone,
        nat_type::port_restricted_cone, nat_type::symmetric}) {
    nat_device dev = make(type);
    const endpoint pub = dev.translate_outbound(priv, remote_a, 0);
    const auto verdict =
        dev.would_accept(pub, remote_a.ip, std::nullopt, 1);
    const bool should_accept = type == nat_type::full_cone ||
                               type == nat_type::restricted_cone;
    EXPECT_EQ(verdict.has_value(), should_accept)
        << "type=" << to_string(type);
  }
}

// --- maintenance -------------------------------------------------------------

TEST(nat_device, purge_drops_expired_state) {
  nat_device dev = make(nat_type::port_restricted_cone);
  dev.translate_outbound(priv, remote_a, 0);
  dev.translate_outbound(priv, remote_b, 0);
  EXPECT_EQ(dev.active_rule_count(1), 2u);
  dev.purge_expired(timeout + 1);
  EXPECT_EQ(dev.active_rule_count(timeout + 1), 0u);
}

TEST(nat_device, purge_keeps_cone_port_reservation) {
  nat_device dev = make(nat_type::restricted_cone);
  const endpoint before = dev.translate_outbound(priv, remote_a, 0);
  dev.purge_expired(timeout * 2);
  const endpoint after = dev.translate_outbound(priv, remote_a, timeout * 2);
  // Real cone NATs tend to reuse the binding; we guarantee it so that
  // advertised endpoints stay valid (DESIGN.md).
  EXPECT_EQ(before, after);
}

TEST(nat_device, symmetric_purge_releases_session_ports) {
  nat_device dev = make(nat_type::symmetric);
  const endpoint pub = dev.translate_outbound(priv, remote_a, 0);
  dev.purge_expired(timeout + 1);
  EXPECT_EQ(dev.filter_inbound(pub, remote_a, timeout + 1), std::nullopt);
}

TEST(nat_device, binding_lapse_clears_rules) {
  nat_device dev = make(nat_type::restricted_cone);
  dev.translate_outbound(priv, remote_a, 0);
  // Much later, a new session opens; the old IP rule must be gone.
  const endpoint pub = dev.translate_outbound(priv, remote_b, 3 * timeout);
  EXPECT_EQ(dev.filter_inbound(pub, remote_a, 3 * timeout + 1), std::nullopt);
  EXPECT_EQ(dev.filter_inbound(pub, remote_b, 3 * timeout + 1), priv);
}

// --- capacity independence ---------------------------------------------------

/// bytes() counts what the flat tables hold allocated: nothing before the
/// first packet, more as a symmetric NAT mints a session per remote.
TEST(nat_device, bytes_follow_the_flat_tables) {
  nat_device dev = make(nat_type::symmetric);
  EXPECT_EQ(dev.bytes(), 0u);
  dev.translate_outbound(priv, remote_a, 0);
  const std::size_t first = dev.bytes();
  EXPECT_GT(first, 0u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    dev.translate_outbound(priv, endpoint{ip_address{0x0B000000u + i}, 4000},
                           0);
  }
  EXPECT_GT(dev.bytes(), first);
}

/// Capacity is not state: a device whose tables are pre-sized by the
/// constructor hint and one whose tables grow on demand through several
/// doublings translate, admit and count identically under the same
/// packet sequence.
class capacity_hint_test : public ::testing::TestWithParam<nat_type> {};

TEST_P(capacity_hint_test, hint_never_changes_answers) {
  nat_device hinted(GetParam(), nat_ip, timeout, 192);
  nat_device grown(GetParam(), nat_ip, timeout);
  ASSERT_EQ(hinted.advertised_endpoint(priv), grown.advertised_endpoint(priv));
  util::rng r(14);
  const auto random_remote = [&] {
    return endpoint{ip_address{0x0B000000u + static_cast<std::uint32_t>(
                                                 r.uniform(0, 399))},
                    static_cast<std::uint32_t>(4000 + r.uniform(0, 1))};
  };
  // Last public source each remote saw, so inbound packets can target
  // live symmetric sessions as well as stale and made-up ports.
  std::map<endpoint, endpoint> mapped;
  std::size_t peak_rules = 0;
  sim::sim_time now = 0;
  for (int op = 1; op <= 20'000; ++op) {
    now += static_cast<sim::sim_time>(r.uniform(0, 60));
    const endpoint remote = random_remote();
    const std::uint64_t kind = r.uniform(0, 7);
    if (kind < 4) {
      const endpoint pub = hinted.translate_outbound(priv, remote, now);
      ASSERT_EQ(pub, grown.translate_outbound(priv, remote, now)) << op;
      mapped[remote] = pub;
    } else if (kind < 7) {
      endpoint dst{nat_ip, static_cast<std::uint32_t>(r.uniform(1024, 1100))};
      const auto known = mapped.find(random_remote());
      if (known != mapped.end() && r.bernoulli(0.8)) dst = known->second;
      EXPECT_EQ(hinted.filter_inbound(dst, remote, now),
                grown.filter_inbound(dst, remote, now))
          << op;
    } else {
      hinted.purge_expired(now);
      grown.purge_expired(now);
    }
    peak_rules = std::max(peak_rules, grown.active_rule_count(now));
    if (op % 2'000 != 0) continue;
    for (const sim::sim_time at : {now, now + sim::seconds(30)}) {
      ASSERT_EQ(hinted.active_rule_count(at), grown.active_rule_count(at))
          << op;
    }
  }
  // The unhinted tables must have grown past the hint; a sequence that
  // stayed small would prove nothing.
  EXPECT_GT(peak_rules, 192u);
}

INSTANTIATE_TEST_SUITE_P(filtering_types, capacity_hint_test,
                         ::testing::Values(nat_type::restricted_cone,
                                           nat_type::port_restricted_cone,
                                           nat_type::symmetric));

}  // namespace
}  // namespace nylon::nat
