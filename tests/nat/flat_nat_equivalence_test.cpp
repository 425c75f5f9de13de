// Differential test pinning the flat-table nat_device to the semantics of
// the original map-and-linear-scan implementation. The reference model
// below is a direct transcription of that code (unordered_map bindings,
// vector<filter_rule> scans, vector<sym_session> scans, port_owner map);
// both implementations are driven with identical operation streams —
// heavy on expiry boundaries (now == expires), session re-creation after
// expiry (port reuse), lapsed-binding rule clearing, and purges at
// arbitrary times — and must agree on every observable. The stream also
// checks the device against itself: the dry run (`would_accept`) must
// predict every inbound verdict, and a port `would_translate` knows must
// be the one the next outbound packet carries.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "nat/nat_device.h"
#include "util/rng.h"

namespace nylon::nat {
namespace {

/// The pre-optimization nat_device, kept verbatim (modulo naming) as the
/// semantic oracle.
class reference_device {
 public:
  reference_device(nat_type type, net::ip_address public_ip,
                   sim::sim_time hole_timeout)
      : type_(type), public_ip_(public_ip), hole_timeout_(hole_timeout) {}

  net::endpoint translate_outbound(const net::endpoint& private_src,
                                   const net::endpoint& remote,
                                   sim::sim_time now) {
    if (type_ == nat_type::symmetric) {
      auto& sessions = sym_[private_src];
      for (sym_session& s : sessions) {
        if (s.remote == remote && s.expires >= now) {
          s.expires = now + hole_timeout_;
          return {public_ip_, s.public_port};
        }
      }
      const std::uint32_t port = next_port_++;
      sessions.push_back(sym_session{remote, port, now + hole_timeout_});
      port_owner_.emplace(port, private_src);
      return {public_ip_, port};
    }
    cone_binding& binding = cone_bind(private_src, now);
    binding.expires = now + hole_timeout_;
    if (type_ != nat_type::full_cone) {
      const std::uint32_t rule_port =
          type_ == nat_type::port_restricted_cone ? remote.port : 0;
      auto rule = std::find_if(binding.rules.begin(), binding.rules.end(),
                               [&](const filter_rule& r) {
                                 return r.remote_ip == remote.ip &&
                                        r.remote_port == rule_port;
                               });
      if (rule == binding.rules.end()) {
        binding.rules.push_back(
            filter_rule{remote.ip, rule_port, now + hole_timeout_});
      } else {
        rule->expires = now + hole_timeout_;
      }
    }
    return {public_ip_, binding.public_port};
  }

  std::optional<net::endpoint> filter_inbound(const net::endpoint& public_dst,
                                              const net::endpoint& remote_src,
                                              sim::sim_time now) {
    const auto owner = port_owner_.find(public_dst.port);
    if (owner == port_owner_.end()) return std::nullopt;
    const net::endpoint private_dst = owner->second;
    if (type_ == nat_type::symmetric) {
      const auto sessions = sym_.find(private_dst);
      if (sessions == sym_.end()) return std::nullopt;
      for (sym_session& s : sessions->second) {
        if (s.public_port == public_dst.port && s.expires >= now &&
            s.remote == remote_src) {
          s.expires = now + hole_timeout_;
          return private_dst;
        }
      }
      return std::nullopt;
    }
    const auto binding_it = cone_.find(private_dst);
    if (binding_it == cone_.end()) return std::nullopt;
    cone_binding& binding = binding_it->second;
    if (binding.expires < now) return std::nullopt;
    if (type_ == nat_type::full_cone) {
      binding.expires = now + hole_timeout_;
      return private_dst;
    }
    for (filter_rule& rule : binding.rules) {
      if (rule.expires >= now &&
          rule_matches(remote_src.ip, remote_src.port, rule)) {
        rule.expires = now + hole_timeout_;
        binding.expires = now + hole_timeout_;
        return private_dst;
      }
    }
    return std::nullopt;
  }

  predicted_source would_translate(const net::endpoint& private_src,
                                   const net::endpoint& remote,
                                   sim::sim_time now) const {
    if (type_ == nat_type::symmetric) {
      const auto sessions = sym_.find(private_src);
      if (sessions != sym_.end()) {
        for (const sym_session& s : sessions->second) {
          if (s.remote == remote && s.expires >= now) {
            return {public_ip_, s.public_port};
          }
        }
      }
      return {public_ip_, std::nullopt};
    }
    const auto reserved = cone_port_.find(private_src);
    if (reserved != cone_port_.end()) return {public_ip_, reserved->second};
    return {public_ip_, std::nullopt};
  }

  std::optional<net::endpoint> would_accept(
      const net::endpoint& public_dst, net::ip_address src_ip,
      std::optional<std::uint32_t> src_port, sim::sim_time now) const {
    const auto owner = port_owner_.find(public_dst.port);
    if (owner == port_owner_.end()) return std::nullopt;
    const net::endpoint private_dst = owner->second;
    if (type_ == nat_type::symmetric) {
      const auto sessions = sym_.find(private_dst);
      if (sessions == sym_.end()) return std::nullopt;
      for (const sym_session& s : sessions->second) {
        if (s.public_port == public_dst.port && s.expires >= now &&
            s.remote.ip == src_ip && src_port.has_value() &&
            s.remote.port == *src_port) {
          return private_dst;
        }
      }
      return std::nullopt;
    }
    const auto binding_it = cone_.find(private_dst);
    if (binding_it == cone_.end()) return std::nullopt;
    const cone_binding& binding = binding_it->second;
    if (binding.expires < now) return std::nullopt;
    if (type_ == nat_type::full_cone) return private_dst;
    for (const filter_rule& rule : binding.rules) {
      if (rule.expires >= now &&
          (src_port.has_value()
               ? rule_matches(src_ip, *src_port, rule)
               : (type_ != nat_type::port_restricted_cone &&
                  src_ip == rule.remote_ip))) {
        return private_dst;
      }
    }
    return std::nullopt;
  }

  net::endpoint advertised_endpoint(const net::endpoint& private_src) {
    if (type_ == nat_type::symmetric) return {public_ip_, 0};
    return {public_ip_, reserve_cone_port(private_src)};
  }

  void purge_expired(sim::sim_time now) {
    for (auto& [ep, binding] : cone_) {
      std::erase_if(binding.rules,
                    [now](const filter_rule& r) { return r.expires < now; });
    }
    for (auto& [ep, sessions] : sym_) {
      std::erase_if(sessions, [&](const sym_session& s) {
        if (s.expires >= now) return false;
        port_owner_.erase(s.public_port);
        return true;
      });
    }
  }

  std::size_t active_rule_count(sim::sim_time now) const {
    std::size_t count = 0;
    for (const auto& [ep, binding] : cone_) {
      for (const filter_rule& rule : binding.rules) {
        if (rule.expires >= now) ++count;
      }
    }
    for (const auto& [ep, sessions] : sym_) {
      for (const sym_session& s : sessions) {
        if (s.expires >= now) ++count;
      }
    }
    return count;
  }

 private:
  struct filter_rule {
    net::ip_address remote_ip;
    std::uint32_t remote_port;
    sim::sim_time expires;
  };
  struct cone_binding {
    std::uint32_t public_port = 0;
    sim::sim_time expires = 0;
    std::vector<filter_rule> rules;
  };
  struct sym_session {
    net::endpoint remote;
    std::uint32_t public_port = 0;
    sim::sim_time expires = 0;
  };

  bool rule_matches(net::ip_address src_ip, std::uint32_t src_port,
                    const filter_rule& rule) const {
    if (src_ip != rule.remote_ip) return false;
    if (type_ == nat_type::port_restricted_cone) {
      return src_port == rule.remote_port;
    }
    return true;
  }

  std::uint32_t reserve_cone_port(const net::endpoint& private_src) {
    const auto it = cone_port_.find(private_src);
    if (it != cone_port_.end()) return it->second;
    const std::uint32_t port = next_port_++;
    cone_port_.emplace(private_src, port);
    port_owner_.emplace(port, private_src);
    return port;
  }

  cone_binding& cone_bind(const net::endpoint& private_src,
                          sim::sim_time now) {
    cone_binding& binding = cone_[private_src];
    if (binding.public_port == 0) {
      binding.public_port = reserve_cone_port(private_src);
    }
    if (binding.expires < now) binding.rules.clear();
    return binding;
  }

  nat_type type_;
  net::ip_address public_ip_;
  sim::sim_time hole_timeout_;
  std::uint32_t next_port_ = 1024;
  std::unordered_map<net::endpoint, std::uint32_t> cone_port_;
  std::unordered_map<net::endpoint, cone_binding> cone_;
  std::unordered_map<net::endpoint, std::vector<sym_session>> sym_;
  std::unordered_map<std::uint32_t, net::endpoint> port_owner_;
};

constexpr sim::sim_time timeout = sim::seconds(90);
const net::ip_address nat_ip{0x0A000001};
const net::endpoint priv{net::ip_address{0xAC100001}, 5000};

/// Drives both devices through an identical random operation stream and
/// checks every observable at every step. The time step distribution
/// lands exactly on expiry boundaries often (multiples of the timeout).
void run_equivalence(nat_type type, std::uint64_t seed) {
  util::rng r(seed);
  nat_device dut(type, nat_ip, timeout);
  reference_device ref(type, nat_ip, timeout);

  // A small remote universe so sessions and rules get reused and expire.
  const auto remote = [&](std::uint64_t i) {
    return net::endpoint{net::ip_address{0x0B000000 + std::uint32_t(i % 7)},
                         2000 + std::uint32_t(i % 5)};
  };

  // Known live public ports observed from translations; inbound probes
  // draw from these plus a few bogus ports.
  std::vector<std::uint32_t> seen_ports{0, 1023, 1024, 9999};

  sim::sim_time now = 0;
  for (int step = 0; step < 4000; ++step) {
    // Advance time; half the steps land exactly on an expiry boundary
    // (+timeout) or just around it, the nasty cases.
    switch (r.uniform(0, 4)) {
      case 0: now += timeout; break;
      case 1: now += timeout - 1; break;
      case 2: now += 1; break;
      default: now += static_cast<sim::sim_time>(r.uniform(0, 5000)); break;
    }

    switch (r.uniform(0, 4)) {
      case 0: {  // outbound packet
        const net::endpoint rem = remote(r.uniform(0, 34));
        const predicted_source predicted = dut.would_translate(priv, rem, now);
        const net::endpoint got = dut.translate_outbound(priv, rem, now);
        const net::endpoint want = ref.translate_outbound(priv, rem, now);
        ASSERT_EQ(got, want) << "step " << step;
        // A port the dry run knows is the port the packet then carries.
        if (predicted.port.has_value()) {
          ASSERT_EQ(*predicted.port, got.port) << "step " << step;
        }
        seen_ports.push_back(got.port);
        break;
      }
      case 1: {  // inbound packet
        const std::uint32_t port =
            seen_ports[r.index(seen_ports.size())];
        const net::endpoint rem = remote(r.uniform(0, 34));
        const net::endpoint pub{nat_ip, port};
        // The oracle's dry run predicts the packet path's verdict.
        const bool predicted =
            dut.would_accept(pub, rem.ip, rem.port, now).has_value();
        const auto got = dut.filter_inbound(pub, rem, now);
        ASSERT_EQ(predicted, got.has_value())
            << "dry run disagrees with the packet path at step " << step;
        ASSERT_EQ(got, ref.filter_inbound(pub, rem, now)) << "step " << step;
        break;
      }
      case 2: {  // dry-run oracle queries
        const net::endpoint rem = remote(r.uniform(0, 34));
        const predicted_source a = dut.would_translate(priv, rem, now);
        const predicted_source b = ref.would_translate(priv, rem, now);
        ASSERT_EQ(a.ip, b.ip);
        ASSERT_EQ(a.port, b.port);
        const std::uint32_t port = seen_ports[r.index(seen_ports.size())];
        std::optional<std::uint32_t> src_port;
        if (r.bernoulli(0.8)) src_port = rem.port;
        ASSERT_EQ(dut.would_accept({nat_ip, port}, rem.ip, src_port, now),
                  ref.would_accept({nat_ip, port}, rem.ip, src_port, now))
            << "step " << step;
        break;
      }
      case 3: {  // STUN
        ASSERT_EQ(dut.advertised_endpoint(priv),
                  ref.advertised_endpoint(priv));
        break;
      }
      case 4: {  // maintenance at an arbitrary time
        dut.purge_expired(now);
        ref.purge_expired(now);
        break;
      }
    }
    ASSERT_EQ(dut.active_rule_count(now), ref.active_rule_count(now))
        << "step " << step;
  }
}

TEST(flat_nat_equivalence, full_cone) {
  run_equivalence(nat_type::full_cone, 11);
}
TEST(flat_nat_equivalence, restricted_cone) {
  run_equivalence(nat_type::restricted_cone, 22);
}
TEST(flat_nat_equivalence, port_restricted_cone) {
  run_equivalence(nat_type::port_restricted_cone, 33);
}
TEST(flat_nat_equivalence, symmetric) {
  run_equivalence(nat_type::symmetric, 44);
}

/// Port reuse: a symmetric session that expires and is re-created to the
/// same remote mints a fresh port, and the stale port stops routing.
TEST(flat_nat_equivalence, symmetric_port_reuse_after_expiry) {
  nat_device dev(nat_type::symmetric, nat_ip, timeout);
  const net::endpoint rem{net::ip_address{0x0B000001}, 2000};
  const net::endpoint first = dev.translate_outbound(priv, rem, 0);
  // Exactly at the boundary the session is still alive and refreshed.
  EXPECT_EQ(dev.translate_outbound(priv, rem, timeout).port, first.port);
  // One past the (refreshed) expiry: new session, new port.
  const net::endpoint second =
      dev.translate_outbound(priv, rem, 2 * timeout + 1);
  EXPECT_NE(second.port, first.port);
  // The stale port no longer routes; the fresh one does.
  EXPECT_FALSE(
      dev.filter_inbound({nat_ip, first.port}, rem, 2 * timeout + 1));
  EXPECT_TRUE(
      dev.filter_inbound({nat_ip, second.port}, rem, 2 * timeout + 1));
}

/// A lapsed cone binding clears its filter rules on the next outbound:
/// the old remote must re-earn its rule.
TEST(flat_nat_equivalence, lapsed_binding_drops_rules) {
  nat_device dev(nat_type::restricted_cone, nat_ip, timeout);
  const net::endpoint a{net::ip_address{0x0B000001}, 2000};
  const net::endpoint b{net::ip_address{0x0B000002}, 2000};
  const net::endpoint pub = dev.translate_outbound(priv, a, 0);
  EXPECT_TRUE(dev.filter_inbound(pub, a, timeout));  // boundary: alive
  // Binding lapses; a new outbound to b re-creates it without a's rule.
  const sim::sim_time later = 3 * timeout;
  EXPECT_EQ(dev.translate_outbound(priv, b, later), pub);  // stable port
  EXPECT_FALSE(dev.filter_inbound(pub, a, later));
  EXPECT_TRUE(dev.filter_inbound(pub, b, later));
}

}  // namespace
}  // namespace nylon::nat
