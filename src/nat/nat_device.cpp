#include "nat/nat_device.h"

#include <algorithm>

#include "obs/counters.h"
#include "util/contracts.h"

namespace nylon::nat {

nat_device::nat_device(nat_type type, net::ip_address public_ip,
                       sim::sim_time hole_timeout, std::size_t expected_rules)
    : type_(type),
      public_ip_(public_ip),
      hole_timeout_(hole_timeout),
      expected_rules_(expected_rules) {
  NYLON_EXPECTS(is_natted(type));
  NYLON_EXPECTS(hole_timeout > 0);
  // Cone devices own one public port; symmetric ones mint a port per
  // session, so the reverse index tracks the session table's size.
  if (type == nat_type::symmetric) port_owner_.reserve(expected_rules);
}

std::uint32_t nat_device::client_for(const net::endpoint& private_src) {
  for (std::uint32_t i = 0; i < clients_.size(); ++i) {
    if (clients_[i].private_ep == private_src) return i;
  }
  client c;
  c.private_ep = private_src;
  if (type_ == nat_type::symmetric) {
    c.sym.reserve(expected_rules_);
  } else if (type_ != nat_type::full_cone) {
    c.rules.reserve(expected_rules_);
  }
  clients_.push_back(std::move(c));
  return static_cast<std::uint32_t>(clients_.size() - 1);
}

const nat_device::client* nat_device::find_client(
    const net::endpoint& private_src) const {
  for (const client& c : clients_) {
    if (c.private_ep == private_src) return &c;
  }
  return nullptr;
}

std::uint32_t nat_device::reserve_cone_port(client& c) {
  if (c.cone_port == 0) {
    c.cone_port = next_port_++;
    port_owner_.insert_or_get(c.cone_port) =
        static_cast<std::uint32_t>(&c - clients_.data());
  }
  return c.cone_port;
}

net::endpoint nat_device::translate_outbound(const net::endpoint& private_src,
                                             const net::endpoint& remote,
                                             sim::sim_time now) {
  const std::uint32_t index = client_for(private_src);
  client& c = clients_[index];

  if (type_ == nat_type::symmetric) {
    const std::uint64_t key = key_of(remote.ip, remote.port);
    sym_entry* session = c.sym.find(key);
    if (session != nullptr && session->expires >= now) {
      session->expires = now + hole_timeout_;
      note_expiry(session->expires);
      return {public_ip_, session->public_port};
    }
    const std::uint32_t port = next_port_++;
    if (session != nullptr) {
      // Expired session to the same remote: the old public port dies with
      // it (the original implementation kept it until the next purge;
      // packets addressed there were rejected either way).
      port_owner_.erase(session->public_port);
      session->public_port = port;
      session->expires = now + hole_timeout_;
    } else {
      c.sym.insert_or_get(key) = sym_entry{port, now + hole_timeout_};
      obs::count_peak(obs::counter::nat_table_peak, c.sym.size());
    }
    port_owner_.insert_or_get(port) = index;
    note_expiry(now + hole_timeout_);
    return {public_ip_, port};
  }

  reserve_cone_port(c);
  if (c.cone_expires < now) c.rules.clear();  // binding had lapsed
  c.cone_expires = now + hole_timeout_;
  if (type_ != nat_type::full_cone) {
    // RC keys rules by remote IP; PRC by remote IP:port.
    const std::uint32_t rule_port =
        type_ == nat_type::port_restricted_cone ? remote.port : 0;
    c.rules.insert_or_get(key_of(remote.ip, rule_port)) = now + hole_timeout_;
    obs::count_peak(obs::counter::nat_table_peak, c.rules.size());
    note_expiry(now + hole_timeout_);
  }
  return {public_ip_, c.cone_port};
}

std::optional<net::endpoint> nat_device::filter_inbound(
    const net::endpoint& public_dst, const net::endpoint& remote_src,
    sim::sim_time now) {
  NYLON_EXPECTS(public_dst.ip == public_ip_);
  client* target = nullptr;
  if (clients_.size() == 1) {
    // Fast path for the common deployment (one peer behind each box):
    // the destination port identifies the lone client directly. For cone
    // types a mismatched port cannot be ours (the device owns exactly
    // one public port); for symmetric the session lookup below already
    // validates the port, exactly as the reverse index would have.
    client& only = clients_.front();
    if (type_ != nat_type::symmetric && public_dst.port != only.cone_port) {
      return std::nullopt;
    }
    target = &only;
  } else {
    const std::uint32_t* owner = port_owner_.find(public_dst.port);
    if (owner == nullptr) return std::nullopt;
    target = &clients_[*owner];
  }
  client& c = *target;
  const net::endpoint private_dst = c.private_ep;

  if (type_ == nat_type::symmetric) {
    sym_entry* session = c.sym.find(key_of(remote_src.ip, remote_src.port));
    if (session != nullptr && session->public_port == public_dst.port &&
        session->expires >= now) {
      session->expires = now + hole_timeout_;  // inbound traffic refreshes
      note_expiry(session->expires);
      return private_dst;
    }
    return std::nullopt;
  }

  if (c.cone_expires < now) return std::nullopt;  // lapsed or never bound
  if (type_ == nat_type::full_cone) {
    c.cone_expires = now + hole_timeout_;
    return private_dst;
  }
  const std::uint32_t rule_port =
      type_ == nat_type::port_restricted_cone ? remote_src.port : 0;
  sim::sim_time* expires = c.rules.find(key_of(remote_src.ip, rule_port));
  if (expires != nullptr && *expires >= now) {
    *expires = now + hole_timeout_;
    c.cone_expires = now + hole_timeout_;
    note_expiry(*expires);
    return private_dst;
  }
  return std::nullopt;
}

predicted_source nat_device::would_translate(const net::endpoint& private_src,
                                             const net::endpoint& remote,
                                             sim::sim_time now) const {
  const client* c = find_client(private_src);
  if (type_ == nat_type::symmetric) {
    if (c != nullptr) {
      const sym_entry* session = c->sym.find(key_of(remote.ip, remote.port));
      if (session != nullptr && session->expires >= now) {
        return {public_ip_, session->public_port};
      }
    }
    return {public_ip_, std::nullopt};  // fresh unpredictable port
  }
  if (c != nullptr && c->cone_port != 0) return {public_ip_, c->cone_port};
  return {public_ip_, std::nullopt};
}

std::optional<net::endpoint> nat_device::would_accept(
    const net::endpoint& public_dst, net::ip_address src_ip,
    std::optional<std::uint32_t> src_port, sim::sim_time now) const {
  NYLON_EXPECTS(public_dst.ip == public_ip_);
  const std::uint32_t* owner = port_owner_.find(public_dst.port);
  if (owner == nullptr) return std::nullopt;
  const client& c = clients_[*owner];
  const net::endpoint private_dst = c.private_ep;

  if (type_ == nat_type::symmetric) {
    if (!src_port.has_value()) return std::nullopt;
    const sym_entry* session = c.sym.find(key_of(src_ip, *src_port));
    if (session != nullptr && session->public_port == public_dst.port &&
        session->expires >= now) {
      return private_dst;
    }
    return std::nullopt;
  }

  if (c.cone_expires < now) return std::nullopt;
  if (type_ == nat_type::full_cone) return private_dst;
  if (type_ == nat_type::port_restricted_cone && !src_port.has_value()) {
    return std::nullopt;  // PRC needs an exact port match
  }
  const std::uint32_t rule_port =
      type_ == nat_type::port_restricted_cone ? *src_port : 0;
  const sim::sim_time* expires = c.rules.find(key_of(src_ip, rule_port));
  if (expires != nullptr && *expires >= now) return private_dst;
  return std::nullopt;
}

net::endpoint nat_device::advertised_endpoint(
    const net::endpoint& private_src) {
  if (type_ == nat_type::symmetric) return {public_ip_, 0};
  return {public_ip_, reserve_cone_port(clients_[client_for(private_src)])};
}

void nat_device::purge_expired(sim::sim_time now) {
  if (now <= next_expiry_) return;  // nothing can have expired yet
  // Expiry is enforced on every lookup, so the sweep is pure garbage
  // collection; run it at most once per hole timeout. Lingering expired
  // entries are invisible to the packet path and bounded by one
  // timeout's worth of traffic.
  if (now < last_sweep_ + hole_timeout_) return;
  last_sweep_ = now;
  sim::sim_time next = sim::time_never;
  for (client& c : clients_) {
    c.rules.erase_if([&](std::uint64_t, sim::sim_time expires) {
      if (expires >= now) {
        next = std::min(next, expires);
        return false;
      }
      return true;
    });
    c.sym.erase_if([&](std::uint64_t, sym_entry& session) {
      if (session.expires >= now) {
        next = std::min(next, session.expires);
        return false;
      }
      port_owner_.erase(session.public_port);
      return true;
    });
  }
  next_expiry_ = next;
}

std::size_t nat_device::active_rule_count(sim::sim_time now) const {
  std::size_t count = 0;
  for (const client& c : clients_) {
    c.rules.for_each([&](std::uint64_t, sim::sim_time expires) {
      if (expires >= now) ++count;
    });
    c.sym.for_each([&](std::uint64_t, const sym_entry& session) {
      if (session.expires >= now) ++count;
    });
  }
  return count;
}

}  // namespace nylon::nat
