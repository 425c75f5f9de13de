#include "nat/nat_device.h"

#include <algorithm>

#include "obs/counters.h"
#include "util/contracts.h"

namespace nylon::nat {

nat_device::nat_device(nat_type type, net::ip_address public_ip,
                       sim::sim_time hole_timeout, std::size_t expected_rules)
    : type_(type), public_ip_(public_ip), hole_timeout_(hole_timeout) {
  NYLON_EXPECTS(is_natted(type));
  NYLON_EXPECTS(hole_timeout > 0);
  if (type == nat_type::symmetric) {
    sym_.reserve(expected_rules);
  } else if (type != nat_type::full_cone) {
    rules_.reserve(expected_rules);
  }
}

void nat_device::bind(const net::endpoint& private_src) {
  NYLON_EXPECTS(serves(private_src));  // one private endpoint per box
  private_ep_ = private_src;
  bound_ = true;
  if (type_ != nat_type::symmetric && cone_port_ == 0) {
    cone_port_ = next_port_++;
  }
}

net::endpoint nat_device::translate_outbound(const net::endpoint& private_src,
                                             const net::endpoint& remote,
                                             sim::sim_time now) {
  bind(private_src);

  if (type_ == nat_type::symmetric) {
    const std::uint64_t key = key_of(remote.ip, remote.port);
    sym_entry* session = sym_.find(key);
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
      session->public_port = port;
      session->expires = now + hole_timeout_;
    } else {
      sym_.insert_or_get(key) = sym_entry{port, now + hole_timeout_};
      obs::count_peak(obs::counter::nat_table_peak, sym_.size());
    }
    note_expiry(now + hole_timeout_);
    return {public_ip_, port};
  }

  if (cone_expires_ < now) rules_.clear();  // binding had lapsed
  cone_expires_ = now + hole_timeout_;
  if (type_ != nat_type::full_cone) {
    // RC keys rules by remote IP; PRC by remote IP:port.
    const std::uint32_t rule_port =
        type_ == nat_type::port_restricted_cone ? remote.port : 0;
    rules_.insert_or_get(key_of(remote.ip, rule_port)) = now + hole_timeout_;
    obs::count_peak(obs::counter::nat_table_peak, rules_.size());
    note_expiry(now + hole_timeout_);
  }
  return {public_ip_, cone_port_};
}

const sim::sim_time* nat_device::admitting_expiry(
    std::uint32_t public_port, net::ip_address src_ip,
    std::optional<std::uint32_t> src_port, sim::sim_time now) const {
  if (type_ == nat_type::symmetric) {
    if (!src_port.has_value()) return nullptr;
    const sym_entry* session = sym_.find(key_of(src_ip, *src_port));
    if (session != nullptr && session->public_port == public_port &&
        session->expires >= now) {
      return &session->expires;
    }
    return nullptr;
  }

  // A cone device owns exactly one public port.
  if (public_port != cone_port_ || cone_expires_ < now) return nullptr;
  if (type_ == nat_type::full_cone) return &cone_expires_;
  if (type_ == nat_type::port_restricted_cone && !src_port.has_value()) {
    return nullptr;  // PRC needs an exact port match
  }
  const std::uint32_t rule_port =
      type_ == nat_type::port_restricted_cone ? *src_port : 0;
  const sim::sim_time* expires = rules_.find(key_of(src_ip, rule_port));
  return expires != nullptr && *expires >= now ? expires : nullptr;
}

std::optional<net::endpoint> nat_device::filter_inbound(
    const net::endpoint& public_dst, const net::endpoint& remote_src,
    sim::sim_time now) {
  NYLON_EXPECTS(public_dst.ip == public_ip_);
  // This device is not const here, so writing through the entry the
  // shared const lookup matched is sound.
  auto* expires = const_cast<sim::sim_time*>(
      admitting_expiry(public_dst.port, remote_src.ip, remote_src.port, now));
  if (expires == nullptr) return std::nullopt;
  // Inbound traffic refreshes the admitting entry and a cone's binding.
  *expires = now + hole_timeout_;
  if (type_ != nat_type::symmetric) cone_expires_ = *expires;
  if (type_ != nat_type::full_cone) note_expiry(*expires);
  return private_ep_;
}

predicted_source nat_device::would_translate(const net::endpoint& private_src,
                                             const net::endpoint& remote,
                                             sim::sim_time now) const {
  NYLON_EXPECTS(serves(private_src));
  if (type_ == nat_type::symmetric) {
    const sym_entry* session = sym_.find(key_of(remote.ip, remote.port));
    if (session != nullptr && session->expires >= now) {
      return {public_ip_, session->public_port};
    }
    return {public_ip_, std::nullopt};  // fresh unpredictable port
  }
  if (cone_port_ != 0) return {public_ip_, cone_port_};
  return {public_ip_, std::nullopt};
}

std::optional<net::endpoint> nat_device::would_accept(
    const net::endpoint& public_dst, net::ip_address src_ip,
    std::optional<std::uint32_t> src_port, sim::sim_time now) const {
  NYLON_EXPECTS(public_dst.ip == public_ip_);
  if (admitting_expiry(public_dst.port, src_ip, src_port, now) == nullptr) {
    return std::nullopt;
  }
  return private_ep_;
}

net::endpoint nat_device::advertised_endpoint(
    const net::endpoint& private_src) {
  if (type_ == nat_type::symmetric) return {public_ip_, 0};
  bind(private_src);
  return {public_ip_, cone_port_};
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
  rules_.erase_if([&](std::uint64_t, sim::sim_time expires) {
    if (expires >= now) {
      next = std::min(next, expires);
      return false;
    }
    return true;
  });
  sym_.erase_if([&](std::uint64_t, sym_entry& session) {
    if (session.expires >= now) {
      next = std::min(next, session.expires);
      return false;
    }
    return true;
  });
  next_expiry_ = next;
}

std::size_t nat_device::active_rule_count(sim::sim_time now) const {
  std::size_t count = 0;
  rules_.for_each([&](std::uint64_t, sim::sim_time expires) {
    if (expires >= now) ++count;
  });
  sym_.for_each([&](std::uint64_t, const sym_entry& session) {
    if (session.expires >= now) ++count;
  });
  return count;
}

std::size_t nat_device::bytes() const noexcept {
  return rules_.bytes() + sym_.bytes();
}

}  // namespace nylon::nat
