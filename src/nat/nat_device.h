// Simulation model of a NAT box, faithful to §2.1 of the paper:
//
//  * Full Cone (FC): one public port per private endpoint; forwards every
//    incoming packet while the binding is alive.
//  * Restricted Cone (RC): same mapping; forwards only from remote IPs the
//    private endpoint has previously sent to.
//  * Port Restricted Cone (PRC): forwards only from remote IP:port pairs
//    previously sent to.
//  * Symmetric (SYM): a fresh public port per (private endpoint, remote
//    endpoint) session; forwards only from that exact remote endpoint.
//
// Both the address/port mapping and the filtering rules expire a fixed
// `hole_timeout` after the last packet sent *or* received on the session
// (the paper's 90 s "typical vendor value").
//
// Two parallel APIs:
//  * the mutating path (`translate_outbound` / `filter_inbound`) used by
//    the transport for real packets, and
//  * a const dry-run path (`would_translate` / `would_accept`) used by the
//    metrics oracle, so staleness is measured against the exact same
//    semantics the packets experience, without perturbing NAT state.
//
// One box per peer: as in the paper's model, every natted peer sits
// behind its own NAT, so a device serves exactly one private endpoint.
// It binds that endpoint on first use (`advertised_endpoint` for cone
// types, `translate_outbound` for every type) and rejects any other
// private endpoint with a contract_error.
//
// Storage: the client's cone port, binding expiry, filtering rules and
// symmetric sessions live inline in the device. Rules and sessions are
// open-addressed flat tables keyed by packed remote endpoints, and
// `purge_expired` is guarded by a device-wide next-expiry watermark so
// quiet devices cost one compare per maintenance tick instead of a full
// sweep. Both admission paths run one const lookup, so the oracle
// cannot drift from the packet path. The semantics are bit-identical to
// the original map/scan implementation — see the equivalence tests in
// tests/nat/ and DESIGN.md's determinism contract.
#pragma once

#include <cstdint>
#include <optional>

#include "nat/nat_type.h"
#include "net/address.h"
#include "sim/time.h"
#include "util/flat_hash.h"

namespace nylon::nat {

/// What the source endpoint of a packet would look like after translation.
/// `port` is empty when the NAT would mint a fresh, unpredictable port
/// (symmetric NAT, new session) — such a source can only match IP-based
/// (RC) or allow-all (FC) filters at the destination.
struct predicted_source {
  net::ip_address ip;
  std::optional<std::uint32_t> port;
};

/// One simulated NAT box serving one private endpoint.
class nat_device {
 public:
  /// `type` must be a natted type; `hole_timeout` > 0. The rule/session
  /// table grows on demand; `expected_rules` is an optional capacity hint
  /// for it and never changes what the device translates or admits.
  nat_device(nat_type type, net::ip_address public_ip,
             sim::sim_time hole_timeout, std::size_t expected_rules = 0);

  [[nodiscard]] nat_type type() const noexcept { return type_; }
  [[nodiscard]] net::ip_address public_ip() const noexcept {
    return public_ip_;
  }
  [[nodiscard]] sim::sim_time hole_timeout() const noexcept {
    return hole_timeout_;
  }

  // --- mutating packet path ------------------------------------------------

  /// Processes an outbound packet from `private_src` to `remote`:
  /// creates/refreshes the mapping and the filtering rule, and returns the
  /// translated public source endpoint. Binds `private_src` on first use;
  /// any other private endpoint afterwards violates the contract.
  net::endpoint translate_outbound(const net::endpoint& private_src,
                                   const net::endpoint& remote,
                                   sim::sim_time now);

  /// Processes an inbound packet addressed to `public_dst` (one of this
  /// device's public endpoints) arriving from `remote_src`. Returns the
  /// private destination endpoint when `would_accept` does, refreshing
  /// the mapping and the entry that admitted it; nullopt drops it.
  std::optional<net::endpoint> filter_inbound(const net::endpoint& public_dst,
                                              const net::endpoint& remote_src,
                                              sim::sim_time now);

  // --- const dry-run path (metrics oracle) ---------------------------------

  /// Source endpoint a packet from `private_src` (the bound endpoint, or
  /// any before the first bind) to `remote` would carry, without creating
  /// the session.
  [[nodiscard]] predicted_source would_translate(
      const net::endpoint& private_src, const net::endpoint& remote,
      sim::sim_time now) const;

  /// Whether a packet to `public_dst` from (src_ip, src_port) would be
  /// forwarded; src_port empty means "fresh unpredictable port".
  /// Returns the private destination on acceptance. Never mutates.
  [[nodiscard]] std::optional<net::endpoint> would_accept(
      const net::endpoint& public_dst, net::ip_address src_ip,
      std::optional<std::uint32_t> src_port, sim::sim_time now) const;

  // --- STUN-like oracle -----------------------------------------------------

  /// The public endpoint this private endpoint should advertise in peer
  /// descriptors. Cone types bind `private_src` and get a stable,
  /// pre-reserved port (real NATs keep the same mapping while it is in
  /// use, and STUN discovers it); symmetric NATs return port 0 because no
  /// single port is meaningful.
  net::endpoint advertised_endpoint(const net::endpoint& private_src);

  // --- maintenance / introspection -----------------------------------------

  /// Drops expired rules, bindings and sessions to bound memory use.
  /// O(1) while nothing can have expired (next-expiry watermark).
  void purge_expired(sim::sim_time now);

  /// Number of live filtering rules (cone) or sessions (symmetric).
  [[nodiscard]] std::size_t active_rule_count(sim::sim_time now) const;

  /// Bytes the device's flat tables hold allocated: the rule and session
  /// tables.
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  /// One symmetric session: the minted public port and its expiry.
  struct sym_entry {
    std::uint32_t public_port = 0;
    sim::sim_time expires = 0;
  };

  /// Packs a remote endpoint (or (ip, rule_port) pair) into a table key.
  [[nodiscard]] static std::uint64_t key_of(net::ip_address ip,
                                            std::uint32_t port) noexcept {
    return (static_cast<std::uint64_t>(ip.value) << 32) | port;
  }

  /// Whether `private_src` may use this device: any endpoint before the
  /// first bind, afterwards only the bound one.
  [[nodiscard]] bool serves(const net::endpoint& private_src) const noexcept {
    return !bound_ || private_src == private_ep_;
  }

  /// Binds the device's one private endpoint (contract: no second one)
  /// and, for cone types, reserves its public port. The reservation is
  /// permanent: it survives binding expiry so advertised endpoints stay
  /// valid (see DESIGN.md).
  void bind(const net::endpoint& private_src);

  /// The one admission rule, shared by `filter_inbound` and
  /// `would_accept`: the live expiry that admits a packet to
  /// `public_port` from (src_ip, src_port), or nullptr for a drop. That
  /// is the session (symmetric), the binding (full cone) or the filtering
  /// rule (restricted cones). An empty src_port is a fresh,
  /// unpredictable port.
  [[nodiscard]] const sim::sim_time* admitting_expiry(
      std::uint32_t public_port, net::ip_address src_ip,
      std::optional<std::uint32_t> src_port, sim::sim_time now) const;

  /// Lowers the purge watermark to cover a newly set expiry.
  void note_expiry(sim::sim_time expires) noexcept {
    if (expires < next_expiry_) next_expiry_ = expires;
  }

  nat_type type_;
  bool bound_ = false;
  net::ip_address public_ip_;
  sim::sim_time hole_timeout_;
  net::endpoint private_ep_;         ///< the one client, once bound_
  std::uint32_t cone_port_ = 0;      ///< 0 = not reserved yet
  std::uint32_t next_port_ = 1024;
  sim::sim_time cone_expires_ = -1;  ///< -1 = no binding yet
  /// Filtering rules (restricted cones), keyed by packed
  /// (remote_ip, rule_port), and symmetric sessions, keyed by packed
  /// remote endpoint.
  util::flat_hash_map<std::uint64_t, sim::sim_time> rules_;
  util::flat_hash_map<std::uint64_t, sym_entry> sym_;
  /// No rule or session expires before this; purge is a no-op until then.
  sim::sim_time next_expiry_ = sim::time_never;
  sim::sim_time last_sweep_ = 0;  ///< GC throttle (see purge_expired)
};

}  // namespace nylon::nat
