// Base class for all peer implementations (the Fig. 1 baseline, Nylon,
// and the ARRG-style cache baseline). Owns the view, the shuffle timer,
// identity, and shared instrumentation; concrete protocols implement the
// active (initiate) and passive (handle) paths.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gossip/messages.h"
#include "gossip/node_descriptor.h"
#include "gossip/peer_sampling_service.h"
#include "gossip/policies.h"
#include "gossip/view.h"
#include "net/transport.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace nylon::gossip {

/// Shared per-peer protocol counters (inspected by metrics and tests).
struct shuffle_stats {
  std::uint64_t initiated = 0;          ///< shuffles started
  std::uint64_t empty_view_skips = 0;   ///< no target available
  std::uint64_t no_route_skips = 0;     ///< Nylon: no RVP towards target
  std::uint64_t requests_received = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t messages_forwarded = 0; ///< Nylon: relay/chain forwards
  std::uint64_t forward_drops = 0;      ///< Nylon: chain broken mid-way
};

/// Abstract peer: endpoint handler + sampling service + shuffle timer.
class peer : public net::endpoint_handler, public peer_sampling_service {
 public:
  /// `transport` and `rng` must outlive the peer.
  peer(net::transport& transport, util::rng& rng, protocol_config cfg);
  ~peer() override = default;
  peer(const peer&) = delete;
  peer& operator=(const peer&) = delete;

  /// Binds identity after transport::add_node assigned an id.
  void attach(net::node_id id);

  /// Schedules the periodic shuffle, first firing at `first_shuffle`
  /// (scenarios randomize the phase so peers do not fire in lockstep).
  /// Once only: a peer that was started or stopped cannot be started
  /// again (a rejoin is a new peer), so no second shuffle chain can run
  /// beside a stopped one whose hop is still queued.
  void start(sim::sim_time first_shuffle);

  /// Stops the periodic shuffle (peer departure). The one hop already
  /// queued still fires, sees the peer stopped, and ends the chain
  /// without shuffling, so the peer must outlive its scheduler's run.
  void stop() noexcept { state_ = lifecycle::stopped; }

  /// Re-reads the advertised endpoint from the transport — the deployment
  /// equivalent of re-running STUN after the peer's NAT re-bound. Future
  /// self-descriptors carry the new endpoint; copies already gossiped
  /// stay stale until they age out.
  void refresh_self();

  [[nodiscard]] bool running() const noexcept {
    return state_ == lifecycle::running;
  }
  [[nodiscard]] net::node_id id() const noexcept { return self_.id; }
  [[nodiscard]] const node_descriptor& self() const noexcept { return self_; }
  [[nodiscard]] const view& current_view() const noexcept { return view_; }
  [[nodiscard]] const protocol_config& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] const shuffle_stats& stats() const noexcept { return stats_; }

  /// Seeds the initial view (bootstrap). Subclasses may extend (Nylon
  /// also seeds its routing table).
  virtual void set_initial_view(std::vector<view_entry> seeds);

  // --- peer_sampling_service ------------------------------------------------
  [[nodiscard]] std::optional<node_descriptor> sample() override;
  [[nodiscard]] std::vector<node_descriptor> known_peers() const override;

  // --- endpoint_handler -----------------------------------------------------
  void on_datagram(const net::datagram& dgram) final;

 protected:
  /// Active thread body (Fig. 1 lines 1-7 / Fig. 6 lines 1-14).
  virtual void initiate_shuffle() = 0;
  /// Passive paths (message dispatch).
  virtual void handle_message(const net::datagram& dgram,
                              const gossip_message& msg) = 0;

  /// The buffer sent in a shuffle: every view entry plus a fresh
  /// self-descriptor (age 0). Subclasses decorate entries (Nylon stamps
  /// route TTLs) via `decorate_buffer`. Returns a reference to a
  /// per-peer scratch vector, valid until the next build_buffer call on
  /// this peer — make_message copies it into the wire block immediately,
  /// so no caller holds it across another shuffle.
  [[nodiscard]] const std::vector<view_entry>& build_buffer();

  /// Hook: adjust the outgoing buffer (default: no-op).
  virtual void decorate_buffer(std::vector<view_entry>& buffer);

  /// Fresh self entry (age 0).
  [[nodiscard]] view_entry self_entry() const;

  net::transport& transport_;
  util::rng& rng_;
  protocol_config cfg_;
  view view_;
  shuffle_stats stats_;

 private:
  enum class lifecycle : std::uint8_t { idle, running, stopped };

  node_descriptor self_;
  lifecycle state_ = lifecycle::idle;
  /// Reused by build_buffer: a shuffle fires every period on every peer,
  /// and a fresh vector each time was the hottest allocation after the
  /// payloads themselves.
  std::vector<view_entry> buffer_scratch_;
};

}  // namespace nylon::gossip
