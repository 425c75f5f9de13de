// All knobs of one simulated deployment, defaulted to the paper's §5
// experimental settings.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/peer_factory.h"
#include "gossip/policies.h"
#include "nat/deployment.h"
#include "sim/time.h"

namespace nylon::runtime {

/// How datagrams physically travel between peers.
enum class transport_kind : std::uint8_t {
  sim,         ///< in-memory payload structs through the event queue
  sim_frames,  ///< serialized wire frames through the event queue
               ///< (byte-identical digests to `sim` — the round trip is
               ///< lossless and encode/decode consume no randomness)
  udp,         ///< real loopback UDP sockets, wall-clock paced
               ///< (serial engine only; its own timing stream)
};

[[nodiscard]] std::string_view to_string(transport_kind k) noexcept;

/// Configuration of one experiment run (one seed).
struct experiment_config {
  /// Population size (paper: 10,000; benches default lower — see flags).
  std::size_t peer_count = 10000;
  /// Fraction of peers behind NATs (the x-axis of most figures).
  double natted_fraction = 0.5;
  /// NAT-type mix among natted peers (paper: 50/40/10 RC/PRC/SYM for the
  /// Nylon experiments, 100% PRC for the §3 baselines).
  nat::nat_mix mix = nat::paper_mix();
  /// Which protocol the peers run.
  core::protocol_kind protocol = core::protocol_kind::nylon;
  /// Gossip dimensions: view size, selection, propagation, merge, period.
  gossip::protocol_config gossip;
  /// Shape of the one-way delay distribution. `fixed` is the paper's
  /// model; `uniform` draws from [latency, latency_max]; `lognormal`
  /// uses `latency` as the median with log-space shape `latency_sigma`
  /// (heavy-tailed, the empirical internet shape).
  enum class latency_kind : std::uint8_t { fixed, uniform, lognormal };
  latency_kind latency_model = latency_kind::fixed;
  /// One-way message latency (paper: 50 ms). Fixed value, uniform lower
  /// bound, or lognormal median depending on `latency_model`.
  sim::sim_time latency = sim::millis(50);
  /// Upper bound of the uniform latency model (ignored otherwise).
  sim::sim_time latency_max = sim::millis(50);
  /// Log-space sigma of the lognormal model (ignored otherwise).
  double latency_sigma = 0.25;
  /// NAT mapping / rule lifetime (paper: 90 s).
  sim::sim_time hole_timeout = sim::seconds(90);
  /// Optional packet loss (paper: 0).
  double loss_rate = 0.0;
  /// Master seed of this run.
  std::uint64_t seed = 1;
  /// 0 (default): the classic serial engine — one scheduler, one shared
  /// rng, golden-digest pinned. K >= 1: the sharded universe engine —
  /// peers partitioned across K shards by node_id, per-peer rng streams,
  /// K worker threads in lockstep epochs. Output is byte-identical for
  /// every K >= 1 (its own deterministic stream, distinct from the
  /// serial engine's — see DESIGN.md "Sharded determinism contract").
  /// Requires a latency model with min_delay() >= 1 ms and K <=
  /// max_shards.
  std::size_t shards = 0;
  static constexpr std::size_t max_shards = 1024;
  /// Which carrier moves the datagrams (see transport_kind). `udp`
  /// requires shards == 0.
  transport_kind transport = transport_kind::sim;
  /// UDP pacing: wall seconds per simulated second (net/udp_backend.h).
  double udp_time_scale = 0.02;

  /// Throws nylon::contract_error on invalid combinations.
  void validate() const;
};

}  // namespace nylon::runtime
