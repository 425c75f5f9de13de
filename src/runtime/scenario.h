// A fully wired simulation: scheduler + rng + transport + peers, built
// from an experiment_config, with churn injection and metric access.
//
// Two execution engines behind one API (selected by config.shards):
//  * shards == 0 — the classic serial engine: one scheduler, one shared
//    rng, golden-digest pinned (DESIGN.md "Determinism contract").
//  * shards == K >= 1 — the sharded universe engine: the transport is
//    handed the sim::shard_engine and partitions peers across its K
//    shards by node_id, each shard a full scheduler clone advancing in
//    lockstep epochs of the latency floor's width; every peer gets its
//    own rng stream (at add_node) and packets cross shards through the
//    engine's canonical channels. Results are byte-identical for every
//    K (DESIGN.md "Sharded determinism contract") but form a distinct
//    deterministic stream from the serial engine.
// All mutation entry points below are control-plane operations: in shard
// mode they run at epoch barriers, where every shard is parked at the
// same simulated time. Joins and single-peer departures may also be
// *staged* (run_until's `staged` actions): the sharded engine applies
// them at the barrier opening the epoch that holds their time, which is
// sound because a join reads only control-plane state (the control rng,
// the alive lists, self() descriptors, the config) and a departure
// reaches its peer through an event on the peer's own shard (see
// depart_peer_at).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gossip/peer.h"
#include "metrics/reachability.h"
#include "net/transport.h"
#include "net/udp_backend.h"
#include "runtime/experiment_config.h"
#include "sim/scheduler.h"
#include "sim/shard_engine.h"
#include "util/rng.h"
#include "util/stats.h"

namespace nylon::runtime {

/// Aggregated Nylon hole-punching statistics over every peer created in
/// the run (dead peers keep their counters, exactly like the hand-rolled
/// ablation benches summed them). All zero for non-Nylon protocols.
struct punch_stat_totals {
  std::uint64_t started = 0;    ///< OPEN_HOLEs emitted
  std::uint64_t completed = 0;  ///< PONG received, REQUEST sent
  std::uint64_t expired = 0;    ///< no PONG within the horizon
  /// Chain lengths of completed punches only.
  util::running_stats punch_chains;
  /// Punch *and* fully-relayed REQUEST chains merged per peer (punch
  /// first), the Fig. 9 "RVPs traversed" population.
  util::running_stats rvp_chains;
};

class scenario {
 public:
  /// Builds the whole system: assigns NAT types, creates peers, seeds
  /// views with random public peers (§5 bootstrap) and schedules every
  /// peer's shuffle timer with a random phase within the first period.
  explicit scenario(const experiment_config& cfg);

  /// Advances the simulation by `periods` shuffle periods.
  void run_periods(std::int64_t periods);

  /// Advances to an absolute simulated time. In shard mode this runs
  /// conservative-window epochs, interleaving control-plane events (NAT
  /// GC) at their exact timestamps, and returns with every shard parked
  /// at `deadline`.
  ///
  /// `staged` (optional) holds joins and departures (add_peer_at /
  /// depart_peer_at) due before `deadline`: the serial engines run each
  /// at its exact time, after every event at or before it; the sharded
  /// engine applies each at the barrier opening the epoch that holds its
  /// time, so they cut no epoch. Either way the simulation is the one a
  /// run_until(at) per action would give. Actions at `deadline`, or at a
  /// sampler tick, stay pending for the caller: the timeline sampler
  /// must see the world before the actions at its tick.
  void run_until(sim::sim_time deadline,
                 sim::staged_actions* staged = nullptr);

  // --- sim-time sampling (obs timelines, workload trajectories) --------------

  /// Sampler slots: the spec-level health timeline and the workload
  /// engine's trajectory snapshots share the tick machinery but anchor
  /// and clear independently.
  static constexpr std::size_t sampler_timeline = 0;
  static constexpr std::size_t sampler_workload = 1;
  static constexpr std::size_t sampler_slots = 2;

  /// Installs (or re-anchors) the observation sampler in `slot`: `fn(t)`
  /// fires every `period` of sim time, first at now() + period. Ticks
  /// are interleaved into run_until — the engine runs to the tick time,
  /// parks (all shards, in shard mode), fires `fn`, and resumes — so no
  /// scheduler event is created and the event stream is untouched: state
  /// digests are byte-identical with samplers installed or not
  /// (DESIGN.md "Observability & the determinism contract"). `fn` must
  /// not draw from shared rngs or reentrantly run_until. The timeline
  /// slot is observation-only (const reads of the parked world); the
  /// workload slot may additionally run control-plane actions that were
  /// due at exactly the tick time — they would have run at the same
  /// barrier anyway, so the event stream is unchanged.
  void set_sampler(std::size_t slot, sim::sim_time period,
                   std::function<void(sim::sim_time)> fn);

  /// Uninstalls the sampler in `slot`; pending ticks are abandoned.
  void clear_sampler(std::size_t slot) noexcept;

  // --- churn -----------------------------------------------------------------

  /// Fail-stop removal of `fraction` of the alive peers, public and
  /// natted peers removed proportionally to their share (Fig. 10).
  /// Returns the number of peers removed.
  std::size_t remove_fraction(double fraction);

  /// Removes one specific peer (fail-stop) now.
  void remove_peer(net::node_id id) { depart_peer_at(id, sched_.now()); }

  /// Fail-stop departure at `at`: takes the peer off the alive lists at
  /// once; stopping it (timer cancelled, liveness flag cleared) happens
  /// at `at`. Run by a staged action ahead of `at`, the stop is an event
  /// on the peer's own shard keyed (at, control_order, id), so it runs
  /// after every peer event of that millisecond — where a cut action
  /// ran; it is not counted as an executed event. Returns false when the
  /// peer was already gone.
  bool depart_peer_at(net::node_id id, sim::sim_time at);

  /// A new peer joins mid-run: it is created with the scenario's protocol
  /// and NAT type drawn from the configured distribution (or forced via
  /// `type`), bootstrapped with alive public peers, and starts gossiping
  /// within one period. Returns its id. (Arrival-side churn — the paper's
  /// motivation mentions arrivals, its evaluation only departures.)
  net::node_id add_peer(std::optional<nat::nat_type> type = std::nullopt) {
    return add_peer_at(sched_.now(), type);
  }

  /// add_peer for a join at `at` (>= now), which may run ahead of `at`
  /// as a staged action: the peer's first shuffle is `at` + its phase.
  net::node_id add_peer_at(sim::sim_time at,
                           std::optional<nat::nat_type> type = std::nullopt);

  /// Number of peers still alive.
  [[nodiscard]] std::size_t alive_count() const;

  /// All alive node ids, in id order.
  [[nodiscard]] std::vector<net::node_id> alive_ids() const;

  // --- dynamics beyond plain churn (driven by workload::engine) --------------

  /// Changes the NAT distribution that future `add_peer` draws use —
  /// models a population whose newcomers differ from the incumbents
  /// (e.g. an ISP rolling out CGNAT). Does not touch existing peers.
  void set_nat_distribution(double natted_fraction, const nat::nat_mix& mix);

  /// Splits the network: round(fraction * alive) random peers land on
  /// side 1, everyone else stays on side 0, and cross-side packets drop.
  /// Returns the side-1 population. Replaces any existing partition.
  std::size_t partition_fraction(double fraction);

  /// Heals any installed partition.
  void heal_partition();

  /// Re-binds the NAT of round(fraction * alive natted peers) random
  /// natted peers (lease expiry: new public IP, all state lost) and
  /// refreshes their self-descriptors. Returns how many were re-bound.
  std::size_t rebind_fraction(double fraction);

  /// In-place NAT *type* migration of round(fraction * alive natted)
  /// random natted peers: each gets a fresh device of a type drawn from
  /// `to_mix` (the ISP swapped the box — cone customers waking up behind
  /// symmetric CGNAT, say), with the full rebind upheaval on top (new
  /// public IP, NAT state lost, self-descriptor refreshed). Returns how
  /// many migrated.
  std::size_t migrate_fraction(double fraction, const nat::nat_mix& to_mix);

  // --- access ----------------------------------------------------------------

  [[nodiscard]] net::transport& transport() noexcept { return *transport_; }
  [[nodiscard]] const net::transport& transport() const noexcept {
    return *transport_;
  }
  [[nodiscard]] std::span<const std::unique_ptr<gossip::peer>> peers()
      const noexcept {
    return peers_;
  }
  [[nodiscard]] gossip::peer& peer_at(net::node_id id);
  /// The control-plane scheduler. Its clock is the authoritative "now"
  /// between events in serial mode and at barriers in shard mode; its
  /// events_executed() covers only control events when sharded — use
  /// scenario::events_executed() for the whole universe.
  [[nodiscard]] sim::scheduler& scheduler() noexcept { return sched_; }
  [[nodiscard]] util::rng& rng() noexcept { return rng_; }
  [[nodiscard]] const experiment_config& config() const noexcept {
    return cfg_;
  }

  /// Total events executed across the whole universe (all shards plus
  /// the control plane; just the one scheduler in serial mode).
  [[nodiscard]] std::uint64_t events_executed() const noexcept;

  /// True when running on the sharded engine.
  [[nodiscard]] bool sharded() const noexcept { return shards_ != nullptr; }

  /// The real-socket backend, non-null iff config.transport == udp
  /// (wire-level telemetry: socket count, datagrams, jitter).
  [[nodiscard]] const net::udp_backend* udp() const noexcept {
    return udp_.get();
  }

  /// The shard engine's per-shard work/wait profile (obs/profile.h).
  /// Empty in serial mode and in NYLON_OBS=0 builds.
  [[nodiscard]] obs::epoch_profile shard_profile() const;

  /// FNV-1a digest of the observable world state: per-peer liveness,
  /// views, shuffle statistics and traffic counters (id order), plus the
  /// transport's drop/byte accounting and the event count. Two runs are
  /// "the same simulation" iff their digests match; the shard
  /// determinism tests pin this across shard counts.
  [[nodiscard]] std::uint64_t state_digest() const;

  /// Builds a fresh staleness/connectivity oracle over the current state.
  [[nodiscard]] metrics::reachability_oracle oracle() const;

  /// Aggregated Nylon traversal counters across all peers (id order);
  /// all zero when the protocol has no NAT awareness.
  [[nodiscard]] punch_stat_totals punch_totals() const;

 private:
  /// The dedicated rng stream for peer `id` (shard mode), created on
  /// first use in id order. Streams derive from (seed, id), so they are
  /// independent of the shard count and of join order timing.
  util::rng& peer_rng_for(net::node_id id);

  /// Shared scaffolding of rebind_fraction / migrate_fraction: picks
  /// round(fraction * alive natted) random natted peers, applies
  /// `upheave` to each and refreshes its self-descriptor. Returns how
  /// many were hit.
  std::size_t upheave_natted_fraction(
      double fraction, const std::function<void(net::node_id)>& upheave);

  /// One installed observation sampler (see set_sampler).
  struct sampler_entry {
    sim::sim_time period = 0;  ///< 0 = slot empty
    sim::sim_time next = 0;
    std::function<void(sim::sim_time)> fn;
  };

  /// Earliest pending tick across slots (time_never when none).
  [[nodiscard]] sim::sim_time next_sample_time() const noexcept;
  /// Fires every sampler whose tick is due at `t` (slot order).
  void fire_samplers(sim::sim_time t);
  /// run_until without sampler interleaving — the original engine
  /// dispatch, shared by the plain and sampled paths.
  void run_until_plain(sim::sim_time deadline, sim::staged_actions* staged);
  /// Stops a departing peer: cancels its timer, clears its liveness.
  void stop_peer(gossip::peer& p);

  experiment_config cfg_;
  sim::scheduler sched_;  ///< the universe (serial) / control (sharded)
  util::rng rng_;         ///< shared stream (serial) / control stream
  std::unique_ptr<sim::shard_engine> shards_;  ///< null in serial mode
  /// Per-peer rng streams (shard mode; deque for reference stability).
  std::deque<util::rng> peer_rngs_;
  std::unique_ptr<net::transport> transport_;
  /// Real-socket carrier; null unless config.transport == udp.
  std::unique_ptr<net::udp_backend> udp_;
  std::vector<std::unique_ptr<gossip::peer>> peers_;
  std::array<sampler_entry, sampler_slots> samplers_;
  /// The latest join time, and the first id that joined at it (ids grow
  /// with join order). A peer departing at its join instant has run
  /// nothing, so depart_peer_at stops it at once — its zero-phase first
  /// shuffle, already queued at that instant, must never fire.
  sim::sim_time join_instant_ = sim::time_never;
  net::node_id join_instant_first_ = 0;
};

}  // namespace nylon::runtime
