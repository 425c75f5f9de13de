// The simulated internet: delivers datagrams between endpoints, pushing
// every packet of a natted peer through its NAT device on the way out and
// through the destination's NAT device on the way in.
//
// Staleness, partitions and hole-punching behaviour all *emerge* from this
// code path; the metrics oracle dry-runs the exact same logic through the
// const `would_deliver` query.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "nat/nat_device.h"
#include "nat/nat_type.h"
#include "net/address.h"
#include "net/latency.h"
#include "net/message.h"
#include "net/node_id.h"
#include "sim/scheduler.h"
#include "sim/shard_engine.h"
#include "util/flat_hash.h"
#include "util/rng.h"

namespace nylon::net {

class udp_backend;

/// A bound socket: receives datagrams addressed (post-NAT) to its owner.
class endpoint_handler {
 public:
  virtual ~endpoint_handler() = default;
  virtual void on_datagram(const datagram& dgram) = 0;
};

/// Why a datagram was not delivered.
enum class drop_reason : std::uint8_t {
  unknown_destination,  ///< no host owns the destination IP / port
  dead_node,            ///< destination host left the system
  nat_filtered,         ///< destination NAT dropped the unsolicited packet
  sender_dead,          ///< source host left before the send fired
  random_loss,          ///< probabilistic loss (off by default)
  partitioned,          ///< source and destination are in different partitions
  count_                ///< number of reasons (internal)
};

/// Display name of a drop reason.
[[nodiscard]] std::string_view to_string(drop_reason r) noexcept;

/// Transport-wide tunables.
struct transport_config {
  /// NAT mapping / filtering-rule lifetime (the paper's 90 s).
  sim::sim_time hole_timeout = sim::seconds(90);
  /// Independent per-datagram loss probability (paper: 0).
  double loss_rate = 0.0;
};

/// Per-node traffic counters (Figs. 7 and 8 are computed from these).
struct node_traffic {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
};

class transport {
 public:
  /// The scheduler and rng must outlive the transport.
  transport(sim::scheduler& sched, util::rng& rng,
            std::unique_ptr<latency_model> latency,
            transport_config cfg = {});

  // --- topology -------------------------------------------------------------

  /// Registers a node of the given NAT type; allocates its addresses and
  /// (for natted types) its NAT device. Returns its dense id. The node's
  /// loss and latency draws come from `rng` (which must outlive the
  /// transport); the two-argument form uses the transport's shared rng.
  /// In shard mode each node needs its own stream: the draw sequence then
  /// belongs to the sender, independent of how peers are partitioned.
  node_id add_node(nat::nat_type type, endpoint_handler& handler,
                   util::rng& rng);
  node_id add_node(nat::nat_type type, endpoint_handler& handler) {
    return add_node(type, handler, rng_);
  }

  /// Fail-stop removal: the node silently stops sending and receiving.
  /// Its NAT box keeps existing (packets die behind it). Idempotent. The
  /// two halves below split it for departures staged on the sharded
  /// engine: the alive lists are control-plane state, the liveness flag
  /// belongs to the node's shard.
  void remove_node(node_id id) {
    if (delist_node(id)) mark_dead(id);
  }
  /// Takes the node off the alive lists; false when it was not on them.
  bool delist_node(node_id id);
  /// Clears the node's liveness flag, which its own sends and deliveries
  /// to it read — so in shard mode only its shard (mid-epoch) or the
  /// parked control plane may call this.
  void mark_dead(node_id id);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_count_;
  }
  [[nodiscard]] bool alive(node_id id) const;
  [[nodiscard]] nat::nat_type type_of(node_id id) const;

  /// Number of alive nodes (maintained incrementally).
  [[nodiscard]] std::size_t alive_count() const noexcept {
    return alive_public_.size() + alive_natted_.size();
  }

  /// Alive node ids by NAT class, ascending by id. A node's class (public
  /// vs natted) is fixed at add_node — migrations swap natted types only —
  /// so these lists turn the population scans behind churn draws and
  /// bootstrap candidate selection into O(alive) copies instead of O(n)
  /// per-node liveness probes. Invalidated by add_node/delist_node.
  [[nodiscard]] std::span<const node_id> alive_public() const noexcept {
    return alive_public_;
  }
  [[nodiscard]] std::span<const node_id> alive_natted() const noexcept {
    return alive_natted_;
  }

  /// STUN-discovered public endpoint the node advertises in descriptors.
  /// For symmetric-NAT nodes the port is 0 (no stable port exists).
  [[nodiscard]] endpoint advertised_endpoint(node_id id) const;

  /// The natted node's lease expired and its NAT re-bound: the device is
  /// replaced by a fresh one on a brand-new public IP, dropping every
  /// mapping and filtering rule. Packets addressed to the old public
  /// endpoint no longer route anywhere (`unknown_destination`). Returns
  /// the new advertised endpoint; the peer must re-learn it (STUN) via
  /// `advertised_endpoint` before gossiping fresh self-descriptors.
  /// Requires a natted, alive node.
  endpoint rebind_nat(node_id id);

  /// In-place NAT *type* migration: the ISP swaps the node's NAT device
  /// for one of `new_type` (cone -> symmetric, say) under the running
  /// peer. Same plumbing as `rebind_nat` — fresh public IP, every mapping
  /// and filtering rule lost, old endpoint stops routing — plus the type
  /// change, which peers and remote descriptors only observe once
  /// refreshed. Requires a natted, alive node and a natted `new_type`.
  endpoint migrate_nat(node_id id, nat::nat_type new_type);

  // --- partitions -------------------------------------------------------------

  /// Installs a network partition: `side[i]` is node i's side; nodes
  /// beyond the vector (added later) are on side 0. Cross-side packets
  /// are dropped (`drop_reason::partitioned`) at *delivery* time, so a
  /// packet still in flight when the split happens is dropped too — and
  /// conversely, one in flight when the partition heals gets through.
  void set_partition(std::vector<std::uint8_t> side);

  /// Heals the partition: all traffic flows again.
  void clear_partition() noexcept { partition_side_.clear(); }

  /// True while a partition is installed.
  [[nodiscard]] bool partitioned() const noexcept {
    return !partition_side_.empty();
  }

  /// The node's partition side (0 when no partition is installed).
  [[nodiscard]] std::uint8_t side_of(node_id id) const noexcept {
    return id < partition_side_.size() ? partition_side_[id] : 0;
  }

  /// The node's NAT device (nullptr for public nodes). Exposed for tests
  /// and for the reachability oracle.
  [[nodiscard]] const nat::nat_device* device_of(node_id id) const;

  // --- data path --------------------------------------------------------------

  /// Sends `body` from node `from` to endpoint `to`. Applies source NAT
  /// translation, accounts bytes, and schedules delivery after the
  /// latency model's delay.
  void send(node_id from, const endpoint& to, payload_ptr body);

  // --- dry-run oracle ---------------------------------------------------------

  /// Which node would receive a packet from `from` addressed to `to`,
  /// under current NAT state? nullopt when it would be dropped. Const:
  /// never creates sessions or refreshes rules.
  [[nodiscard]] std::optional<node_id> would_deliver(node_id from,
                                                     const endpoint& to) const;

  /// The source endpoint such a packet would carry (port may be unknown
  /// for a fresh symmetric session).
  [[nodiscard]] nat::predicted_source predicted_source(
      node_id from, const endpoint& to) const;

  // --- accounting -------------------------------------------------------------

  [[nodiscard]] const node_traffic& traffic(node_id id) const;
  /// Zeroes all per-node and per-kind counters (used to measure steady
  /// state after a warm-up phase).
  void reset_traffic();
  [[nodiscard]] std::uint64_t drops(drop_reason reason) const;
  [[nodiscard]] std::uint64_t total_drops() const;
  /// Bytes sent for one protocol kind (sums the per-shard blocks; one
  /// block in serial mode).
  [[nodiscard]] std::uint64_t bytes_by_kind(message_kind kind) const noexcept;

  /// Periodically drops expired NAT state to bound memory; call it from a
  /// maintenance timer (scenario sets one up).
  void purge_nat_state();

  [[nodiscard]] sim::scheduler& scheduler() noexcept { return sched_; }
  /// Current simulated time (const path for oracles and metrics). In
  /// shard mode this is the control-plane clock, which equals the epoch
  /// barrier time whenever the control plane (oracles included) runs.
  [[nodiscard]] sim::sim_time scheduler_now() const noexcept {
    return sched_.now();
  }

  // --- shard mode -------------------------------------------------------------

  /// Runs the transport on the sharded engine (or back on the serial
  /// one, with nullptr); see sim/shard_engine.h and DESIGN.md's "Sharded
  /// determinism contract". With an engine installed the transport:
  ///  * reads clocks from the executing peer's shard scheduler instead of
  ///    the (control-plane) scheduler it was constructed with,
  ///  * partitions nodes across the engine's shards by `shard_of_node`,
  ///  * posts deliveries through the engine's canonical cross-shard
  ///    channels instead of scheduling them directly, and
  ///  * reclaims payload leases against the engine's completed floor.
  /// Without one (the default), behaviour is bit-identical to the
  /// classic serial engine. The engine must outlive the transport;
  /// install it before any node is added or traffic flows.
  void set_shard_engine(sim::shard_engine* engine);

  /// The scheduler `id`'s peer must use for its own timers: its shard's
  /// scheduler when sharded, the universe scheduler otherwise.
  [[nodiscard]] sim::scheduler& scheduler_for(node_id id) noexcept {
    return engine_ != nullptr ? engine_->shard_scheduler(shard_of_node(id))
                              : sched_;
  }

  /// The clock `id`'s peer observes from inside its own events (its
  /// shard clock when sharded; identical to scheduler_now() otherwise).
  [[nodiscard]] sim::sim_time now_for(node_id id) const noexcept {
    return engine_ != nullptr
               ? engine_->shard_scheduler(shard_of_node(id)).now()
               : sched_.now();
  }

  [[nodiscard]] const transport_config& config() const noexcept {
    return cfg_;
  }

  // --- wire backends ----------------------------------------------------------

  /// Installs a serializer (or clears it, with nullptr): every datagram
  /// then flies as its encoded frame — serialized when it enters flight,
  /// parsed back right before handler dispatch — so protocol handlers
  /// only ever see round-tripped bytes. Encode happens after all
  /// accounting and rng draws and consumes neither, so state digests are
  /// byte-identical to the struct-carrying path (the sim-frames
  /// contract; see DESIGN.md). Works in serial and shard mode: frames
  /// are encoded on the sending shard and decoded on the destination
  /// shard. Install before any node is added.
  void set_codec(const frame_codec* codec);

  /// Installs the real-socket backend (or clears it, with nullptr): after
  /// NAT translation, accounting, and the loss/latency draws, in-flight
  /// datagrams are handed to `backend` instead of the scheduler; the
  /// backend calls deliver_inbound() when bytes arrive. Serial engine
  /// only (real sockets cannot honor the sharded epoch barriers).
  /// Install before any node is added.
  void set_backend(udp_backend* backend);

  /// Inbound entry point for the udp backend: runs the delivery-time
  /// path (NAT filtering, partition check, liveness, handler dispatch)
  /// for one datagram that arrived from the wire.
  void deliver_inbound(node_id from, const endpoint& source,
                       const endpoint& to, const payload* body,
                       std::size_t bytes);

  /// Node ids interleave across shards (id % K) with dense per-shard
  /// slots id / K. The one owner of the partition rule; the scenario
  /// posts a staged departure to the departing node's shard through it.
  [[nodiscard]] std::size_t shard_of_node(node_id id) const noexcept {
    return id % shard_count_;
  }

 private:
  /// Per-node metadata the send/deliver fast path reads, packed into one
  /// 32-byte record so two nodes share a cache line (the old all-in-one
  /// node record spanned two lines per node and dragged the cold fields
  /// through the cache with it). `device` is a borrowed pointer — the
  /// owning unique_ptr lives in the cold per-shard array.
  struct node_hot {
    endpoint private_ep;   ///< equals `advertised` for public nodes
    endpoint advertised;
    ip_address public_ip;  ///< current public-facing IP (moves on rebind)
    nat::nat_type type = nat::nat_type::open;
    bool alive = true;
    nat::nat_device* device = nullptr;  ///< null for public nodes
  };
  static_assert(sizeof(node_hot) == 32);

  /// One shard's nodes in structure-of-arrays layout, indexed by dense
  /// local slot (`slot_of`). Shards only ever touch their own arrays
  /// mid-epoch (the destination shard executes deliveries), so the
  /// per-shard split keeps each worker's hot data contiguous and free of
  /// false sharing; in serial mode there is exactly one shard holding
  /// everything. Arrays a path does not touch (traffic accounting,
  /// handler dispatch, send sequencing, device ownership) stay out of
  /// the `hot` stride entirely.
  struct node_shard {
    std::vector<node_hot> hot;
    std::vector<node_traffic> traffic;
    std::vector<endpoint_handler*> handler;
    /// The stream the node's loss and latency draws come from.
    std::vector<util::rng*> rng;
    /// Monotonic per-sender packet number: the canonical cross-shard
    /// tiebreak (never reset, unlike the traffic counters).
    std::vector<std::uint64_t> send_seq;
    std::vector<std::unique_ptr<nat::nat_device>> device_owner;
  };

  [[nodiscard]] std::size_t slot_of(node_id id) const noexcept {
    return id / shard_count_;
  }
  [[nodiscard]] node_hot& hot_of(node_id id) noexcept {
    return node_shards_[shard_of_node(id)].hot[slot_of(id)];
  }
  [[nodiscard]] const node_hot& hot_of(node_id id) const noexcept {
    return node_shards_[shard_of_node(id)].hot[slot_of(id)];
  }

  /// Transport-wide counters, split per shard so concurrent epochs never
  /// contend (one block, index 0, in serial mode). Readers sum the
  /// blocks; the sums are shard-count independent even though the
  /// per-block placement is not. Cache-line aligned against false
  /// sharing between adjacent shards' hot counters.
  struct alignas(64) counter_block {
    std::uint64_t drops[static_cast<std::size_t>(drop_reason::count_)] = {};
    std::uint64_t by_kind[static_cast<std::size_t>(message_kind::count_)] =
        {};
  };

  /// In-flight payload ownership. Delivery closures capture the payload
  /// as a *raw* pointer — that keeps them trivially copyable (the event
  /// queue relocates trivial captures with a memcpy) and, in shard mode,
  /// keeps the non-atomic refcount off foreign shards entirely. The
  /// owning reference lives here, on the *sending* peer's shard, until
  /// the delivery time has provably passed:
  ///  * serial: every event before the current timestamp has executed,
  ///    so a lease with `release_at < now` is dead;
  ///  * sharded: the engine publishes the globally completed time floor
  ///    (shard_engine::completed_through()); a lease with
  ///    `release_at <= floor` has executed on its destination shard no
  ///    matter how epochs were cut. (The sender's own clock bounds
  ///    nothing: mid-epoch, another shard may not yet have run a
  ///    delivery timed before it.)
  /// Sweeps are amortized over sends; leftover leases die with the
  /// transport (workers parked, so the refcounts are safe to touch).
  struct payload_lease {
    sim::sim_time release_at = 0;  ///< the delivery's scheduled time
    payload_ptr body;
  };
  struct lease_list {
    std::vector<payload_lease> items;
    std::uint32_t sends_since_sweep = 0;
  };
  /// Frees every lease in `list` whose delivery has provably executed.
  void sweep_leases(lease_list& list, sim::sim_time now);
  /// Records the owning reference for one in-flight payload.
  void lease_payload(std::size_t src_shard, sim::sim_time release_at,
                     payload_ptr body, sim::sim_time now);

  /// O(1) routing: node i's original public IP is `public_ip_base + i + 1`
  /// by construction, so ownership is arithmetic plus one equality check
  /// (the node may have re-bound away from that address). Re-bound
  /// addresses live in a small overflow table. Returns nil_node when no
  /// alive-or-dead host owns the address.
  [[nodiscard]] node_id owner_of(ip_address ip) const;

  /// Delivery-time path; `shard` is the executing shard (0 in serial
  /// mode), used for clock reads and drop accounting. `body` is borrowed
  /// from the sender's delivery lease (see `payload_lease`). `msg_tag`
  /// is the flight-recorder sampling tag (obs/msglog.h): 0 for the
  /// unsampled common case, a stable message id otherwise —
  /// observation-only, it never influences the delivery outcome.
  void deliver(std::size_t shard, node_id from, endpoint source, endpoint to,
               const payload* body, std::size_t bytes,
               std::uint64_t msg_tag = 0);
  void count_drop(std::size_t shard, drop_reason reason);
  /// Shared rebind/migration plumbing: fresh device of `type` on a fresh
  /// public IP, all NAT state dropped, routing handed off to the new IP.
  endpoint replace_device(node_id id, nat::nat_type type);

  sim::scheduler& sched_;
  util::rng& rng_;
  std::unique_ptr<latency_model> latency_;
  transport_config cfg_;
  sim::shard_engine* engine_ = nullptr;  ///< null = classic serial engine
  /// Real-socket carrier for the in-flight leg (null = scheduler events).
  udp_backend* backend_ = nullptr;
  /// Frame serializer (null = payload structs fly as-is).
  const frame_codec* codec_ = nullptr;
  std::size_t shard_count_ = 1;     ///< node_shards_.size()
  std::size_t node_count_ = 0;
  std::vector<node_shard> node_shards_;
  /// Alive ids by NAT class, ascending (see alive_public/alive_natted).
  std::vector<node_id> alive_public_;
  std::vector<node_id> alive_natted_;
  /// Overflow routing for NATs that re-bound onto fresh (11.x) IPs.
  util::flat_hash_map<std::uint32_t, node_id> rebound_owner_;
  std::vector<std::uint8_t> partition_side_;  ///< empty = no partition
  std::uint32_t rebind_count_ = 0;  ///< rebound public IPs allocated so far
  /// One block per shard (exactly one in serial mode).
  std::vector<counter_block> counters_;
  /// In-flight payload owners, one list per shard (see payload_lease).
  std::vector<lease_list> leases_;
};

}  // namespace nylon::net
