#include "net/transport.h"

#include <algorithm>
#include <utility>

#include "net/transport_backend.h"
#include "obs/counters.h"
#include "obs/msglog.h"
#include "util/contracts.h"

namespace nylon::net {

// The telemetry msg_* counters are indexed by offsetting msg_request with
// the wire kind; pin the two enums together so reordering either one
// fails the build instead of mislabeling counts.
#define NYLON_OBS_KIND_ALIGNED(kind)                            \
  static_assert(static_cast<std::size_t>(obs::counter::msg_##kind) == \
                static_cast<std::size_t>(obs::counter::msg_request) + \
                    static_cast<std::size_t>(message_kind::kind))
NYLON_OBS_KIND_ALIGNED(request);
NYLON_OBS_KIND_ALIGNED(response);
NYLON_OBS_KIND_ALIGNED(open_hole);
NYLON_OBS_KIND_ALIGNED(ping);
NYLON_OBS_KIND_ALIGNED(pong);
NYLON_OBS_KIND_ALIGNED(other);
#undef NYLON_OBS_KIND_ALIGNED

namespace {
// Address plan: node i's public-facing IP is 10.0.0.0 + i + 1 (that is the
// NAT box's IP for natted nodes); its private address is 172.16.0.0 + i + 1.
// Private IPs are globally unique in the simulation purely to simplify
// bookkeeping; they are never routed.
constexpr std::uint32_t public_ip_base = 0x0A000000;
constexpr std::uint32_t private_ip_base = 0xAC100000;
constexpr std::uint32_t private_port = 5000;
constexpr std::uint32_t public_peer_port = 4000;
// Rebound NAT boxes draw fresh public IPs from a disjoint block (11.0.0.0)
// so they can never collide with the per-node 10.x addresses.
constexpr std::uint32_t rebind_ip_base = 0x0B000000;
}  // namespace

std::string_view to_string(drop_reason r) noexcept {
  switch (r) {
    case drop_reason::unknown_destination: return "unknown_destination";
    case drop_reason::dead_node: return "dead_node";
    case drop_reason::nat_filtered: return "nat_filtered";
    case drop_reason::sender_dead: return "sender_dead";
    case drop_reason::random_loss: return "random_loss";
    case drop_reason::partitioned: return "partitioned";
    case drop_reason::count_: break;
  }
  return "?";
}

transport::transport(sim::scheduler& sched, util::rng& rng,
                     std::unique_ptr<latency_model> latency,
                     transport_config cfg)
    : sched_(sched), rng_(rng), latency_(std::move(latency)), cfg_(cfg) {
  NYLON_EXPECTS(latency_ != nullptr);
  NYLON_EXPECTS(cfg_.hole_timeout > 0);
  NYLON_EXPECTS(cfg_.loss_rate >= 0.0 && cfg_.loss_rate <= 1.0);
  counters_.resize(1);
  leases_.resize(1);
  node_shards_.resize(1);
}

void transport::set_codec(const frame_codec* codec) {
  NYLON_EXPECTS(node_count_ == 0);
  codec_ = codec;
}

void transport::set_backend(transport_backend* backend) {
  NYLON_EXPECTS(node_count_ == 0);
  NYLON_EXPECTS(backend == nullptr || engine_ == nullptr);
  backend_ = backend;
}

void transport::deliver_inbound(node_id from, const endpoint& source,
                                const endpoint& to, const payload* body,
                                std::size_t bytes) {
  NYLON_EXPECTS(backend_ != nullptr);
  deliver(0, from, source, to, body, bytes);
}

void transport::set_shard_engine(sim::shard_engine* engine) {
  NYLON_EXPECTS(node_count_ == 0);
  NYLON_EXPECTS(engine == nullptr || backend_ == nullptr);
  engine_ = engine;
  shard_count_ = engine_ != nullptr ? engine_->shard_count() : 1;
  counters_.clear();
  counters_.resize(shard_count_);
  leases_.clear();
  leases_.resize(shard_count_);
  node_shards_.clear();
  node_shards_.resize(shard_count_);
  if (engine_ != nullptr) {
    // Cross-shard deliveries must land at or after the conservative
    // window's end; the latency model's floor sizes the engine's
    // window, so it must be a real millisecond (zero-delay packets
    // would race the epoch barrier).
    NYLON_EXPECTS(latency_->min_delay() >= 1);
  }
}

node_id transport::add_node(nat::nat_type type, endpoint_handler& handler,
                            util::rng& rng) {
  const auto id = static_cast<node_id>(node_count_++);
  node_shard& shard = node_shards_[shard_of_node(id)];
  NYLON_ENSURES(shard.hot.size() == slot_of(id));  // ids interleave densely
  node_hot hot;
  hot.type = type;
  const ip_address public_ip{public_ip_base + id + 1};
  hot.public_ip = public_ip;
  std::unique_ptr<nat::nat_device> device;
  if (nat::is_natted(type)) {
    hot.private_ep = endpoint{ip_address{private_ip_base + id + 1},
                              private_port};
    device = std::make_unique<nat::nat_device>(type, public_ip,
                                               cfg_.hole_timeout);
    hot.device = device.get();
    hot.advertised = device->advertised_endpoint(hot.private_ep);
  } else {
    hot.private_ep = endpoint{public_ip, public_peer_port};
    hot.advertised = hot.private_ep;
  }
  shard.hot.push_back(hot);
  shard.traffic.emplace_back();
  shard.handler.push_back(&handler);
  shard.rng.push_back(&rng);
  shard.send_seq.push_back(0);
  shard.device_owner.push_back(std::move(device));
  obs::count(obs::counter::nodes_added);
  // Ids are handed out in increasing order, so appending keeps the class
  // lists sorted without a search.
  (nat::is_natted(type) ? alive_natted_ : alive_public_).push_back(id);
  if (backend_ != nullptr) backend_->on_public_ip(id, public_ip);
  return id;
}

node_id transport::owner_of(ip_address ip) const {
  const std::uint32_t index = ip.value - public_ip_base - 1;
  if (index < node_count_) {
    // A re-bound NAT abandons its original 10.x address: packets sent
    // there must stop routing, so the arithmetic hit is confirmed
    // against the node's *current* public IP.
    return hot_of(index).public_ip == ip ? static_cast<node_id>(index)
                                         : nil_node;
  }
  const node_id* rebound = rebound_owner_.find(ip.value);
  return rebound != nullptr ? *rebound : nil_node;
}

bool transport::delist_node(node_id id) {
  NYLON_EXPECTS(id < node_count_);
  std::vector<node_id>& list =
      nat::is_natted(hot_of(id).type) ? alive_natted_ : alive_public_;
  const auto it = std::lower_bound(list.begin(), list.end(), id);
  if (it == list.end() || *it != id) return false;  // already removed
  list.erase(it);
  obs::count(obs::counter::nodes_removed);
  return true;
}

void transport::mark_dead(node_id id) {
  NYLON_EXPECTS(id < node_count_);
  hot_of(id).alive = false;
}

bool transport::alive(node_id id) const {
  NYLON_EXPECTS(id < node_count_);
  return hot_of(id).alive;
}

nat::nat_type transport::type_of(node_id id) const {
  NYLON_EXPECTS(id < node_count_);
  return hot_of(id).type;
}

endpoint transport::advertised_endpoint(node_id id) const {
  NYLON_EXPECTS(id < node_count_);
  return hot_of(id).advertised;
}

const nat::nat_device* transport::device_of(node_id id) const {
  NYLON_EXPECTS(id < node_count_);
  return hot_of(id).device;
}

endpoint transport::replace_device(node_id id, nat::nat_type type) {
  node_hot& hot = hot_of(id);
  NYLON_EXPECTS(hot.alive);
  NYLON_EXPECTS(hot.device != nullptr);
  const ip_address old_ip = hot.device->public_ip();
  const ip_address new_ip{rebind_ip_base + ++rebind_count_};
  rebound_owner_.erase(old_ip.value);  // no-op for an original 10.x IP
  rebound_owner_.insert_or_get(new_ip.value) = id;
  hot.public_ip = new_ip;
  hot.type = type;
  auto device =
      std::make_unique<nat::nat_device>(type, new_ip, cfg_.hole_timeout);
  hot.device = device.get();
  hot.advertised = device->advertised_endpoint(hot.private_ep);
  node_shards_[shard_of_node(id)].device_owner[slot_of(id)] =
      std::move(device);
  if (backend_ != nullptr) backend_->on_public_ip(id, new_ip);
  return hot.advertised;
}

endpoint transport::rebind_nat(node_id id) {
  NYLON_EXPECTS(id < node_count_);
  return replace_device(id, hot_of(id).type);
}

endpoint transport::migrate_nat(node_id id, nat::nat_type new_type) {
  NYLON_EXPECTS(id < node_count_);
  NYLON_EXPECTS(nat::is_natted(new_type));
  return replace_device(id, new_type);
}

void transport::set_partition(std::vector<std::uint8_t> side) {
  NYLON_EXPECTS(side.size() <= node_count_);
  partition_side_ = std::move(side);
}

void transport::count_drop(std::size_t shard, drop_reason reason) {
  ++counters_[shard].drops[static_cast<std::size_t>(reason)];
}

void transport::send(node_id from, const endpoint& to, payload_ptr body) {
  NYLON_EXPECTS(from < node_count_);
  NYLON_EXPECTS(body != nullptr);
  const std::size_t src_shard = shard_of_node(from);
  const std::size_t src_slot = slot_of(from);
  node_shard& shard = node_shards_[src_shard];
  node_hot& src = shard.hot[src_slot];
  if (!src.alive) {
    count_drop(src_shard, drop_reason::sender_dead);
    return;
  }
  // The sending peer's own clock: its shard scheduler mid-epoch, the
  // universe scheduler in serial mode.
  const sim::sim_time now =
      engine_ != nullptr ? engine_->shard_scheduler(src_shard).now()
                         : sched_.now();
  endpoint source_ep;
  if (src.device != nullptr) {
    source_ep = src.device->translate_outbound(src.private_ep, to, now);
  } else {
    source_ep = src.advertised;
  }
  const std::size_t bytes = udp_header_bytes + body->wire_size();
  node_traffic& traffic = shard.traffic[src_slot];
  traffic.bytes_sent += bytes;
  ++traffic.msgs_sent;
  counter_block& counters = counters_[src_shard];
  const message_kind kind = body->wire_kind();
  counters.by_kind[static_cast<std::size_t>(kind)] += bytes;
  obs::count(static_cast<obs::counter>(
      static_cast<std::size_t>(obs::counter::msg_request) +
      static_cast<std::size_t>(kind)));

  // Flight-recorder sampling (obs/msglog.h): the tag is a pure hash of
  // digest-pinned send facts — sender, the sender's message ordinal, the
  // send time — so the same messages are sampled on every engine and
  // shard count. The hooks only read state; they never touch an rng.
  const std::uint64_t msg_tag = obs::msglog_tag(from, traffic.msgs_sent, now);
  if (msg_tag != 0) {
    const node_id dst_hint = owner_of(to.ip);
    const std::uint64_t dst = dst_hint == nil_node ? 0 : dst_hint;
    const char* kind_name = to_string(kind).data();
    if (src.device != nullptr) {
      obs::msglog_record({msg_tag, now, from, dst,
                          obs::hop_kind::nat_translate, kind_name, nullptr});
    }
    obs::msglog_record(
        {msg_tag, now, from, dst, obs::hop_kind::send, kind_name, nullptr});
  }

  util::rng& rng = *shard.rng[src_slot];
  if (cfg_.loss_rate > 0.0 && rng.bernoulli(cfg_.loss_rate)) {
    count_drop(src_shard, drop_reason::random_loss);
    if (msg_tag != 0) {
      obs::msglog_record({msg_tag, now, from, 0, obs::hop_kind::drop, "",
                          to_string(drop_reason::random_loss).data()});
    }
    return;
  }
  const sim::sim_time delay = latency_->sample(rng);
  if (backend_ != nullptr) {
    // Real-socket mode: the backend owns the in-flight leg — it
    // serializes the payload onto an OS socket and calls
    // deliver_inbound() when the bytes come back, so no lease or
    // scheduler event is needed.
    backend_->ship(from, source_ep, to, std::move(body), bytes, now, delay);
    return;
  }
  // Frames mode: the datagram flies as its serialized bytes. Encode
  // happens here — after every accounting update and rng draw, on the
  // sending shard's thread — and consumes neither, which is why state
  // digests stay byte-identical to the struct-carrying path.
  if (codec_ != nullptr) body = codec_->encode(*body);
  // The closure borrows the payload; the owning reference goes into the
  // sender's lease list (see payload_lease in the header). Raw-pointer
  // captures keep every delivery closure trivially copyable.
  const payload* raw = body.get();
  lease_payload(src_shard, now + delay, std::move(body), now);
  if (engine_ == nullptr) {
    sched_.after(delay, [this, from, source_ep, to, raw, bytes, msg_tag] {
      deliver(0, from, source_ep, to, raw, bytes, msg_tag);
    });
    return;
  }
  // Cross-shard (or same-shard — the ordering contract is uniform)
  // delivery through the canonical channels. The destination shard is
  // resolved against barrier-stable routing state; ownership is
  // re-resolved at delivery time, where a mid-flight NAT rebind turns the
  // packet into an unknown_destination drop exactly like the serial path.
  const node_id owner = owner_of(to.ip);
  const std::size_t dst_shard = owner != nil_node
                                    ? shard_of_node(owner)
                                    : to.ip.value % shard_count_;
  const std::uint64_t seq = ++shard.send_seq[src_slot];
  engine_->post(src_shard, dst_shard, now + delay, from, seq,
                [this, dst_shard, from, source_ep, to, raw, bytes, msg_tag] {
                  deliver(dst_shard, from, source_ep, to, raw, bytes, msg_tag);
                });
}

void transport::lease_payload(std::size_t src_shard, sim::sim_time release_at,
                              payload_ptr body, sim::sim_time now) {
  lease_list& list = leases_[src_shard];
  list.items.push_back(payload_lease{release_at, std::move(body)});
  // Amortized reclamation: a sweep is O(outstanding), so spacing them
  // this far keeps the per-send cost O(1) while bounding the backlog to
  // one interval of sends plus whatever is genuinely in flight.
  if (++list.sends_since_sweep >= 1024) sweep_leases(list, now);
}

void transport::sweep_leases(lease_list& list, sim::sim_time now) {
  list.sends_since_sweep = 0;
  // Serial: strictly-earlier events have executed, so anything released
  // before `now` is dead. Sharded: only the engine's globally completed
  // floor bounds the other shards' progress (see payload_lease) — the
  // relaxed read is safe because the floor is monotone and any stale
  // value only delays reclamation.
  const sim::sim_time reclaim_before =
      engine_ != nullptr ? engine_->completed_through() + 1 : now;
  std::vector<payload_lease>& items = list.items;
  for (std::size_t i = 0; i < items.size();) {
    if (items[i].release_at < reclaim_before) {
      items[i] = std::move(items.back());  // order is irrelevant here
      items.pop_back();
    } else {
      ++i;
    }
  }
}

void transport::deliver(std::size_t shard, node_id from, endpoint source,
                        endpoint to, const payload* body, std::size_t bytes,
                        std::uint64_t msg_tag) {
  const sim::sim_time now =
      engine_ != nullptr ? engine_->shard_scheduler(shard).now() : sched_.now();
  // Flight-recorder hop for a terminated message; observation-only.
  const auto record_drop = [&](drop_reason reason, std::uint64_t dst_id) {
    if (msg_tag != 0) {
      obs::msglog_record({msg_tag, now, from, dst_id, obs::hop_kind::drop, "",
                          to_string(reason).data()});
    }
  };
  const node_id owner = owner_of(to.ip);
  if (owner == nil_node) {
    count_drop(shard, drop_reason::unknown_destination);
    record_drop(drop_reason::unknown_destination, 0);
    return;
  }
  // A partition severs the path before the destination NAT ever sees the
  // packet (no rule refresh on the far side).
  if (partitioned() && side_of(from) != side_of(owner)) {
    count_drop(shard, drop_reason::partitioned);
    record_drop(drop_reason::partitioned, owner);
    return;
  }
  const std::size_t dst_slot = slot_of(owner);
  node_shard& dst_nodes = node_shards_[shard_of_node(owner)];
  node_hot& dst = dst_nodes.hot[dst_slot];
  if (dst.device != nullptr) {
    const auto private_dst = dst.device->filter_inbound(to, source, now);
    if (!private_dst) {
      count_drop(shard, drop_reason::nat_filtered);
      record_drop(drop_reason::nat_filtered, owner);
      return;
    }
    NYLON_ENSURES(*private_dst == dst.private_ep);
  } else if (to != dst.advertised) {
    count_drop(shard, drop_reason::unknown_destination);
    record_drop(drop_reason::unknown_destination, owner);
    return;
  }
  // NAT boxes forward to dead hosts; the packet just dies there. The check
  // happens after NAT filtering so rule refreshes stay realistic.
  if (!dst.alive) {
    count_drop(shard, drop_reason::dead_node);
    record_drop(drop_reason::dead_node, owner);
    return;
  }
  if (msg_tag != 0) {
    obs::msglog_record(
        {msg_tag, now, from, owner, obs::hop_kind::deliver, "", nullptr});
  }
  node_traffic& traffic = dst_nodes.traffic[dst_slot];
  traffic.bytes_received += bytes;
  ++traffic.msgs_received;
  // Frames mode: parse the wire bytes back into a protocol payload
  // before dispatch. The decoded block is born and dies on this
  // (destination) shard's thread, honoring the arena sharing contract;
  // the handler borrows it exactly like any other body.
  payload_ptr decoded;
  if (const frame_payload* frame = body->as_frame()) {
    NYLON_ENSURES(codec_ != nullptr);
    decoded = codec_->decode(frame->bytes());
    // A frame the transport itself encoded can only fail to parse if
    // memory corrupted in flight — a simulator bug, not a protocol
    // event, hence a contract instead of a drop_reason.
    NYLON_ENSURES(decoded != nullptr);
    body = decoded.get();
  }
  dst_nodes.handler[dst_slot]->on_datagram(datagram{source, to, body});
}

nat::predicted_source transport::predicted_source(node_id from,
                                                  const endpoint& to) const {
  NYLON_EXPECTS(from < node_count_);
  const node_hot& src = hot_of(from);
  if (src.device != nullptr) {
    return src.device->would_translate(src.private_ep, to, sched_.now());
  }
  return nat::predicted_source{src.advertised.ip, src.advertised.port};
}

std::optional<node_id> transport::would_deliver(node_id from,
                                                const endpoint& to) const {
  NYLON_EXPECTS(from < node_count_);
  if (!hot_of(from).alive) return std::nullopt;
  const node_id owner = owner_of(to.ip);
  if (owner == nil_node) return std::nullopt;
  if (partitioned() && side_of(from) != side_of(owner)) {
    return std::nullopt;
  }
  const node_hot& dst = hot_of(owner);
  if (!dst.alive) return std::nullopt;
  const nat::predicted_source src = predicted_source(from, to);
  if (dst.device != nullptr) {
    const auto private_dst =
        dst.device->would_accept(to, src.ip, src.port, sched_.now());
    if (!private_dst) return std::nullopt;
  } else if (to != dst.advertised) {
    return std::nullopt;
  }
  return owner;
}

const node_traffic& transport::traffic(node_id id) const {
  NYLON_EXPECTS(id < node_count_);
  return node_shards_[shard_of_node(id)].traffic[slot_of(id)];
}

void transport::reset_traffic() {
  for (node_shard& shard : node_shards_) {
    for (node_traffic& t : shard.traffic) t = node_traffic{};
  }
  for (counter_block& block : counters_) {
    for (std::uint64_t& b : block.by_kind) b = 0;
  }
}

std::uint64_t transport::bytes_by_kind(message_kind kind) const noexcept {
  std::uint64_t total = 0;
  for (const counter_block& block : counters_) {
    total += block.by_kind[static_cast<std::size_t>(kind)];
  }
  return total;
}

std::uint64_t transport::drops(drop_reason reason) const {
  std::uint64_t total = 0;
  for (const counter_block& block : counters_) {
    total += block.drops[static_cast<std::size_t>(reason)];
  }
  return total;
}

std::uint64_t transport::total_drops() const {
  std::uint64_t total = 0;
  for (const counter_block& block : counters_) {
    for (const std::uint64_t c : block.drops) total += c;
  }
  return total;
}

void transport::purge_nat_state() {
  const sim::sim_time now = sched_.now();
  for (node_shard& shard : node_shards_) {
    for (const auto& device : shard.device_owner) {
      if (device != nullptr) device->purge_expired(now);
    }
  }
}

}  // namespace nylon::net
