#include "gossip/peer.h"

#include "util/contracts.h"

namespace nylon::gossip {

peer::peer(net::transport& transport, util::rng& rng, protocol_config cfg)
    : transport_(transport), rng_(rng), cfg_(cfg), view_(cfg.view_size) {
  NYLON_EXPECTS(cfg.view_size > 0);
  NYLON_EXPECTS(cfg.shuffle_period > 0);
}

void peer::attach(net::node_id id) {
  NYLON_EXPECTS(self_.id == net::nil_node);
  self_ = node_descriptor{id, transport_.advertised_endpoint(id),
                          transport_.type_of(id)};
}

void peer::start(sim::sim_time first_shuffle) {
  NYLON_EXPECTS(self_.id != net::nil_node);
  NYLON_EXPECTS(state_ == lifecycle::idle);
  state_ = lifecycle::running;
  // The peer's own shard scheduler in shard mode (the universe scheduler
  // otherwise): a peer's timer chain must live where its events run.
  transport_.scheduler_for(self_.id)
      .every(first_shuffle, cfg_.shuffle_period, [this] {
        if (!running()) return false;
        initiate_shuffle();
        return running();
      });
}

void peer::refresh_self() {
  NYLON_EXPECTS(self_.id != net::nil_node);
  self_.addr = transport_.advertised_endpoint(self_.id);
  // NAT *type* migration changes this too; a plain rebind re-reads the
  // same value (no behavioural change there).
  self_.type = transport_.type_of(self_.id);
}

void peer::set_initial_view(std::vector<view_entry> seeds) {
  view_.assign(std::move(seeds), self_.id);
}

std::optional<node_descriptor> peer::sample() {
  if (view_.empty()) return std::nullopt;
  return view_.random(rng_).peer;
}

std::vector<node_descriptor> peer::known_peers() const {
  std::vector<node_descriptor> peers;
  peers.reserve(view_.size());
  for (const view_entry& e : view_.entries()) peers.push_back(e.peer);
  return peers;
}

void peer::on_datagram(const net::datagram& dgram) {
  // Every protocol payload reports a non-`other` wire kind, and only
  // gossip_message does so, which makes the downcast safe without the
  // dynamic_cast that used to run once per delivered packet.
  NYLON_EXPECTS(dgram.body->wire_kind() != net::message_kind::other);
  const auto* msg = static_cast<const gossip_message*>(dgram.body);
  handle_message(dgram, *msg);
}

const std::vector<view_entry>& peer::build_buffer() {
  buffer_scratch_.clear();
  buffer_scratch_.reserve(view_.size() + 1);
  buffer_scratch_.push_back(self_entry());
  for (const view_entry& e : view_.entries()) buffer_scratch_.push_back(e);
  decorate_buffer(buffer_scratch_);
  return buffer_scratch_;
}

void peer::decorate_buffer(std::vector<view_entry>& /*buffer*/) {}

view_entry peer::self_entry() const {
  return view_entry{self_, /*age=*/0, /*route_ttl=*/0};
}

}  // namespace nylon::gossip
