#include "runtime/scenario.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/nylon_peer.h"
#include "gossip/bootstrap.h"
#include "net/latency.h"
#include "obs/counters.h"
#include "util/contracts.h"
#include "wire/codec.h"

namespace nylon::runtime {

namespace {

std::unique_ptr<net::latency_model> make_latency(const experiment_config& cfg) {
  switch (cfg.latency_model) {
    case experiment_config::latency_kind::uniform:
      return std::make_unique<net::uniform_latency>(cfg.latency,
                                                    cfg.latency_max);
    case experiment_config::latency_kind::lognormal:
      return std::make_unique<net::lognormal_latency>(cfg.latency,
                                                      cfg.latency_sigma);
    case experiment_config::latency_kind::fixed:
      break;
  }
  return std::make_unique<net::fixed_latency>(cfg.latency);
}

/// Stream tag for per-peer rngs, far above the workload engine's
/// 0xD1CE____ phase streams so derived seeds never collide.
constexpr std::uint64_t peer_stream_base = std::uint64_t{1} << 32;

}  // namespace

scenario::scenario(const experiment_config& cfg) : cfg_(cfg), rng_(cfg.seed) {
  cfg_.validate();

  net::transport_config tcfg;
  tcfg.hole_timeout = cfg_.hole_timeout;
  tcfg.loss_rate = cfg_.loss_rate;
  std::unique_ptr<net::latency_model> latency = make_latency(cfg_);
  if (cfg_.shards > 0) {
    // Conservative window = the latency floor: every packet posted
    // during an epoch then lands at or after the epoch barrier.
    const sim::sim_time window = latency->min_delay();
    NYLON_EXPECTS(window >= 1);
    shards_ = std::make_unique<sim::shard_engine>(cfg_.shards, window);
  }
  transport_ = std::make_unique<net::transport>(sched_, rng_,
                                                std::move(latency), tcfg);
  if (shards_ != nullptr) transport_->set_shard_engine(shards_.get());
  switch (cfg_.transport) {
    case transport_kind::sim:
      break;
    case transport_kind::sim_frames:
      // Every datagram flies as its serialized frame, decoded right
      // before dispatch. Encode/decode happen outside all accounting
      // and rng draws, so digests stay byte-identical to plain sim
      // (pinned by tests/wire/frames_digest_test).
      transport_->set_codec(&wire::gossip_codec());
      break;
    case transport_kind::udp: {
      net::udp_backend::config ucfg;
      ucfg.time_scale = cfg_.udp_time_scale;
      udp_ = std::make_unique<net::udp_backend>(
          *transport_, sched_, wire::gossip_codec(), ucfg);
      transport_->set_backend(udp_.get());
      break;
    }
  }

  // Control-plane construction draws (type assignment, bootstrap, timer
  // phases) use the shared stream in both engines, so a sharded universe
  // starts from the exact initial state its serial sibling would.
  const std::vector<nat::nat_type> types =
      nat::assign_types(cfg_.peer_count, cfg_.natted_fraction, cfg_.mix, rng_);

  peers_.reserve(cfg_.peer_count);
  for (std::size_t i = 0; i < cfg_.peer_count; ++i) {
    const auto id = static_cast<net::node_id>(i);
    util::rng& peer_rng = shards_ != nullptr ? peer_rng_for(id) : rng_;
    auto p = core::make_peer(cfg_.protocol, *transport_, peer_rng,
                             cfg_.gossip);
    const net::node_id assigned =
        transport_->add_node(types[i], *p, peer_rng);
    NYLON_ENSURES(assigned == id);
    p->attach(id);
    peers_.push_back(std::move(p));
  }

  std::vector<gossip::peer*> raw;
  raw.reserve(peers_.size());
  for (const auto& p : peers_) raw.push_back(p.get());
  gossip::bootstrap_with_public_peers(raw, rng_);

  // Random phase within the first period so peers do not fire in
  // lockstep; afterwards every peer gossips exactly once per period.
  for (const auto& p : peers_) {
    const auto phase = static_cast<sim::sim_time>(rng_.uniform(
        0, static_cast<std::uint64_t>(cfg_.gossip.shuffle_period - 1)));
    p->start(phase);
  }

  // Periodic NAT garbage collection keeps device tables bounded. A
  // control-plane event in shard mode: it runs at an epoch barrier with
  // every shard parked.
  sched_.every(sim::seconds(30), sim::seconds(30),
               [this] { transport_->purge_nat_state(); });
}

util::rng& scenario::peer_rng_for(net::node_id id) {
  while (peer_rngs_.size() <= id) {
    peer_rngs_.emplace_back(util::derive_seed(
        cfg_.seed, peer_stream_base + peer_rngs_.size()));
  }
  return peer_rngs_[id];
}

// --- time --------------------------------------------------------------------

void scenario::run_periods(std::int64_t periods) {
  NYLON_EXPECTS(periods >= 0);
  run_until(sched_.now() + periods * cfg_.gossip.shuffle_period);
}

void scenario::run_until(sim::sim_time deadline,
                         sim::staged_actions* staged) {
  const sim::sim_time next_tick = next_sample_time();
  if (next_tick > deadline) {
    // No sampler due before the deadline: the plain engine dispatch,
    // byte-for-byte the pre-sampler behavior.
    run_until_plain(deadline, staged);
    obs::count_peak(obs::counter::sim_time_ms,
                    static_cast<std::uint64_t>(std::max<sim::sim_time>(
                        sched_.now(), 0)));
    return;
  }
  // Sampler ticks interleave by splitting run_until at the tick times.
  // run_until_plain(t) executes every event at or before t and then
  // advances the clock to exactly t, so the split is invisible to the
  // event stream — digests match the unsampled run byte-for-byte.
  for (;;) {
    const sim::sim_time target = std::min(deadline, next_sample_time());
    run_until_plain(target, staged);
    fire_samplers(target);
    if (target >= deadline) break;
  }
  obs::count_peak(obs::counter::sim_time_ms,
                  static_cast<std::uint64_t>(std::max<sim::sim_time>(
                      sched_.now(), 0)));
}

void scenario::run_until_plain(sim::sim_time deadline,
                               sim::staged_actions* staged) {
  if (shards_ == nullptr) {
    // Serial and real-socket engines: each staged action runs at its
    // exact time, after every event at or before it. In real-socket mode
    // the backend owns the clock (wall-paced), the sockets, and the
    // scheduler advance.
    const auto advance = [this](sim::sim_time t) {
      if (udp_ != nullptr) {
        udp_->run_until(t);
      } else {
        sched_.run_until(t);
      }
    };
    if (staged != nullptr) {
      for (sim::sim_time at = staged->next_time(); at < deadline;
           at = staged->next_time()) {
        advance(at);
        staged->run_next();
      }
    }
    advance(deadline);
    return;
  }
  NYLON_EXPECTS(deadline >= sched_.now());
  // Lockstep epochs, cut short at control-event times (NAT GC) so those
  // run at their exact timestamps — after every shard event at or before
  // them, like cut workload actions. Staged actions ride inside the
  // epochs and never pass a NAT GC instant.
  for (;;) {
    const sim::sim_time next_control = sched_.next_event_time();
    const sim::sim_time target = std::min(deadline, next_control);
    shards_->run_until(target, staged);
    sched_.run_until(target);
    if (target >= deadline) break;
  }
}

void scenario::set_sampler(std::size_t slot, sim::sim_time period,
                           std::function<void(sim::sim_time)> fn) {
  NYLON_EXPECTS(slot < sampler_slots);
  NYLON_EXPECTS(period > 0);
  NYLON_EXPECTS(fn != nullptr);
  samplers_[slot] =
      sampler_entry{period, sched_.now() + period, std::move(fn)};
}

void scenario::clear_sampler(std::size_t slot) noexcept {
  if (slot < sampler_slots) samplers_[slot] = sampler_entry{};
}

sim::sim_time scenario::next_sample_time() const noexcept {
  sim::sim_time next = sim::time_never;
  for (const sampler_entry& s : samplers_) {
    if (s.period > 0 && s.next < next) next = s.next;
  }
  return next;
}

void scenario::fire_samplers(sim::sim_time t) {
  for (sampler_entry& s : samplers_) {
    if (s.period > 0 && s.next <= t) {
      const sim::sim_time at = s.next;
      s.next += s.period;
      s.fn(at);  // observation-only: reads the parked world
    }
  }
}

std::uint64_t scenario::events_executed() const noexcept {
  std::uint64_t total = sched_.events_executed();
  if (shards_ != nullptr) total += shards_->events_executed();
  return total;
}

obs::epoch_profile scenario::shard_profile() const {
  return shards_ != nullptr ? shards_->profile() : obs::epoch_profile{};
}

gossip::peer& scenario::peer_at(net::node_id id) {
  NYLON_EXPECTS(id < peers_.size());
  return *peers_[id];
}

punch_stat_totals scenario::punch_totals() const {
  punch_stat_totals out;
  for (const auto& p : peers_) {
    const auto* np = dynamic_cast<const core::nylon_peer*>(p.get());
    if (np == nullptr) continue;
    out.started += np->nat_stats().punches_started;
    out.completed += np->nat_stats().punches_completed;
    out.expired += np->nat_stats().punches_expired;
    out.punch_chains.merge(np->nat_stats().punch_chain_hops);
    out.rvp_chains.merge(np->nat_stats().punch_chain_hops);
    out.rvp_chains.merge(np->nat_stats().relay_chain_hops);
  }
  return out;
}

std::size_t scenario::alive_count() const {
  return transport_->alive_count();
}

std::vector<net::node_id> scenario::alive_ids() const {
  // Merge the transport's per-class alive lists (both id-ascending) so the
  // result keeps the id order the old full scan produced.
  const std::span<const net::node_id> pub = transport_->alive_public();
  const std::span<const net::node_id> nat = transport_->alive_natted();
  std::vector<net::node_id> out;
  out.reserve(pub.size() + nat.size());
  std::merge(pub.begin(), pub.end(), nat.begin(), nat.end(),
             std::back_inserter(out));
  return out;
}

void scenario::set_nat_distribution(double natted_fraction,
                                    const nat::nat_mix& mix) {
  NYLON_EXPECTS(natted_fraction >= 0.0 && natted_fraction <= 1.0);
  cfg_.natted_fraction = natted_fraction;
  cfg_.mix = mix;
}

std::size_t scenario::partition_fraction(double fraction) {
  NYLON_EXPECTS(fraction >= 0.0 && fraction <= 1.0);
  const std::vector<net::node_id> alive = alive_ids();
  const auto take = static_cast<std::size_t>(
      std::lround(fraction * static_cast<double>(alive.size())));
  std::vector<std::uint8_t> side(peers_.size(), 0);
  const std::vector<std::size_t> picks = rng_.sample_indices(alive.size(), take);
  for (const std::size_t k : picks) side[alive[k]] = 1;
  transport_->set_partition(std::move(side));
  return take;
}

void scenario::heal_partition() { transport_->clear_partition(); }

std::size_t scenario::upheave_natted_fraction(
    double fraction, const std::function<void(net::node_id)>& upheave) {
  NYLON_EXPECTS(fraction >= 0.0 && fraction <= 1.0);
  const std::span<const net::node_id> alive = transport_->alive_natted();
  const std::vector<net::node_id> natted(alive.begin(), alive.end());
  const auto take = static_cast<std::size_t>(
      std::lround(fraction * static_cast<double>(natted.size())));
  const std::vector<std::size_t> picks =
      rng_.sample_indices(natted.size(), take);
  for (const std::size_t k : picks) {
    const net::node_id id = natted[k];
    upheave(id);
    peers_[id]->refresh_self();
  }
  return take;
}

std::size_t scenario::rebind_fraction(double fraction) {
  return upheave_natted_fraction(
      fraction, [this](net::node_id id) { transport_->rebind_nat(id); });
}

std::size_t scenario::migrate_fraction(double fraction,
                                       const nat::nat_mix& to_mix) {
  return upheave_natted_fraction(fraction, [this, &to_mix](net::node_id id) {
    transport_->migrate_nat(id, nat::draw_type(to_mix, rng_));
  });
}

bool scenario::depart_peer_at(net::node_id id, sim::sim_time at) {
  NYLON_EXPECTS(id < peers_.size());
  NYLON_EXPECTS(at >= sched_.now());
  if (!transport_->delist_node(id)) return false;  // already gone
  gossip::peer& p = *peers_[id];
  const bool joined_at_this_instant =
      at == join_instant_ && id >= join_instant_first_;
  if (shards_ != nullptr && at > shards_->now() && !joined_at_this_instant) {
    // Staged ahead of its time: stop the peer on its own shard, after
    // every peer event of its millisecond.
    const std::size_t shard = transport_->shard_of_node(id);
    shards_->post(shard, shard, at, sim::control_order, id,
                  [this, &p] { stop_peer(p); });
  } else {
    // Serial, at the barrier instant, or a joiner that has run nothing.
    stop_peer(p);
  }
  return true;
}

void scenario::stop_peer(gossip::peer& p) {
  p.stop();
  transport_->mark_dead(p.id());
}

net::node_id scenario::add_peer_at(sim::sim_time at,
                                   std::optional<nat::nat_type> type) {
  NYLON_EXPECTS(at >= sched_.now());
  const nat::nat_type chosen = type.has_value()
                                   ? *type
                                   : nat::assign_types(1, cfg_.natted_fraction,
                                                       cfg_.mix, rng_)[0];
  const auto id = static_cast<net::node_id>(peers_.size());
  util::rng& peer_rng = shards_ != nullptr ? peer_rng_for(id) : rng_;
  auto p = core::make_peer(cfg_.protocol, *transport_, peer_rng, cfg_.gossip);
  const net::node_id assigned = transport_->add_node(chosen, *p, peer_rng);
  NYLON_ENSURES(assigned == id);
  p->attach(id);

  // Bootstrap with up to view_size alive public peers (fallback: any
  // alive peer), like the initial §5 bootstrap but against the current
  // population. The transport's alive lists already include the joiner
  // itself (add_node above); as the freshest id it sits at its list's
  // tail, so excluding it — the old scan stopped before it — is a pop.
  std::vector<gossip::view_entry> seeds;
  const auto without_self = [id](std::span<const net::node_id> list) {
    if (!list.empty() && list.back() == id) list = list.first(list.size() - 1);
    return list;
  };
  const std::span<const net::node_id> pub =
      without_self(transport_->alive_public());
  std::vector<net::node_id> candidates(pub.begin(), pub.end());
  if (candidates.empty()) {
    const std::span<const net::node_id> nat =
        without_self(transport_->alive_natted());
    std::merge(pub.begin(), pub.end(), nat.begin(), nat.end(),
               std::back_inserter(candidates));
  }
  const std::vector<std::size_t> picks = rng_.sample_indices(
      candidates.size(),
      std::min(candidates.size(), cfg_.gossip.view_size));
  for (const std::size_t k : picks) {
    seeds.push_back(
        gossip::view_entry{peers_[candidates[k]]->self(), 0, 0});
  }
  p->set_initial_view(std::move(seeds));

  const auto phase = static_cast<sim::sim_time>(rng_.uniform(
      0, static_cast<std::uint64_t>(cfg_.gossip.shuffle_period - 1)));
  p->start(at + phase);
  peers_.push_back(std::move(p));
  if (at != join_instant_) {
    join_instant_ = at;
    join_instant_first_ = id;
  }
  return id;
}

std::size_t scenario::remove_fraction(double fraction) {
  NYLON_EXPECTS(fraction >= 0.0 && fraction <= 1.0);
  // Snapshots: remove_peer mutates the transport's lists mid-loop.
  const std::span<const net::node_id> pub = transport_->alive_public();
  const std::span<const net::node_id> nat = transport_->alive_natted();
  std::vector<net::node_id> alive_public(pub.begin(), pub.end());
  std::vector<net::node_id> alive_natted(nat.begin(), nat.end());
  // Proportional removal across the two classes (Fig. 10's setup).
  std::size_t removed = 0;
  for (auto* group : {&alive_public, &alive_natted}) {
    const auto take = static_cast<std::size_t>(
        std::lround(fraction * static_cast<double>(group->size())));
    const std::vector<std::size_t> picks =
        rng_.sample_indices(group->size(), take);
    for (const std::size_t k : picks) {
      remove_peer((*group)[k]);
      ++removed;
    }
  }
  return removed;
}

std::uint64_t scenario::state_digest() const {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (i * 8)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const auto id = static_cast<net::node_id>(i);
    const gossip::peer& p = *peers_[i];
    mix(transport_->alive(id) ? 1 : 0);
    mix(static_cast<std::uint64_t>(transport_->type_of(id)));
    const net::endpoint adv = transport_->advertised_endpoint(id);
    mix(adv.ip.value);
    mix(adv.port);
    for (const gossip::view_entry& e : p.current_view().entries()) {
      mix(e.peer.id);
      mix(e.peer.addr.ip.value);
      mix(e.peer.addr.port);
      mix(static_cast<std::uint64_t>(e.peer.type));
      mix(static_cast<std::uint64_t>(e.age));
      mix(static_cast<std::uint64_t>(e.route_ttl));
    }
    const gossip::shuffle_stats& s = p.stats();
    mix(s.initiated);
    mix(s.requests_received);
    mix(s.responses_received);
    mix(s.messages_forwarded);
    const net::node_traffic& t = transport_->traffic(id);
    mix(t.bytes_sent);
    mix(t.bytes_received);
    mix(t.msgs_sent);
    mix(t.msgs_received);
  }
  for (std::size_t r = 0;
       r < static_cast<std::size_t>(net::drop_reason::count_); ++r) {
    mix(transport_->drops(static_cast<net::drop_reason>(r)));
  }
  for (std::size_t k = 0;
       k < static_cast<std::size_t>(net::message_kind::count_); ++k) {
    mix(transport_->bytes_by_kind(static_cast<net::message_kind>(k)));
  }
  mix(events_executed());
  return hash;
}

metrics::reachability_oracle scenario::oracle() const {
  return metrics::reachability_oracle(*transport_, peers_);
}

}  // namespace nylon::runtime
