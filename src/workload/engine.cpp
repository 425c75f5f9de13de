#include "workload/engine.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/trace.h"
#include "util/contracts.h"

namespace nylon::workload {

engine::engine(runtime::scenario& world, program prog, engine_options opt)
    : world_(world), program_(std::move(prog)), opt_(opt) {
  NYLON_EXPECTS(!program_.empty());
  phase_rngs_.resize(program_.phases().size());
}

engine::~engine() {
  world_.clear_sampler(runtime::scenario::sampler_workload);
}

const snapshot& engine::final() const {
  NYLON_EXPECTS(!trajectory_.empty());
  return trajectory_.back();
}

void engine::push_action(sim::sim_time at, timing kind,
                         std::function<void(sim::sim_time)> fn) {
  (kind == timing::staged ? staged_ : cut_)
      .push(action{at, next_seq_++, std::move(fn)});
}

util::rng& engine::phase_rng(std::size_t index, const phase& p) {
  auto& slot = phase_rngs_[index];
  if (!slot) {
    const std::uint64_t seed =
        p.rng_seed.has_value()
            ? *p.rng_seed
            : util::derive_seed(world_.config().seed, 0xD1CE0000u + index);
    slot = std::make_unique<util::rng>(seed);
  }
  return *slot;
}

void engine::do_join(sim::sim_time at) {
  world_.add_peer_at(at);
  ++joined_;
}

void engine::do_depart(net::node_id id, sim::sim_time at) {
  // False when already gone (a mass departure, say).
  if (world_.depart_peer_at(id, at)) ++departed_;
}

void engine::compile_phase(std::size_t index, const phase& p,
                           sim::sim_time start, sim::sim_time end) {
  switch (p.kind) {
    case phase_kind::steady:
      break;

    case phase_kind::grow: {
      // Evenly spaced joins across the window, first at phase start.
      const sim::sim_time step =
          p.duration / static_cast<sim::sim_time>(p.count);
      for (std::size_t i = 0; i < p.count; ++i) {
        push_action(start + static_cast<sim::sim_time>(i) * step,
                    timing::staged, [this](sim::sim_time at) { do_join(at); });
      }
      break;
    }

    case phase_kind::flash_crowd:
      for (std::size_t i = 0; i < p.count; ++i) {
        push_action(start, timing::staged,
                    [this](sim::sim_time at) { do_join(at); });
      }
      break;

    case phase_kind::mass_departure:
      push_action(start, timing::cut,
                  [this, fraction = p.fraction](sim::sim_time) {
                    departed_ += world_.remove_fraction(fraction);
                  });
      break;

    case phase_kind::poisson_churn: {
      util::rng& rng = phase_rng(index, p);
      // Self-perpetuating arrival chain: each arrival schedules the next
      // one (while inside the window) plus its own departure, which may
      // fire in a later phase.
      const double mean_gap_ms = 1000.0 / p.arrivals_per_sec;
      // The chain closure is owned by the engine (not by its own capture
      // list — that would be a shared_ptr cycle); raw pointers into
      // `poisson_chains_` stay valid for the whole run.
      auto arrive = std::make_unique<std::function<void(sim::sim_time)>>();
      auto* fn = arrive.get();
      // Arrivals and departures are staged actions, and so is every
      // action they queue: staging never meets a cut it has passed.
      *fn = [this, &rng, session = p.session, mean_gap_ms, end,
             fn](sim::sim_time at) {
        const net::node_id id = world_.add_peer_at(at);
        ++joined_;
        push_action(at + session.sample(rng), timing::staged,
                    [this, id](sim::sim_time leave) { do_depart(id, leave); });
        const auto gap = std::max<sim::sim_time>(
            1, std::llround(-mean_gap_ms * std::log(1.0 - rng.uniform01())));
        if (at + gap < end) {
          push_action(at + gap, timing::staged,
                      [fn](sim::sim_time next) { (*fn)(next); });
        }
      };
      const auto first_gap = std::max<sim::sim_time>(
          1, std::llround(-mean_gap_ms * std::log(1.0 - rng.uniform01())));
      if (start + first_gap < end) {
        push_action(start + first_gap, timing::staged,
                    [fn](sim::sim_time at) { (*fn)(at); });
      }
      poisson_chains_.push_back(std::move(arrive));
      break;
    }

    case phase_kind::turnover: {
      util::rng& rng = phase_rng(index, p);
      for (sim::sim_time t = start; t < end; t += p.tick) {
        push_action(t, timing::cut,
                    [this, &rng, per_tick = p.count](sim::sim_time at) {
          // Draw victims with replacement from one alive-list snapshot
          // (duplicate removals are harmless no-ops), then refill.
          const std::vector<net::node_id> alive = world_.alive_ids();
          if (alive.empty()) return;
          for (std::size_t k = 0; k < per_tick; ++k) {
            do_depart(alive[rng.index(alive.size())], at);
          }
          for (std::size_t k = 0; k < per_tick; ++k) do_join(at);
        });
      }
      break;
    }

    case phase_kind::partition:
      push_action(start, timing::cut,
                  [this, fraction = p.fraction](sim::sim_time) {
                    world_.partition_fraction(fraction);
                  });
      break;

    case phase_kind::heal:
      push_action(start, timing::cut,
                  [this](sim::sim_time) { world_.heal_partition(); });
      break;

    case phase_kind::nat_redistribution:
      push_action(
          start, timing::cut,
          [this, natted = p.natted_fraction, mix = *p.mix](sim::sim_time) {
            world_.set_nat_distribution(natted, mix);
          });
      break;

    case phase_kind::nat_rebind:
      push_action(start, timing::cut,
                  [this, fraction = p.fraction](sim::sim_time) {
                    world_.rebind_fraction(fraction);
                  });
      break;

    case phase_kind::nat_migration:
      push_action(start, timing::cut,
                  [this, fraction = p.fraction, mix = *p.mix](sim::sim_time) {
                    world_.migrate_fraction(fraction, mix);
                  });
      break;
  }
}

void engine::drain_until(sim::sim_time until) {
  for (const action_queue* q = next_queue();
       q != nullptr && q->top().at <= until; q = next_queue()) {
    // Run to the next cut action (or the bound); the staged actions
    // before it ride inside the run.
    const sim::sim_time at =
        cut_.empty() ? until : std::min(until, cut_.top().at);
    NYLON_ENSURES(at >= world_.scheduler().now());
    // Advance first, pop after: a sampler tick landing exactly on `at`
    // fires inside run_until and drains the actions itself (so its
    // snapshot sees them applied); the queues must still hold them.
    world_.run_until(at, this);
    run_due_actions(at);
  }
  // The last run usually reached `until` already; run again only if the
  // actions at `until` left something due there.
  if (!world_.idle_through(until)) world_.run_until(until);
}

engine::action_queue* engine::next_queue() noexcept {
  if (staged_.empty()) return cut_.empty() ? nullptr : &cut_;
  if (cut_.empty()) return &staged_;
  return later{}(staged_.top(), cut_.top()) ? &cut_ : &staged_;
}

void engine::run_top(action_queue& queue) {
  // priority_queue::top is const; the action is copied out so fn can
  // push further actions while it runs.
  action next = queue.top();
  queue.pop();
  next.fn(next.at);
}

void engine::run_due_actions(sim::sim_time now) {
  for (action_queue* q = next_queue(); q != nullptr && q->top().at <= now;
       q = next_queue()) {
    NYLON_ENSURES(q->top().at == now);
    run_top(*q);
  }
}

sim::sim_time engine::next_time() const {
  return staged_.empty() ? sim::time_never : staged_.top().at;
}

void engine::run_next() { run_top(staged_); }

void engine::take_snapshot(std::size_t phase_index, const std::string& label) {
  snapshot s;
  s.phase_index = phase_index;
  s.phase = label;
  s.at = world_.scheduler().now();
  s.alive = world_.alive_count();
  s.joined = joined_;
  s.departed = departed_;
  if (opt_.measure) {
    const metrics::reachability_oracle oracle = world_.oracle();
    s.clusters =
        metrics::measure_clusters(world_.transport(), world_.peers(), oracle);
    s.views =
        metrics::measure_views(world_.transport(), world_.peers(), oracle);
  }
  trajectory_.push_back(s);
}

void engine::run() {
  sim::sim_time t = world_.scheduler().now();
  if (const auto& init = program_.initial_sessions()) {
    // Session-length-driven departures for the initial population: one
    // draw per alive peer, in id order, from a dedicated stream so the
    // schedule is a pure function of (scenario seed, distribution).
    // Departures drawn beyond the program's end simply never fire.
    util::rng rng(init->rng_seed.has_value()
                      ? *init->rng_seed
                      : util::derive_seed(world_.config().seed, 0xD1CE5E55u));
    for (const net::node_id id : world_.alive_ids()) {
      push_action(t + init->session.sample(rng), timing::staged,
                  [this, id](sim::sim_time at) { do_depart(id, at); });
    }
  }
  for (std::size_t i = 0; i < program_.phases().size(); ++i) {
    const phase& p = program_.phases()[i];
    // One span per workload phase (name interned; built only while a
    // trace is recording — this is once-per-phase control-plane code).
    const obs::trace_span span(
        obs::trace_enabled() ? std::string_view("phase:" + p.label)
                             : std::string_view{});
    const sim::sim_time start = t;
    const sim::sim_time end = start + p.duration;
    compile_phase(i, p, start, end);

    if (opt_.sample_interval > 0 && p.duration > 0) {
      // Phase-start sample (the old loop's s == start iteration), then
      // mid-phase ticks ride the scenario's workload sampler slot — the
      // one time-series path shared with the obs health timeline. The
      // tick drains due actions before snapshotting, so a sample at
      // time t still sees every action at or before t applied.
      drain_until(start);
      take_snapshot(i, p.label);
      cur_phase_ = i;
      cur_label_ = p.label;
      sampling_until_ = end;  // the old loop stopped at s < end
      world_.set_sampler(
          runtime::scenario::sampler_workload, opt_.sample_interval,
          [this](sim::sim_time at) {
            run_due_actions(at);
            if (at < sampling_until_) take_snapshot(cur_phase_, cur_label_);
          });
    } else {
      world_.clear_sampler(runtime::scenario::sampler_workload);
    }
    drain_until(end);
    take_snapshot(i, p.label);
    t = end;
  }
  world_.clear_sampler(runtime::scenario::sampler_workload);
}

}  // namespace nylon::workload
