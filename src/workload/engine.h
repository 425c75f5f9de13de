// Executes a workload::program against a runtime::scenario: compiles each
// phase into timed actions (peer joins, fail-stops, partitions, NAT
// re-bindings) and interleaves them with the simulation, taking metric
// snapshots along the way.
//
// Ordering contract: an action at time t acts as if it ran after *every*
// simulation event with timestamp <= t — exactly like the hand-rolled
// `run_periods(...); mutate(); run_periods(...)` loops this engine
// replaces, so ported benches measure bit-identical numbers. Actions at
// one time run in the order they were queued.
//
// Two kinds of action keep that contract differently:
//  * cut actions (turnover, mass departure, partition / heal, NAT
//    rebind / migration / redistribution) stop the world at t and run
//    there — on the sharded engine, an epoch ends at t;
//  * staged actions (joins, and the departure of one peer) ride inside
//    scenario::run_until: the sharded engine applies them at the barrier
//    opening the epoch that holds t (see scenario::add_peer_at and
//    depart_peer_at for why that equals running at t), the serial
//    engines at t itself. Staging never passes the next cut action, the
//    drain bound or a sampler tick; actions at those times run after
//    the world parks there, in queue order with the cut ones.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "metrics/graph_analysis.h"
#include "runtime/scenario.h"
#include "workload/program.h"

namespace nylon::workload {

/// One observation of the deployment, taken between simulation events.
struct snapshot {
  std::size_t phase_index = 0;
  std::string phase;        ///< label of the phase that was active
  sim::sim_time at = 0;     ///< simulated time of the observation
  std::size_t alive = 0;
  std::size_t joined = 0;   ///< cumulative engine-driven joins so far
  std::size_t departed = 0; ///< cumulative engine-driven departures so far
  metrics::cluster_metrics clusters;  ///< zeroed when measuring is off
  metrics::view_metrics views;        ///< zeroed when measuring is off
};

/// The engine always snapshots when each phase's window closes.
struct engine_options {
  /// > 0: also sample every `sample_interval` of simulated time inside
  /// phases with a duration (trajectories for BENCH_*.json). Mid-phase
  /// samples ride scenario::sampler_workload — the same tick machinery
  /// as the obs health timeline — so sampling never creates scheduler
  /// events and digests match the unsampled run.
  sim::sim_time sample_interval = 0;
  /// Collect cluster / view metrics in snapshots. Turning it off makes
  /// snapshots population-counters only (cheap for huge runs).
  bool measure = true;
};

class engine : private sim::staged_actions {
 public:
  /// The scenario must outlive the engine. The program starts at the
  /// scenario's current simulated time, so it can follow manual warm-up.
  engine(runtime::scenario& world, program prog, engine_options opt = {});

  /// Uninstalls the engine's trajectory sampler from the scenario (the
  /// callback captures `this`, so it must not outlive the engine).
  ~engine();

  /// Runs the whole program to completion.
  void run();

  /// Every snapshot taken, in time order.
  [[nodiscard]] const std::vector<snapshot>& trajectory() const noexcept {
    return trajectory_;
  }
  /// The last snapshot taken. Requires at least one.
  [[nodiscard]] const snapshot& final() const;

  [[nodiscard]] std::size_t joined() const noexcept { return joined_; }
  [[nodiscard]] std::size_t departed() const noexcept { return departed_; }

 private:
  struct action {
    sim::sim_time at = 0;
    std::uint64_t seq = 0;  ///< FIFO among same-time actions
    std::function<void(sim::sim_time)> fn;  ///< called with `at`
  };
  struct later {
    bool operator()(const action& a, const action& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  using action_queue =
      std::priority_queue<action, std::vector<action>, later>;
  enum class timing { cut, staged };

  void push_action(sim::sim_time at, timing kind,
                   std::function<void(sim::sim_time)> fn);
  /// Installs a phase's actions / immediate effects at its start time.
  void compile_phase(std::size_t index, const phase& p, sim::sim_time start,
                     sim::sim_time end);
  /// Runs simulation + queued actions up to and including time `until`;
  /// each action runs after every simulation event at or before its time.
  void drain_until(sim::sim_time until);
  /// Pops and runs every queued action due at `now` (the world is
  /// already parked at `now`; earlier ones ran at their own times), in
  /// queue order across both kinds. Shared by drain_until and the
  /// trajectory sampler tick, so a snapshot at time t always sees
  /// actions at t applied first — the ordering contract above.
  void run_due_actions(sim::sim_time now);
  /// The queue holding the earliest action in (at, seq) order; null when
  /// both are empty.
  [[nodiscard]] action_queue* next_queue() noexcept;
  static void run_top(action_queue& queue);

  // sim::staged_actions, handed to scenario::run_until.
  [[nodiscard]] sim::sim_time next_time() const override;
  void run_next() override;
  void take_snapshot(std::size_t phase_index, const std::string& label);
  util::rng& phase_rng(std::size_t index, const phase& p);

  void do_join(sim::sim_time at);
  void do_depart(net::node_id id, sim::sim_time at);

  runtime::scenario& world_;
  program program_;
  engine_options opt_;
  action_queue cut_;
  action_queue staged_;
  std::uint64_t next_seq_ = 0;
  // One dedicated stream per phase, lazily created; kept alive for the
  // whole run because Poisson departures outlive their phase.
  std::vector<std::unique_ptr<util::rng>> phase_rngs_;
  // Poisson arrival chains: each phase's arrival closure re-schedules
  // itself, so the engine owns it for the whole run.
  std::vector<std::unique_ptr<std::function<void(sim::sim_time)>>>
      poisson_chains_;
  std::vector<snapshot> trajectory_;
  std::size_t joined_ = 0;
  std::size_t departed_ = 0;
  // Live context for the trajectory sampler callback: the phase being
  // sampled and its window end (the old loop sampled at s < end; the
  // phase-end snapshot is taken explicitly).
  std::size_t cur_phase_ = 0;
  std::string cur_label_;
  sim::sim_time sampling_until_ = 0;
};

}  // namespace nylon::workload
