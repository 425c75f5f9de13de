// The benchmark harness behind bench/suite/run.py. It builds every
// workload through the library's public API (runtime::scenario,
// workload::program / engine, runtime::load_spec_file / run_spec,
// metrics::measure_clusters, and the obs counters, shard profile and
// trace) and times those calls from outside: nothing inside the library
// is instrumented for it, and no config knob is touched except
// peer_count, gossip.view_size, seed and shards.
//
//   bench_suite --workload churn20k_k4 --seed 1 --seconds 10 [--trace]
//   bench_suite --workload churn20k_k4 --seed 1 --setup-only
//   bench_suite --replays --seed 1
//
// A measured run repeats one fixed *unit* of work until --seconds of host
// time have passed (at least one unit; two with --trace) and checks every
// unit: a churn unit is a fresh universe driven through the churn program
// and measured, a figure unit is one pass over the four figure specs.
// Units of one seed are the same simulation, so their digests must match.
// With --trace every second unit records spans, and the per-layer ledger
// is averaged over those; the untraced units give the trace overhead.
// The first universe built in a fresh process is the cold set-up sample;
// --setup-only builds just that and exits, so the caller can take more.
//
// The result is one JSON line on stdout; progress goes to stderr.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/routing_table.h"
#include "gossip/messages.h"
#include "gossip/view.h"
#include "metrics/graph_analysis.h"
#include "metrics/probe.h"
#include "nat/nat_device.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/experiment_config.h"
#include "runtime/scenario.h"
#include "runtime/spec.h"
#include "sim/event_queue.h"
#include "sim/shard_channel.h"
#include "sim/spin_barrier.h"
#include "util/flags.h"
#include "util/flat_hash.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/wall_timer.h"
#include "workload/engine.h"
#include "workload/program.h"

#ifndef NYLON_BENCH_BUILD_TYPE
#define NYLON_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace nylon;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;  ///< small sizes: checks that every metric prints
};

// ---- workload shapes --------------------------------------------------------

/// churn20k_*: the scale bench's churn program (paper NAT mix, Nylon,
/// view 15), shortened so one unit takes seconds on the serial engine.
/// Churn is on a sim-time schedule, so a unit is a fixed input.
constexpr std::size_t churn_peers = 20000;
constexpr std::size_t churn_peers_quick = 2000;
constexpr std::size_t churn_view = 15;
constexpr std::int64_t churn_warmup_periods = 4;
constexpr double churn_rebind_fraction = 0.1;
constexpr std::int64_t churn_periods = 8;
constexpr double churn_arrivals_per_s = 50.0;
constexpr std::int64_t churn_session_mean_periods = 20;
constexpr std::int64_t churn_tail_periods = 2;
constexpr double churn_min_cluster_pct = 99.0;
/// Spans per shard per unit are ~4 per epoch; this leaves wide headroom.
constexpr std::size_t churn_trace_capacity = std::size_t{1} << 17;

/// paper_figs: four figure specs at reduced scale, 4 seeds on 4 runner
/// threads, default engine.
constexpr std::array<const char*, 4> figure_specs = {
    "fig2_partition", "fig10_churn", "sec5_correctness", "table1_traversal"};
constexpr std::size_t figs_peers = 600;
constexpr std::size_t figs_peers_quick = 120;
constexpr int figs_rounds = 10;
constexpr int figs_seeds = 4;
constexpr int figs_threads = 4;
/// Runner threads are short-lived and record a handful of spans each.
constexpr std::size_t figs_trace_capacity = std::size_t{1} << 10;

/// The one statistical check among the figure specs' checks.
constexpr const char* statistical_check = "check_sampling_random";

/// Probes that evaluate metrics::measure_clusters (metrics.clusters_s).
constexpr std::array<const char*, 5> cluster_probes = {
    "biggest_cluster_pct", "check_connected", "cluster_count",
    "isolated_count", "mean_usable_out_degree"};

runtime::experiment_config churn_config(const options& o) {
  runtime::experiment_config cfg;
  cfg.peer_count = o.quick ? churn_peers_quick : churn_peers;
  cfg.gossip.view_size = churn_view;
  cfg.seed = o.seed;
  // churn20k_default leaves the engine at the config's default.
  if (o.workload == "churn20k_k1") cfg.shards = 1;
  if (o.workload == "churn20k_k4") cfg.shards = 4;
  return cfg;
}

workload::program churn_program(sim::sim_time period) {
  workload::session_distribution sessions;
  sessions.k = workload::session_distribution::kind::pareto;
  sessions.mean = churn_session_mean_periods * period;
  return workload::program{}
      .then(workload::steady(churn_warmup_periods * period))
      .then(workload::nat_rebind(churn_rebind_fraction))
      .then(workload::poisson_churn(churn_periods * period,
                                    churn_arrivals_per_s, sessions))
      .then(workload::steady(churn_tail_periods * period));
}

runtime::spec_options figs_options(const options& o) {
  runtime::spec_options opt;
  opt.peers = o.quick ? figs_peers_quick : figs_peers;
  opt.seeds = figs_seeds;
  opt.rounds = figs_rounds;
  opt.threads = figs_threads;
  opt.seed = o.seed;
  return opt;
}

// ---- measurement helpers ----------------------------------------------------

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t fnv_offset = 0xcbf29ce484222325ULL;

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Median (0 for an empty sample).
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

/// Host seconds and count per span name, summed over every thread.
struct span_total {
  double s = 0.0;
  std::uint64_t count = 0;
};
using span_totals = std::map<std::string, span_total>;

span_totals collect_spans() {
  span_totals out;
  const util::json doc = obs::trace_to_json();
  for (const util::json& ev : doc.at("traceEvents").array_items()) {
    if (ev.at("ph").as_string() != "X") continue;
    span_total& t = out[ev.at("name").as_string()];
    t.s += ev.at("dur").as_double() * 1e-6;
    ++t.count;
  }
  return out;
}

double span_s(const span_totals& spans, const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.s;
}

/// workload.phase_s and the share of it each phase kind took.
void add_phase_layers(const span_totals& spans,
                      std::map<std::string, double>& layers) {
  double total = 0.0;
  for (const auto& [name, t] : spans) {
    if (name.rfind("phase:", 0) == 0) total += t.s;
  }
  layers["workload.phase_s"] = total;
  for (const char* kind : {"steady", "nat_rebind", "poisson_churn"}) {
    layers[std::string("workload.phase.") + kind + "_pct"] =
        pct(span_s(spans, std::string("phase:") + kind), total);
  }
}

/// Layer values every workload reads off the obs counters.
void add_counter_layers(const obs::counter_snapshot& c, std::uint64_t events,
                        std::map<std::string, double>& layers) {
  using obs::counter;
  const auto ev = static_cast<double>(events);
  const auto msgs = static_cast<double>(c.messages_total());
  layers["sim.events"] = ev;
  layers["sim.queue_peak_depth"] =
      static_cast<double>(c[counter::queue_peak_depth]);
  layers["sim.pool_reuse_pct"] =
      pct(static_cast<double>(c[counter::pool_event_reuses]),
          static_cast<double>(c[counter::pool_event_reuses] +
                              c[counter::pool_event_allocs]));
  layers["sim.drain_bytes_peak"] =
      static_cast<double>(c[counter::drain_bytes_peak]);
  layers["net.msgs_per_event"] = ev > 0 ? msgs / ev : 0.0;
  layers["net.open_hole_pct"] =
      pct(static_cast<double>(c[counter::msg_open_hole]), msgs);
  layers["net.arena_bytes_peak"] =
      static_cast<double>(c[counter::arena_bytes_peak]);
  layers["nat.table_peak"] = static_cast<double>(c[counter::nat_table_peak]);
  layers["core.route_table_peak"] =
      static_cast<double>(c[counter::route_table_peak]);
  layers["util.hash_probes_per_event"] =
      ev > 0 ? static_cast<double>(c[counter::hash_probes]) / ev : 0.0;
  layers["util.hash_rehashes"] = static_cast<double>(c[counter::hash_rehashes]);
  layers["workload.joined"] = static_cast<double>(c[counter::nodes_added]);
  layers["workload.departed"] = static_cast<double>(c[counter::nodes_removed]);
}

/// One repetition of a workload's unit of work.
struct unit_result {
  bool traced = false;
  double run_s = 0.0;  ///< the host time events_per_s divides by
  std::uint64_t events = 0;
  std::string digest;  ///< must repeat across the units of one seed
  std::vector<std::string> failures;
  std::map<std::string, double> layers;  ///< filled on traced units

  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// ---- churn20k_* -------------------------------------------------------------

/// One fresh universe driven through the churn program. `measure` adds
/// the connectivity check: the first unit and traced units take it, later
/// ones only need their digest to match the first unit's to pass it too.
unit_result churn_unit(const options& o, bool traced, bool measure,
                       double* build_s) {
  unit_result u;
  u.traced = traced;
  const runtime::experiment_config cfg = churn_config(o);
  const util::wall_timer t_cell;
  util::wall_timer t;
  runtime::scenario world(cfg);
  *build_s = t.seconds();

  obs::reset_counters();
  if (traced) obs::start_trace(churn_trace_capacity);
  workload::engine_options eopt;
  eopt.measure = false;  // population counters only; measured once below
  workload::engine eng(world, churn_program(cfg.gossip.shuffle_period), eopt);
  t.reset();
  eng.run();
  u.run_s = t.seconds();
  obs::stop_trace();
  const std::size_t dropped = obs::trace_statistics().dropped;
  u.events = world.events_executed();
  const obs::counter_snapshot c = obs::read_counters();
  const obs::epoch_profile prof = world.shard_profile();

  double oracle_s = 0.0;
  double clusters_s = 0.0;
  if (measure) {
    t.reset();
    const metrics::reachability_oracle oracle = world.oracle();
    oracle_s = t.seconds();
    t.reset();
    const metrics::cluster_metrics clusters =
        metrics::measure_clusters(world.transport(), world.peers(), oracle);
    clusters_s = t.seconds();
    u.expect(clusters.biggest_cluster_pct >= churn_min_cluster_pct,
             "biggest_cluster_pct " +
                 std::to_string(clusters.biggest_cluster_pct) + " < 99");
  }
  const std::size_t alive = world.alive_count();
  u.digest = hex(world.state_digest());
  const double cell_s = t_cell.seconds();

  u.expect(alive == cfg.peer_count + eng.joined() - eng.departed(),
           "alive " + std::to_string(alive) + " != n + joined - departed");
  u.expect(c[obs::counter::nodes_added] == eng.joined() &&
               c[obs::counter::nodes_removed] == eng.departed(),
           "transport join/depart counters disagree with the engine");
  if (!traced) return u;

  u.expect(dropped == 0, "trace rings wrapped: " + std::to_string(dropped) +
                             " spans dropped");
  const span_totals spans = collect_spans();
  auto& L = u.layers;
  L["obs.trace_dropped"] = static_cast<double>(dropped);
  L["runtime.cells"] = 1.0;
  L["runtime.cell_s_mean"] = cell_s;
  L["runtime.seed_busy_pct"] = 0.0;
  add_phase_layers(spans, L);
  add_counter_layers(c, u.events, L);
  L["sim.epochs"] = static_cast<double>(prof.epochs);
  L["sim.events_per_epoch"] = prof.events_per_epoch;
  L["sim.epoch_width_ms_mean"] = prof.epoch_width_ms_mean;
  // Shard time from the engine's own spans: "epoch" is K=1's inline
  // epoch (run + drain, no barriers); K>1 splits it four ways.
  const double run = span_s(spans, "epoch:run") + span_s(spans, "epoch");
  const double drain = span_s(spans, "epoch:drain");
  const double barrier =
      span_s(spans, "barrier:mid") + span_s(spans, "barrier:finish");
  const double shard_total = run + drain + barrier;
  L["sim.run_pct"] = world.sharded() ? pct(run, shard_total) : 100.0;
  L["sim.drain_pct"] = pct(drain, shard_total);
  L["sim.barrier_overhead_pct"] = 100.0 * prof.barrier_overhead();
  L["sim.imbalance"] = prof.imbalance();
  std::uint64_t spin = 0;
  std::uint64_t park = 0;
  double profiled = 0.0;
  for (const obs::shard_profile& sp : prof.shards) {
    spin += sp.spin_waits;
    park += sp.park_waits;
    profiled += sp.work_s + sp.wait_s;
  }
  L["sim.park_pct"] = pct(static_cast<double>(park),
                          static_cast<double>(spin + park));
  const auto msgs = static_cast<double>(c.messages_total());
  L["net.drop_pct"] =
      pct(static_cast<double>(world.transport().total_drops()), msgs);
  L["net.drops_nat_filtered"] = static_cast<double>(
      world.transport().drops(net::drop_reason::nat_filtered));
  const runtime::punch_stat_totals punches = world.punch_totals();
  L["core.punch_success_pct"] = pct(static_cast<double>(punches.completed),
                                    static_cast<double>(punches.started));
  L["metrics.clusters_s"] = clusters_s;
  L["metrics.probe_s"] = oracle_s + clusters_s;
  if (world.sharded()) {
    u.expect(std::abs(shard_total - profiled) <= 0.1 * profiled,
             "traced shard spans (" + std::to_string(shard_total) +
                 " s) disagree with the profiler (" +
                 std::to_string(profiled) + " s) by more than 10%");
  }
  return u;
}

// ---- paper_figs -------------------------------------------------------------

std::vector<runtime::experiment_spec> load_figure_specs() {
  std::vector<runtime::experiment_spec> specs;
  for (const char* name : figure_specs) {
    specs.push_back(runtime::load_spec_file(std::string("examples/specs/") +
                                            name + ".json"));
  }
  return specs;
}

/// The figure workload's set-up: its specs parsed, plus one cold
/// 600-peer universe per runner seed (the per-cell construction every
/// figure pays, here in a fresh process).
double figs_setup(const options& o,
                  std::vector<runtime::experiment_spec>* specs) {
  const util::wall_timer t;
  *specs = load_figure_specs();
  for (int i = 0; i < figs_seeds; ++i) {
    runtime::experiment_config cfg;
    cfg.peer_count = o.quick ? figs_peers_quick : figs_peers;
    cfg.seed = util::derive_seed(o.seed, static_cast<std::uint64_t>(i));
    const runtime::scenario world(cfg);
  }
  return t.seconds();
}

unit_result figs_unit(const options& o,
                      const std::vector<runtime::experiment_spec>& specs,
                      bool traced) {
  unit_result u;
  u.traced = traced;
  const runtime::spec_options opt = figs_options(o);
  obs::reset_counters();
  if (traced) obs::start_trace(figs_trace_capacity);
  std::uint64_t digest = fnv_offset;
  for (const runtime::experiment_spec& spec : specs) {
    std::ostringstream text;
    const util::wall_timer t;
    const util::json report = runtime::run_spec(spec, opt, text);
    u.run_s += t.seconds();
    const util::json* checks = report.find("checks");
    for (std::size_t i = 0; checks != nullptr && i < checks->size(); ++i) {
      const util::json& check = checks->at(i);
      // A p >= 0.01 randomness test misses on ~1% of correct streams, so
      // across many seeds it cannot gate correctness; the deterministic
      // checks (connectivity, dead references, traversal) do.
      if (check.at("check").as_string() == statistical_check) continue;
      u.expect(check.at("passed").as_bool(),
               spec.name + ": " + check.at("check").as_string() +
                   " failed: " + check.at("detail").as_string());
    }
    digest = fnv1a(digest, text.str());
    digest = fnv1a(digest, report.dump_string(0));
  }
  obs::stop_trace();
  const std::size_t dropped = obs::trace_statistics().dropped;
  const obs::counter_snapshot c = obs::read_counters();
  u.events = c[obs::counter::events_executed];
  u.digest = hex(digest);
  u.expect(u.events > 0, "no events counted (telemetry compiled out?)");
  if (!traced) return u;

  u.expect(dropped == 0, "trace rings wrapped: " + std::to_string(dropped) +
                             " spans dropped");
  const span_totals spans = collect_spans();
  auto& L = u.layers;
  L["obs.trace_dropped"] = static_cast<double>(dropped);
  const auto cells = spans.count("cell") ? spans.at("cell").count : 0;
  L["runtime.cells"] = static_cast<double>(cells);
  L["runtime.cell_s_mean"] =
      cells > 0 ? span_s(spans, "cell") / static_cast<double>(cells) : 0.0;
  L["runtime.seed_busy_pct"] =
      pct(span_s(spans, "seed"), figs_threads * u.run_s);
  add_phase_layers(spans, L);
  add_counter_layers(c, u.events, L);
  // Every cell runs the serial engine: no epochs, shards or barriers.
  for (const char* zero :
       {"sim.epochs", "sim.events_per_epoch", "sim.epoch_width_ms_mean",
        "sim.drain_pct", "sim.barrier_overhead_pct", "sim.imbalance",
        "sim.park_pct", "net.drop_pct", "net.drops_nat_filtered",
        "core.punch_success_pct"}) {
    L[zero] = 0.0;  // or not observable from outside run_spec (see README)
  }
  L["sim.run_pct"] = 100.0;
  double probe_s = 0.0;
  for (const metrics::probe& p : metrics::all_probes()) {
    probe_s += span_s(spans, std::string(p.name));
  }
  double clusters_s = 0.0;
  for (const char* name : cluster_probes) clusters_s += span_s(spans, name);
  L["metrics.probe_s"] = probe_s;
  L["metrics.clusters_s"] = clusters_s;
  return u;
}

// ---- the measured run -------------------------------------------------------

bool is_churn(const std::string& workload) {
  return workload == "churn20k_default" || workload == "churn20k_k1" ||
         workload == "churn20k_k4";
}

util::json measured_run(const options& o) {
  std::vector<unit_result> units;
  double setup_s = 0.0;
  double build_rss = 0.0;
  std::vector<runtime::experiment_spec> specs;
  if (!is_churn(o.workload)) {
    setup_s = figs_setup(o, &specs);
    build_rss = rss_mb();
  }
  const std::size_t min_units = o.trace ? 2 : 1;
  const util::wall_timer clock;
  while (units.size() < min_units || clock.seconds() < o.seconds) {
    const bool traced = o.trace && units.size() % 2 == 1;
    unit_result u;
    try {
      if (is_churn(o.workload)) {
        double build_s = 0.0;
        u = churn_unit(o, traced, traced || units.empty(), &build_s);
        if (units.empty()) {
          setup_s = build_s;  // the process's first build is the cold one
          build_rss = rss_mb();
        }
      } else {
        u = figs_unit(o, specs, traced);
      }
    } catch (const std::exception& e) {
      u.traced = traced;
      u.failures.push_back(std::string("exception: ") + e.what());
    }
    if (!units.empty() && u.failures.empty()) {
      u.expect(u.digest == units.front().digest,
               "digest " + u.digest + " != first unit's " +
                   units.front().digest);
      u.expect(u.events == units.front().events,
               "event count differs from the first unit's");
    }
    std::cerr << "# " << o.workload << " unit " << units.size()
              << (traced ? " traced" : "") << ": events=" << u.events
              << " run_s=" << u.run_s << " digest=" << u.digest
              << (u.failures.empty() ? "" : " FAILED: " + u.failures.front())
              << "\n";
    units.push_back(std::move(u));
  }

  util::json out = util::json::object();
  out["workload"] = o.workload;
  out["seed"] = o.seed;
  std::int64_t failed = 0;
  util::json failures = util::json::array();
  std::vector<double> rates;         // events/s of each untraced unit
  std::vector<double> traced_rates;  // ... and of each traced one
  std::map<std::string, double> layers;
  for (const unit_result& u : units) {
    if (!u.failures.empty()) {
      ++failed;
      for (const std::string& f : u.failures) failures.push_back(f);
      continue;
    }
    const double rate = static_cast<double>(u.events) / u.run_s;
    if (u.traced) {
      traced_rates.push_back(rate);
      for (const auto& [name, value] : u.layers) layers[name] += value;
    } else {
      rates.push_back(rate);
    }
  }
  out["attempted"] = static_cast<std::int64_t>(units.size());
  out["failed"] = failed;
  out["failures"] = std::move(failures);
  out["events_per_s"] = median(rates);
  out["setup_s"] = setup_s;
  out["build_rss_mb"] = build_rss;
  out["peak_rss_mb"] = peak_rss_mb();
  out["digest"] = units.front().digest;
  out["unit_events"] = units.front().events;
  if (o.trace) {
    util::json L = util::json::object();
    for (const auto& [name, sum] : layers) {
      L[name] = sum / static_cast<double>(traced_rates.size());
    }
    L["runtime.build_rss_mb"] = build_rss;
    const double traced = median(traced_rates);
    L["obs.trace_overhead_pct"] =
        traced > 0 ? 100.0 * (median(rates) / traced - 1.0) : 0.0;
    out["layers"] = std::move(L);
  }
  return out;
}

util::json setup_only(const options& o) {
  util::json out = util::json::object();
  if (is_churn(o.workload)) {
    const util::wall_timer t;
    const runtime::scenario world(churn_config(o));
    out["setup_s"] = t.seconds();
  } else {
    std::vector<runtime::experiment_spec> specs;
    out["setup_s"] = figs_setup(o, &specs);
  }
  out["build_rss_mb"] = rss_mb();
  return out;
}

// ---- layer replays ----------------------------------------------------------
//
// Public functions of single layers timed in isolation at the sizes the
// churn20k workloads run them at (see README.md). Each replay reports the
// median of five batches in ns per operation.

using replay_clock = std::chrono::steady_clock;

double elapsed_ns(replay_clock::time_point from) {
  return std::chrono::duration<double, std::nano>(replay_clock::now() - from)
      .count();
}

std::uint64_t g_sink = 0;  // keeps replay results observable

/// `batch(ops)` runs `ops` operations and returns the nanoseconds spent
/// in the timed part; one warm-up batch, then the median of five.
template <typename Batch>
double median_ns_per_op(std::size_t ops, Batch&& batch) {
  batch(ops / 4 + 1);
  std::vector<double> per_op;
  for (int i = 0; i < 5; ++i) {
    per_op.push_back(batch(ops) / static_cast<double>(ops));
  }
  return median(per_op);
}

constexpr std::size_t replay_queue_depth = 8192;
constexpr std::size_t replay_epoch_events = 352;
constexpr std::size_t replay_merge_segments = 4;
constexpr std::size_t replay_barrier_threads = 4;
constexpr std::size_t replay_routes = 1024;
constexpr std::size_t replay_hash_keys = 1024;

/// Canonically keyed events at times within one epoch window, as a
/// shard's inbound channels deliver them.
std::vector<sim::staged_event> make_epoch_batch(util::rng& rng,
                                                sim::sim_time base,
                                                std::size_t count,
                                                std::uint64_t* fired) {
  std::vector<sim::staged_event> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(sim::staged_event{
        base + static_cast<sim::sim_time>(rng.uniform(0, 49)),
        rng.uniform(0, churn_peers - 1), i, [fired] { ++*fired; }});
  }
  return batch;
}

util::json run_replays(std::uint64_t seed) {
  util::json out = util::json::object();
  util::rng rng(seed);

  out["sim.queue_push_pop_ns"] =
      median_ns_per_op(2'000'000, [&](std::size_t ops) {
        sim::event_queue q;
        std::uint64_t fired = 0;
        std::vector<sim::sim_time> delays(1024);
        for (sim::sim_time& d : delays) {
          d = 50 + static_cast<sim::sim_time>(rng.uniform(0, 49));
        }
        for (std::size_t i = 0; i < replay_queue_depth; ++i) {
          q.push(static_cast<sim::sim_time>(rng.uniform(0, 99)),
                 [&fired] { ++fired; });
        }
        const auto t0 = replay_clock::now();
        for (std::size_t i = 0; i < ops; ++i) {
          const sim::sim_time at = q.pop_and_run();
          q.push(at + delays[i & 1023], [&fired] { ++fired; });
        }
        const double ns = elapsed_ns(t0);
        g_sink += fired;
        return ns;
      });

  out["sim.stage_sorted_ns"] =
      median_ns_per_op(400'000, [&](std::size_t ops) {
        sim::event_queue q;
        std::uint64_t fired = 0;
        double ns = 0.0;
        sim::sim_time base = 0;
        for (std::size_t done = 0; done < ops; done += replay_epoch_events) {
          std::vector<sim::staged_event> batch =
              make_epoch_batch(rng, base, replay_epoch_events, &fired);
          std::sort(batch.begin(), batch.end(), sim::canonical_less);
          const auto t0 = replay_clock::now();
          q.stage_sorted(batch);
          ns += elapsed_ns(t0);
          while (!q.empty()) q.pop_and_run();
          base += 50;
        }
        g_sink += fired;
        return ns;
      });

  out["sim.channel_merge_ns"] =
      median_ns_per_op(400'000, [&](std::size_t ops) {
        std::uint64_t fired = 0;
        std::vector<std::size_t> bounds;
        double ns = 0.0;
        for (std::size_t done = 0; done < ops; done += replay_epoch_events) {
          // Each segment is one source shard's FIFO batch: time-ordered.
          std::vector<sim::channel_event> events;
          bounds.clear();
          const std::size_t per = replay_epoch_events / replay_merge_segments;
          for (std::size_t s = 0; s < replay_merge_segments; ++s) {
            bounds.push_back(events.size());
            std::vector<sim::staged_event> seg =
                make_epoch_batch(rng, 0, per, &fired);
            std::stable_sort(
                seg.begin(), seg.end(),
                [](const auto& a, const auto& b) { return a.at < b.at; });
            for (auto& e : seg) events.push_back(std::move(e));
          }
          bounds.push_back(events.size());
          const auto t0 = replay_clock::now();
          sim::canonical_merge_segments(events, bounds);
          ns += elapsed_ns(t0);
          g_sink += static_cast<std::uint64_t>(events.front().at);
        }
        return ns;
      });

  out["sim.barrier_cross_ns"] =
      median_ns_per_op(100'000, [&](std::size_t ops) {
        sim::spin_barrier barrier(replay_barrier_threads);
        std::vector<std::thread> others;
        for (std::size_t i = 1; i < replay_barrier_threads; ++i) {
          others.emplace_back([&barrier, ops] {
            for (std::size_t k = 0; k <= ops; ++k) barrier.arrive_and_wait();
          });
        }
        barrier.arrive_and_wait();  // every thread is up: start timing
        const auto t0 = replay_clock::now();
        for (std::size_t k = 0; k < ops; ++k) barrier.arrive_and_wait();
        const double ns = elapsed_ns(t0);
        for (std::thread& t : others) t.join();
        return ns;
      });

  out["nat.translate_filter_ns"] =
      median_ns_per_op(2'000'000, [&](std::size_t ops) {
        // The paper's natted mix: 50% RC, 40% PRC, 10% SYM.
        std::vector<nat::nat_device> devices;
        devices.reserve(10);
        for (std::uint32_t i = 0; i < 10; ++i) {
          using nat::nat_type;
          const nat_type type = i < 5   ? nat_type::restricted_cone
                                : i < 9 ? nat_type::port_restricted_cone
                                        : nat_type::symmetric;
          devices.emplace_back(type, net::ip_address{0x0A000001 + i},
                               sim::seconds(90), 192);
        }
        std::vector<net::endpoint> remotes(64);
        for (net::endpoint& r : remotes) {
          const auto ip = static_cast<std::uint32_t>(rng.uniform(0, 4095));
          const auto port =
              static_cast<std::uint32_t>(rng.uniform(1024, 65535));
          r = net::endpoint{net::ip_address{0x0B000000u + ip}, port};
        }
        const net::endpoint priv{net::ip_address{0xAC100001}, 5000};
        sim::sim_time now = 0;
        const auto t0 = replay_clock::now();
        for (std::size_t i = 0; i < ops; ++i) {
          nat::nat_device& dev = devices[i % devices.size()];
          const net::endpoint& remote = remotes[(i * 7) % remotes.size()];
          const net::endpoint pub = dev.translate_outbound(priv, remote, now);
          g_sink += dev.filter_inbound(pub, remote, now).has_value() ? 1 : 0;
          ++now;
        }
        return elapsed_ns(t0);
      });

  out["core.next_rvp_ns"] =
      median_ns_per_op(2'000'000, [&](std::size_t ops) {
        core::routing_table rt(sim::seconds(90), replay_routes);
        constexpr net::node_id direct = 64;
        for (net::node_id i = 0; i < direct; ++i) {
          rt.touch_direct(i, {net::ip_address{i + 1}, 1}, 0);
        }
        for (net::node_id i = direct; i < replay_routes; ++i) {
          const auto rvp =
              static_cast<net::node_id>(rng.uniform(0, direct - 1));
          rt.learn_route(i, rvp, sim::seconds(60), 0);
        }
        std::vector<net::node_id> dests(4096);
        for (net::node_id& d : dests) {
          d = static_cast<net::node_id>(rng.uniform(0, replay_routes - 1));
        }
        const auto t0 = replay_clock::now();
        for (std::size_t i = 0; i < ops; ++i) {
          g_sink += rt.next_rvp(dests[i & 4095], 10).has_value() ? 1 : 0;
        }
        return elapsed_ns(t0);
      });

  // A shuffle buffer is the sender's self entry plus its whole view.
  const std::size_t buffer = churn_view + 1;
  auto entries = [&](net::node_id first, std::size_t count) {
    std::vector<gossip::view_entry> out_entries;
    for (net::node_id id = first; id < first + count; ++id) {
      out_entries.push_back(gossip::view_entry{
          gossip::node_descriptor{id, {net::ip_address{id}, 1}, {}},
          static_cast<std::uint32_t>(rng.uniform(0, 9)), 0});
    }
    return out_entries;
  };

  out["gossip.view_merge_ns"] =
      median_ns_per_op(500'000, [&](std::size_t ops) {
        const gossip::protocol_config defaults;
        gossip::view v(churn_view);
        v.assign(entries(1, churn_view), 0);
        // Two partners' buffers, each half overlapping the view.
        const std::vector<gossip::view_entry> received[2] = {
            entries(8, buffer), entries(20, buffer)};
        const std::vector<gossip::view_entry> sent = entries(1, buffer);
        const auto t0 = replay_clock::now();
        for (std::size_t i = 0; i < ops; ++i) {
          v.merge(received[i & 1], sent, defaults.merge, 0, rng);
        }
        const double ns = elapsed_ns(t0);
        g_sink += v.size();
        return ns;
      });

  out["gossip.make_message_ns"] =
      median_ns_per_op(2'000'000, [&](std::size_t ops) {
        const std::vector<gossip::view_entry> tail = entries(1, buffer);
        gossip::gossip_message msg;
        msg.kind = gossip::message_kind::request;
        msg.entries = tail;
        const auto t0 = replay_clock::now();
        for (std::size_t i = 0; i < ops; ++i) {
          // Arena alloc here, release when `body` goes out of scope.
          const auto body = gossip::make_message(msg);
          g_sink += body->entries.size();
        }
        return elapsed_ns(t0);
      });

  out["util.flat_hash_find_ns"] =
      median_ns_per_op(4'000'000, [&](std::size_t ops) {
        util::flat_hash_map<std::uint32_t, std::uint64_t> m;
        std::vector<std::uint32_t> keys(replay_hash_keys);
        for (std::uint32_t i = 0; i < replay_hash_keys; ++i) {
          keys[i] = static_cast<std::uint32_t>(rng.uniform(0, 1u << 30)) * 2;
          m.insert_or_get(keys[i]) = i;
        }
        // Alternating hits and misses (odd keys are never inserted), like
        // routing-table lookups.
        std::vector<std::uint32_t> probes(4096);
        for (std::size_t i = 0; i < probes.size(); ++i) {
          probes[i] = keys[rng.index(keys.size())] +
                      static_cast<std::uint32_t>(i & 1);
        }
        const auto t0 = replay_clock::now();
        for (std::size_t i = 0; i < ops; ++i) {
          g_sink += m.find(probes[i & 4095]) != nullptr ? 1 : 0;
        }
        return elapsed_ns(t0);
      });

  std::cerr << "# replays done (sink " << g_sink % 10 << ")\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags;
  const auto* workload = flags.add_string(
      "workload", "",
      "churn20k_default | churn20k_k1 | churn20k_k4 | paper_figs");
  const auto* seed = flags.add_int("seed", 1, "workload seed");
  const auto* seconds =
      flags.add_double("seconds", 10.0, "host seconds to keep repeating units");
  const auto* trace = flags.add_bool(
      "trace", false, "trace every second unit and report the layer ledger");
  const auto* quick =
      flags.add_bool("quick", false, "small sizes (n=2000, figures n=120)");
  const auto* setup = flags.add_bool(
      "setup-only", false, "build the workload's universe once and exit");
  const auto* replays =
      flags.add_bool("replays", false, "run the layer replays and exit");
  const auto* info =
      flags.add_bool("build-info", false, "print how this binary was built");
  try {
    if (!flags.parse(argc, argv).empty()) {
      throw std::invalid_argument("unexpected positional argument");
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << flags.usage("bench_suite");
    return 2;
  }

  options o;
  o.workload = *workload;
  o.seed = static_cast<std::uint64_t>(*seed);
  o.seconds = *seconds;
  o.trace = *trace;
  o.quick = *quick;

  util::json result;
  try {
    if (*info) {
      result = util::json::object();
      result["build_type"] = NYLON_BENCH_BUILD_TYPE;
#if defined(__clang__)
      result["compiler"] = "clang " __clang_version__;
#else
      result["compiler"] = "gcc " __VERSION__;
#endif
      result["nylon_obs"] = NYLON_OBS != 0;
    } else if (*replays) {
      result = run_replays(o.seed);
    } else if (!is_churn(o.workload) && o.workload != "paper_figs") {
      std::cerr << "unknown --workload '" << o.workload << "'\n"
                << flags.usage("bench_suite");
      return 2;
    } else if (*setup) {
      result = setup_only(o);
    } else {
      result = measured_run(o);
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_suite: " << e.what() << "\n";
    return 1;
  }
  std::cout << result.dump_string(0) << std::endl;
  // Skip tearing down a 20k-peer universe's allocations one by one: the
  // process is done and the caller is waiting on its exit.
  std::_Exit(0);
}
