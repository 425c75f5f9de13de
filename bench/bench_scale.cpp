// Macro-scale throughput bench: one big universe (default 100,000 peers)
// under workload-engine churn, reporting wall-clock and events/second so
// the hot-path optimizations (pooled events, O(1) routing, flat NAT and
// routing tables, SoA hot state, payload arenas) are tracked as numbers,
// not anecdotes.
//
//   bench_scale                         # 100k peers, ~a few minutes
//   bench_scale --n 2000 --warmup 10    # CI-sized smoke run
//   bench_scale --shards 4 --trace t.json --heartbeat 10
//   bench_scale --sweep-shards 1,2,4    # shard-scaling campaign, one JSON
//   bench_scale --profile million       # 1M-peer profile (reduced churn)
//
// Unlike the figure benches this one measures the *simulator*, not the
// paper: metrics collection is off during the run (snapshots are
// population counters only) and connectivity is measured once at the end.
//
// With --shards K >= 1 the run also reports the epoch profiler's
// per-shard work/wait split, the shard-imbalance factor and the barrier
// overhead; --trace writes a Chrome/Perfetto trace of the run. Both are
// observation-only: state_digest is byte-identical with or without them.
//
// With --sweep-shards K1,K2,... the same universe is run once per K,
// in-process and back to back. The sweep asserts the determinism
// contract as it goes — every K >= 1 must produce the identical state
// digest (the serial engine, K = 0, has its own digest family and is
// only compared against other K = 0 entries) — and the BENCH JSON gains
// a results.sweep array carrying the per-K events/s, the speedup curve
// relative to the first K, and the per-K epoch statistics (epochs run,
// mean/max epoch width in sim-ms, events per epoch), which bench/trend.py
// gates per shard count. A digest mismatch exits non-zero after the JSON
// is written.
//
// Memory: every run reports its peak resident set (`peak_rss_mb`) and
// that peak divided by the population (`rss_bytes_per_peer`). Each run
// first hands the heap pages earlier runs freed back to the kernel
// (malloc_trim), resets the kernel's high-water mark (writing 5 to
// /proc/self/clear_refs) and at its end reads VmHWM, so in a sweep each
// K's figure covers that K's run alone. Where the reset is refused the
// figure falls back to getrusage's ru_maxrss, the peak through that K's
// run.
// Each run also reports, from a walk over the universe at its end, the
// bytes per peer the routing tables (`route_table_bytes_per_peer`) and
// NAT tables (`nat_table_bytes_per_peer`) hold allocated.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/nylon_peer.h"
#include "metrics/graph_analysis.h"
#include "obs/counters.h"
#include "obs/heartbeat.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/experiment_config.h"
#include "runtime/scenario.h"
#include "util/flags.h"
#include "util/wall_timer.h"
#include "workload/engine.h"
#include "workload/report.h"

namespace {

using namespace nylon;

/// Everything one (config, K) run produces; the sweep collects one per K.
struct run_outcome {
  std::int64_t shards = 0;  // 0 = serial engine
  double build_s = 0.0;
  double run_s = 0.0;
  double measure_s = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  std::size_t alive = 0;
  std::uint64_t joined = 0;
  std::uint64_t departed = 0;
  double biggest_cluster_pct = 0.0;
  std::string digest_hex;
  double peak_rss_mb = 0.0;
  double rss_bytes_per_peer = 0.0;
  double route_table_bytes_per_peer = 0.0;
  double nat_table_bytes_per_peer = 0.0;
  obs::counter_snapshot counters;
  obs::epoch_profile profile;
};

struct run_params {
  std::int64_t warmup = 30;
  std::int64_t churn_rounds = 60;
  double arrivals = 50.0;
  double rebind = 0.1;
  double heartbeat_s = 0.0;
  bool trace = false;
};

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS; false
/// when /proc refuses the write. Heap pages an earlier run freed are
/// returned to the kernel first, so they do not count against this one.
bool reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
}

/// Peak resident bytes: VmHWM when `since_reset` (the peak since
/// reset_peak_rss) and readable, else ru_maxrss (the process's peak).
double peak_rss_bytes(bool since_reset) {
  if (since_reset) {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) * 1024.0;  // "VmHWM:  N kB"
      }
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

/// Builds one universe, drives the workload program over it, measures
/// connectivity once at the end. Counters are scoped to the measured
/// run: universe construction has its own wall-clock line and would
/// otherwise dominate pool_event and hash churn.
run_outcome run_world(runtime::experiment_config cfg, const run_params& p) {
  run_outcome out;
  out.shards = static_cast<std::int64_t>(cfg.shards);
  const bool fresh_peak = reset_peak_rss();

  util::wall_timer t_build;
  runtime::scenario world(cfg);
  out.build_s = t_build.seconds();
  std::cout << "# built universe in " << out.build_s << " s\n";

  const sim::sim_time period = cfg.gossip.shuffle_period;
  workload::session_distribution sessions;
  sessions.k = workload::session_distribution::kind::pareto;
  sessions.mean = 20 * period;

  auto prog = workload::program{}
                  .then(workload::steady(p.warmup * period))
                  .then(workload::nat_rebind(p.rebind))
                  .then(workload::poisson_churn(p.churn_rounds * period,
                                                p.arrivals, sessions))
                  .then(workload::steady(5 * period));

  workload::engine_options opt;
  opt.measure = false;  // population-counter snapshots only
  workload::engine eng(world, std::move(prog), opt);

  obs::reset_counters();
  if (p.trace) obs::start_trace();
  const obs::heartbeat beat(p.heartbeat_s);

  util::wall_timer t_run;
  eng.run();
  out.run_s = t_run.seconds();
  obs::stop_trace();
  out.events = world.events_executed();
  out.events_per_sec =
      out.run_s > 0 ? static_cast<double>(out.events) / out.run_s : 0.0;
  out.counters = obs::read_counters();
  out.profile = world.shard_profile();
  out.joined = eng.joined();
  out.departed = eng.departed();

  util::wall_timer t_measure;
  const auto oracle = world.oracle();
  const metrics::cluster_metrics clusters =
      metrics::measure_clusters(world.transport(), world.peers(), oracle);
  out.alive = world.alive_count();
  out.biggest_cluster_pct = clusters.biggest_cluster_pct;
  const std::uint64_t digest = world.state_digest();
  out.measure_s = t_measure.seconds();

  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));
  out.digest_hex = digest_hex;

  const auto peers = static_cast<double>(cfg.peer_count);
  const double rss_bytes = peak_rss_bytes(fresh_peak);
  out.peak_rss_mb = rss_bytes / (1024.0 * 1024.0);
  out.rss_bytes_per_peer = rss_bytes / peers;

  std::size_t route_bytes = 0;
  std::size_t nat_bytes = 0;
  for (const auto& p : world.peers()) {
    if (const auto* np = dynamic_cast<const core::nylon_peer*>(p.get())) {
      route_bytes += np->routes().bytes();
    }
    if (const nat::nat_device* dev = world.transport().device_of(p->id())) {
      nat_bytes += dev->bytes();
    }
  }
  out.route_table_bytes_per_peer = static_cast<double>(route_bytes) / peers;
  out.nat_table_bytes_per_peer = static_cast<double>(nat_bytes) / peers;
  return out;
}

/// Human-readable block for one run. Every line except the timings, the
/// memory lines and the telemetry block is a pure function of (config,
/// seed) — identical for any --shards K >= 1, which the sweep and the CI
/// digest cross-check pin (state_digest covers views, traffic, drops and
/// the event count in one value).
void print_outcome(const run_outcome& r) {
  std::cout << "run_wall_s            " << r.run_s << "\n"
            << "events_executed       " << r.events << "\n"
            << "events_per_sec        " << r.events_per_sec << "\n"
            << "alive_peers           " << r.alive << "\n"
            << "joined                " << r.joined << "\n"
            << "departed              " << r.departed << "\n"
            << "biggest_cluster_pct   " << r.biggest_cluster_pct << "\n"
            << "state_digest          " << r.digest_hex << "\n"
            << "final_measure_s       " << r.measure_s << "\n"
            << "peak_rss_mb           " << r.peak_rss_mb << "\n"
            << "rss_bytes_per_peer    " << r.rss_bytes_per_peer << "\n"
            << "route_table_bytes_per_peer " << r.route_table_bytes_per_peer
            << "\n"
            << "nat_table_bytes_per_peer   " << r.nat_table_bytes_per_peer
            << "\n";
  if (r.shards > 0) {
    std::cout << "epochs                " << r.profile.epochs << "\n"
              << "epoch_width_ms_mean   " << r.profile.epoch_width_ms_mean
              << "\n"
              << "epoch_width_ms_max    " << r.profile.epoch_width_ms_max
              << "\n"
              << "events_per_epoch      " << r.profile.events_per_epoch
              << "\n";
  }
  if (!r.profile.empty()) {
    for (std::size_t s = 0; s < r.profile.shards.size(); ++s) {
      const obs::shard_profile& sp = r.profile.shards[s];
      std::cout << "shard[" << s << "] work_s=" << sp.work_s
                << " wait_s=" << sp.wait_s << " events=" << sp.events
                << " spin=" << sp.spin_waits << " park=" << sp.park_waits
                << "\n";
    }
    std::cout << "shard_imbalance       " << r.profile.imbalance() << "\n"
              << "barrier_overhead_pct  "
              << 100.0 * r.profile.barrier_overhead() << "\n";
  }
}

/// The per-run scalars every BENCH consumer reads (trend.py included).
util::json outcome_json(const run_outcome& r) {
  util::json results = util::json::object();
  results["build_wall_s"] = r.build_s;
  results["run_wall_s"] = r.run_s;
  results["events_executed"] = r.events;
  results["events_per_sec"] = r.events_per_sec;
  results["alive_peers"] = static_cast<std::int64_t>(r.alive);
  results["joined"] = static_cast<std::int64_t>(r.joined);
  results["departed"] = static_cast<std::int64_t>(r.departed);
  results["biggest_cluster_pct"] = r.biggest_cluster_pct;
  results["state_digest"] = r.digest_hex;
  results["final_measure_s"] = r.measure_s;
  results["peak_rss_mb"] = r.peak_rss_mb;
  results["rss_bytes_per_peer"] = r.rss_bytes_per_peer;
  results["route_table_bytes_per_peer"] = r.route_table_bytes_per_peer;
  results["nat_table_bytes_per_peer"] = r.nat_table_bytes_per_peer;
  if (r.shards > 0) {
    results["epochs"] = r.profile.epochs;
    results["epoch_width_ms_mean"] = r.profile.epoch_width_ms_mean;
    results["epoch_width_ms_max"] = r.profile.epoch_width_ms_max;
    results["events_per_epoch"] = r.profile.events_per_epoch;
  }
  return results;
}

/// "1,2,4" -> {1, 2, 4}; throws std::invalid_argument on junk.
std::vector<std::int64_t> parse_sweep(const std::string& text) {
  std::vector<std::int64_t> ks;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string item = text.substr(pos, comma - pos);
    std::size_t used = 0;
    const long long k = item.empty() ? -1 : std::stoll(item, &used);
    if (item.empty() || used != item.size() || k < 0) {
      throw std::invalid_argument("--sweep-shards: bad shard count '" + item +
                                  "'");
    }
    ks.push_back(k);
    pos = comma + 1;
  }
  return ks;
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags;
  auto* n = flags.add_int("n", 100000, "population size");
  auto* warmup = flags.add_int("warmup", 30, "warm-up shuffle periods");
  auto* churn_rounds =
      flags.add_int("churn-rounds", 60, "periods of Poisson churn");
  auto* arrivals = flags.add_double(
      "arrivals", 50.0, "Poisson arrivals per second during churn");
  const auto* rebind = flags.add_double(
      "rebind-frac", 0.1, "fraction of natted peers re-bound mid-run");
  const auto* shards = flags.add_int(
      "shards", 0,
      "shards per universe (0 = serial engine; K >= 1 = sharded engine, "
      "byte-identical for every K)");
  const auto* sweep_flag = flags.add_string(
      "sweep-shards", "",
      "comma-separated shard counts; runs the same universe once per K, "
      "asserts digest equality and emits a per-K speedup curve");
  const auto* profile_name = flags.add_string(
      "profile", "",
      "named parameter preset: 'million' (n=1000000, reduced churn); "
      "explicit flags win");
  const auto* seed = flags.add_int("seed", 1, "seed");
  const auto* json = flags.add_string(
      "json", "", "also write machine-readable results to this file");
  const auto* trace_path = flags.add_string(
      "trace", "", "write a Chrome/Perfetto trace of the run to this file");
  const auto* heartbeat_s = flags.add_double(
      "heartbeat", 0.0,
      "print a progress line to stderr every SEC wall seconds (0 = off)");
  const auto* help = flags.add_bool("help", false, "print usage");
  std::vector<std::int64_t> sweep;
  try {
    flags.parse(argc, argv);
    if (!sweep_flag->empty()) sweep = parse_sweep(*sweep_flag);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << flags.usage("bench_scale");
    return 1;
  }
  if (*help) {
    std::cout << flags.usage("bench_scale");
    return 0;
  }
  const auto reject = [&flags](const std::string& why) {
    std::cerr << why << "\n" << flags.usage("bench_scale");
    return 1;
  };
  if (*shards < 0) return reject("--shards must be >= 0 (0 = serial engine)");
  if (flags.provided("shards") && !sweep.empty()) {
    return reject("--shards and --sweep-shards are mutually exclusive");
  }

  // The million-peer profile layers defaults under flags the user did
  // not set: it trades churn periods for population so a 1M-peer world
  // stays tractable (expect a long single-threaded build; at n=20000
  // this program peaks near 11 KB per peer, see README) while still
  // exercising join/depart/rebind at scale.
  if (*profile_name == "million") {
    if (!flags.provided("n")) *n = 1000000;
    if (!flags.provided("warmup")) *warmup = 3;
    if (!flags.provided("churn-rounds")) *churn_rounds = 5;
    if (!flags.provided("arrivals")) *arrivals = 200.0;
  } else if (!profile_name->empty()) {
    return reject("unknown --profile '" + *profile_name +
                  "' (expected 'million')");
  }

  // Scale flags are range-checked before any cast or allocation uses
  // them (`--n -1` would otherwise reach vector::reserve as 2^64 - 1).
  if (*n <= 0) return reject("--n must be > 0");
  if (*warmup <= 0) return reject("--warmup must be > 0");
  if (*churn_rounds <= 0) return reject("--churn-rounds must be > 0");
  if (!(std::isfinite(*arrivals) && *arrivals > 0.0)) {
    return reject("--arrivals must be a finite number > 0");
  }
  if (!(*rebind >= 0.0 && *rebind <= 1.0)) {
    return reject("--rebind-frac must be in [0, 1]");
  }

  runtime::experiment_config cfg;
  cfg.peer_count = static_cast<std::size_t>(*n);
  cfg.protocol = core::protocol_kind::nylon;
  cfg.gossip.view_size = 15;
  cfg.seed = static_cast<std::uint64_t>(*seed);

  run_params params;
  params.warmup = *warmup;
  params.churn_rounds = *churn_rounds;
  params.arrivals = *arrivals;
  params.rebind = *rebind;
  params.heartbeat_s = *heartbeat_s;

  // The list of shard counts to run: the sweep, or the one --shards K.
  const std::vector<std::int64_t> plan =
      sweep.empty() ? std::vector<std::int64_t>{*shards} : sweep;

  std::vector<run_outcome> outcomes;
  outcomes.reserve(plan.size());
  bool digests_ok = true;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    cfg.shards = static_cast<std::size_t>(plan[i]);
    // The trace covers the last run of the sweep (one file, one run).
    params.trace = !trace_path->empty() && i + 1 == plan.size();
    std::cout << "# bench_scale: n=" << cfg.peer_count << " warmup=" << *warmup
              << " churn_rounds=" << *churn_rounds << " arrivals=" << *arrivals
              << "/s rebind=" << *rebind << " shards=" << cfg.shards
              << " seed=" << cfg.seed
              << (profile_name->empty() ? ""
                                        : " (profile " + *profile_name + ")")
              << "\n";
    outcomes.push_back(run_world(cfg, params));
    print_outcome(outcomes.back());

    // Determinism contract, asserted as the sweep goes: every K >= 1
    // yields the same digest; the serial engine (K = 0) is its own
    // family and is only held against other serial entries.
    for (std::size_t j = 0; j < i; ++j) {
      const bool same_family = (plan[j] == 0) == (plan[i] == 0);
      if (same_family &&
          outcomes[j].digest_hex != outcomes.back().digest_hex) {
        std::cerr << "DIGEST MISMATCH: shards=" << plan[j] << " -> "
                  << outcomes[j].digest_hex << " but shards=" << plan[i]
                  << " -> " << outcomes.back().digest_hex << "\n";
        digests_ok = false;
      }
    }
  }

  workload::bench_report report("scale");
  report.param("n", static_cast<std::int64_t>(cfg.peer_count));
  report.param("warmup_periods", *warmup);
  report.param("churn_periods", *churn_rounds);
  report.param("arrivals_per_sec", *arrivals);
  report.param("rebind_frac", *rebind);
  report.param("shards", outcomes.back().shards);
  if (!sweep.empty()) report.param("sweep_shards", *sweep_flag);
  if (!profile_name->empty()) report.param("profile", *profile_name);
  report.param("seed", static_cast<std::int64_t>(cfg.seed));

  // results carries the last run's scalars (so single-run consumers and
  // older tooling keep working) plus, for sweeps, the per-K curve.
  util::json results = outcome_json(outcomes.back());
  if (!sweep.empty()) {
    const double base_eps = outcomes.front().events_per_sec;
    util::json curve = util::json::array();
    for (const run_outcome& r : outcomes) {
      util::json row = util::json::object();
      row["shards"] = r.shards;
      row["build_wall_s"] = r.build_s;
      row["run_wall_s"] = r.run_s;
      row["events_executed"] = r.events;
      row["events_per_sec"] = r.events_per_sec;
      row["speedup_vs_first"] =
          base_eps > 0 ? r.events_per_sec / base_eps : 0.0;
      row["state_digest"] = r.digest_hex;
      row["peak_rss_mb"] = r.peak_rss_mb;
      row["rss_bytes_per_peer"] = r.rss_bytes_per_peer;
      if (r.shards > 0) {
        row["epochs"] = r.profile.epochs;
        row["epoch_width_ms_mean"] = r.profile.epoch_width_ms_mean;
        row["epoch_width_ms_max"] = r.profile.epoch_width_ms_max;
        row["events_per_epoch"] = r.profile.events_per_epoch;
      }
      if (!r.profile.empty()) {
        row["imbalance"] = r.profile.imbalance();
        row["barrier_overhead_pct"] = 100.0 * r.profile.barrier_overhead();
      }
      curve.push_back(std::move(row));
    }
    results["sweep"] = std::move(curve);
    results["digests_consistent"] = digests_ok;
    std::cout << "# sweep:";
    for (const run_outcome& r : outcomes) {
      std::cout << " K=" << r.shards << ":"
                << static_cast<std::uint64_t>(r.events_per_sec) << "ev/s";
    }
    std::cout << "\n";
  }
  report.add("results", std::move(results));

  util::json telemetry = util::json::object();
  telemetry["counters"] = obs::to_json(outcomes.back().counters);
  if (!outcomes.back().profile.empty()) {
    telemetry["profile"] = obs::to_json(outcomes.back().profile);
  }
  report.add("telemetry", std::move(telemetry));
  report.save(*json);

  if (!trace_path->empty()) {
    if (!obs::write_trace_file(*trace_path)) return 1;
    const obs::trace_stats stats = obs::trace_statistics();
    std::cerr << "# trace: " << stats.recorded << " spans from "
              << stats.threads << " threads -> " << *trace_path
              << (stats.dropped > 0
                      ? " (" + std::to_string(stats.dropped) + " dropped)"
                      : "")
              << "\n";
  }
  return digests_ok ? 0 : 1;
}
