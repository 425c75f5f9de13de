// Macro-scale throughput bench: one big universe (default 100,000 peers)
// under workload-engine churn, reporting wall-clock and events/second so
// the hot-path optimizations (pooled events, O(1) routing, flat NAT and
// routing tables, SoA hot state, payload arenas) are tracked as numbers,
// not anecdotes.
//
//   bench_scale                         # 100k peers, ~a few minutes
//   bench_scale --n 2000 --warmup 10    # CI-sized smoke run
//   bench_scale --shards 4 --trace t.json --heartbeat 10
//   bench_scale --shards 0,1,2,4        # shard-scaling campaign, one JSON
//   bench_scale --profile million       # 1M-peer profile (reduced churn)
//
// Unlike the figure benches this one measures the *simulator*, not the
// paper: metrics collection is off during the run (snapshots are
// population counters only) and connectivity is measured once at the end.
//
// --shards takes a list of shard counts; the same universe runs once
// per K, in-process, back to back, in list order. K = 0 is the serial
// engine; with K >= 1 a run also reports the epoch profiler's per-shard
// work/wait split, the shard-imbalance factor, the barrier overhead and
// `crossings_per_epoch` (the busiest shard's waited-through barrier
// crossings per epoch, which bench/smoke_scale.py holds at <= 1).
// --trace writes a Chrome/Perfetto trace of the last run. Both are
// observation-only: state_digest is byte-identical with or without them.
//
// The BENCH JSON holds one row per run in `results.runs` (its scalars,
// its epoch statistics and its events/s relative to the first run) plus
// `results.digests_consistent`. The binary asserts the determinism
// contract over the list: every K >= 1 must match the first K >= 1 on
// state_digest, events_executed, epochs, alive_peers, joined, departed
// and biggest_cluster_pct; the serial engine is its own family and is
// held to the same fields (bar epochs) against the other K = 0 runs. A
// divergence exits 1 after the JSON is written.
//
// Memory: every run reports its peak resident set (`peak_rss_mb`) and
// that peak divided by the population (`rss_bytes_per_peer`). Each run
// first hands the heap pages earlier runs freed back to the kernel
// (malloc_trim), resets the kernel's high-water mark (writing 5 to
// /proc/self/clear_refs) and at its end reads VmHWM, so each K's figure covers that K's run alone. Where the reset is refused the
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

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
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

/// Everything one (config, K) run produces; main collects one per K.
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
/// seed) — identical for any --shards K >= 1, which main's family check
/// pins (state_digest covers views, traffic, drops and the event count in
/// one value).
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
              << 100.0 * r.profile.barrier_overhead() << "\n"
              << "crossings_per_epoch   " << r.profile.crossings_per_epoch()
              << "\n";
  }
}

/// One `results.runs` row: the run's scalars, its epoch statistics (K >=
/// 1) and profile ratios (telemetry builds), and its events/s relative to
/// `first_eps`, the first run's.
util::json run_row(const run_outcome& r, double first_eps) {
  util::json row = util::json::object();
  row["shards"] = r.shards;
  row["build_wall_s"] = r.build_s;
  row["run_wall_s"] = r.run_s;
  row["events_executed"] = r.events;
  row["events_per_sec"] = r.events_per_sec;
  row["speedup_vs_first"] = first_eps > 0 ? r.events_per_sec / first_eps : 0.0;
  row["alive_peers"] = static_cast<std::int64_t>(r.alive);
  row["joined"] = static_cast<std::int64_t>(r.joined);
  row["departed"] = static_cast<std::int64_t>(r.departed);
  row["biggest_cluster_pct"] = r.biggest_cluster_pct;
  row["state_digest"] = r.digest_hex;
  row["final_measure_s"] = r.measure_s;
  row["peak_rss_mb"] = r.peak_rss_mb;
  row["rss_bytes_per_peer"] = r.rss_bytes_per_peer;
  row["route_table_bytes_per_peer"] = r.route_table_bytes_per_peer;
  row["nat_table_bytes_per_peer"] = r.nat_table_bytes_per_peer;
  if (r.shards > 0) {
    row["epochs"] = r.profile.epochs;
    row["epoch_width_ms_mean"] = r.profile.epoch_width_ms_mean;
    row["epoch_width_ms_max"] = r.profile.epoch_width_ms_max;
    row["events_per_epoch"] = r.profile.events_per_epoch;
  }
  if (!r.profile.empty()) {
    row["imbalance"] = r.profile.imbalance();
    row["barrier_overhead_pct"] = 100.0 * r.profile.barrier_overhead();
    row["crossings_per_epoch"] = r.profile.crossings_per_epoch();
  }
  return row;
}

/// The first field the determinism contract pins on which two runs of
/// one engine family differ, or "" when none does. Epochs exist only for
/// K >= 1 (both runs are of the same family).
std::string first_divergence(const run_outcome& a, const run_outcome& b) {
  if (a.digest_hex != b.digest_hex) return "state_digest";
  if (a.events != b.events) return "events_executed";
  if (a.shards > 0 && a.profile.epochs != b.profile.epochs) return "epochs";
  if (a.alive != b.alive) return "alive_peers";
  if (a.joined != b.joined) return "joined";
  if (a.departed != b.departed) return "departed";
  if (a.biggest_cluster_pct != b.biggest_cluster_pct) {
    return "biggest_cluster_pct";
  }
  return "";
}

/// "0,1,4" -> {0, 1, 4}; throws std::invalid_argument on an empty item,
/// junk, a negative or a count above experiment_config::max_shards.
std::vector<std::size_t> parse_shards(const std::string& text) {
  std::vector<std::size_t> ks;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view item(text.data() + pos, comma - pos);
    std::size_t k = 0;
    const auto [end, ec] =
        std::from_chars(item.data(), item.data() + item.size(), k);
    if (ec != std::errc{} || end != item.data() + item.size() ||
        k > runtime::experiment_config::max_shards) {
      throw std::invalid_argument(
          "--shards: bad shard count '" + std::string(item) +
          "' (expected a comma-separated list of 0.." +
          std::to_string(runtime::experiment_config::max_shards) + ")");
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
  const auto* shards_flag = flags.add_string(
      "shards", "0",
      "comma-separated shard counts, one run of the same universe per K "
      "(0 = serial engine; K >= 1 = sharded engine, byte-identical for "
      "every K)");
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
  std::vector<std::size_t> plan;
  try {
    flags.parse(argc, argv);
    plan = parse_shards(*shards_flag);
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

  std::vector<run_outcome> outcomes;
  outcomes.reserve(plan.size());
  bool consistent = true;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    cfg.shards = plan[i];
    // The trace covers the last run (one file, one run).
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

    // Determinism contract, asserted as the list goes: each run is held
    // against the first run of its engine family (K >= 1, or serial).
    const run_outcome& now = outcomes.back();
    const auto first = std::find_if(
        outcomes.begin(), outcomes.end(), [&now](const run_outcome& r) {
          return (r.shards == 0) == (now.shards == 0);
        });
    const std::string field = first_divergence(*first, now);
    if (!field.empty()) {
      std::cerr << "DIVERGENCE on " << field << ": shards=" << first->shards
                << " (digest " << first->digest_hex << ") vs shards="
                << now.shards << " (digest " << now.digest_hex << ")\n";
      consistent = false;
    }
  }

  workload::bench_report report("scale");
  report.param("n", static_cast<std::int64_t>(cfg.peer_count));
  report.param("warmup_periods", *warmup);
  report.param("churn_periods", *churn_rounds);
  report.param("arrivals_per_sec", *arrivals);
  report.param("rebind_frac", *rebind);
  report.param("shards", *shards_flag);
  if (!profile_name->empty()) report.param("profile", *profile_name);
  report.param("seed", static_cast<std::int64_t>(cfg.seed));

  util::json runs = util::json::array();
  std::cout << "# runs:";
  for (const run_outcome& r : outcomes) {
    runs.push_back(run_row(r, outcomes.front().events_per_sec));
    std::cout << " K=" << r.shards << ":"
              << static_cast<std::uint64_t>(r.events_per_sec) << "ev/s";
  }
  std::cout << "\n";
  util::json results = util::json::object();
  results["runs"] = std::move(runs);
  results["digests_consistent"] = consistent;
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
  return consistent ? 0 : 1;
}
