// The one experiment driver: executes any declarative experiment spec
// (examples/specs/*.json) — sweep axes, typed probes, workload programs,
// per-spec profiles, table and BENCH_*.json emission:
//
//   nylon_exp examples/specs/fig3_stale.json --n 2000 --seeds 8 --json out.json
//
// Flags choose scale, seeding, engine and outputs; what the study varies
// (latency model, protocol, NAT mix) lives in the spec's "base" block.
// Paper scale is per-spec: `--profile full` applies the spec's own
// "profiles.full" override block (explicit flags still win). Exits
// non-zero when any check probe failed.
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/heartbeat.h"
#include "obs/msglog.h"
#include "obs/trace.h"
#include "runtime/spec.h"
#include "metrics/probe.h"
#include "util/flags.h"
#include "util/wall_timer.h"

int main(int argc, char** argv) {
  using namespace nylon;
  util::flag_set flags;
  const auto* n = flags.add_int("n", 600, "population size");
  const auto* seeds = flags.add_int("seeds", 1, "independent seeds per point");
  const auto* rounds =
      flags.add_int("rounds", 100, "shuffle periods before measuring");
  const auto* view_a =
      flags.add_int("view-a", 8, "small view size, resolves $view_a");
  const auto* view_b =
      flags.add_int("view-b", 15, "large view size, resolves $view_b");
  const auto* seed = flags.add_int("seed", 1, "base seed");
  const auto* csv = flags.add_bool("csv", false, "emit CSV instead of a table");
  const auto* profile = flags.add_string(
      "profile", "",
      "apply the spec's named profile (e.g. \"full\" = that spec's "
      "paper-scale block; explicit flags win)");
  const auto* threads = flags.add_int(
      "threads", 0, "worker threads across seeds (0 = all cores, 1 = serial)");
  const auto* shards = flags.add_int(
      "shards", 0,
      "shards per universe (0 = serial engine; K >= 1 = sharded engine, "
      "byte-identical for every K)");
  const auto* json = flags.add_string(
      "json", "", "also write machine-readable results to this file");
  const auto* transport = flags.add_string(
      "transport", "sim",
      "datagram carrier: sim | sim-frames (serialized frames in-sim, "
      "byte-identical digests) | udp (real loopback sockets)");
  const auto* udp_time_scale = flags.add_double(
      "udp-time-scale", 0.0,
      "udp pacing in wall seconds per simulated second (0 = default 0.02)");
  const auto* timeline = flags.add_bool(
      "timeline", false,
      "record the sim-time health timeline even when the spec has no "
      "\"timeline\" block (default passive columns, 5 s period)");
  const auto* timeline_period = flags.add_double(
      "timeline-period", 0.0,
      "override the timeline sampling period in sim seconds (0 = the "
      "spec's own / the 5 s default; implies --timeline)");
  const auto* timeline_csv = flags.add_string(
      "timeline-csv", "",
      "also write the timeline as long-form CSV to this file "
      "(implies --timeline)");
  const auto* msglog = flags.add_int(
      "msglog", 0,
      "message lifecycle flight recorder: sample one in N sent messages "
      "(0 = off, 1 = every message); a failed check dumps the sampled "
      "flight records to stderr");
  const auto* msglog_dump = flags.add_string(
      "msglog-dump", "",
      "write the whole flight recording as JSON to this file at exit "
      "(requires --msglog)");
  const auto* trace_path = flags.add_string(
      "trace", "", "write a Chrome/Perfetto trace of the run to this file");
  const auto* heartbeat_s = flags.add_double(
      "heartbeat", 0.0,
      "print a progress line to stderr every SEC wall seconds (0 = off)");
  const auto* validate_only = flags.add_bool(
      "validate", false, "parse and validate the spec, then exit");
  const auto* list_probes =
      flags.add_bool("list-probes", false, "list the probe registry");
  const auto* list_transports = flags.add_bool(
      "list-transports", false, "list transport backends and constraints");
  const auto* help = flags.add_bool("help", false, "print usage");

  const std::string usage_name = "nylon_exp <spec.json>";
  std::vector<std::string> positional;
  try {
    positional = flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << flags.usage(usage_name);
    return 1;
  }
  if (*help) {
    std::cout << flags.usage(usage_name);
    return 0;
  }
  if (*list_probes) {
    for (const metrics::probe& p : metrics::all_probes()) {
      std::cout << p.name << "  [" << metrics::to_string(p.kind) << "]\n"
                << "    " << p.description << "\n";
    }
    return 0;
  }
  if (*list_transports) {
    std::cout
        << "sim  [default]\n"
        << "    in-memory payload structs through the event queue; the\n"
        << "    golden-digest-pinned engine (serial or --shards K)\n"
        << "sim-frames\n"
        << "    every datagram rides as its serialized v1 wire frame,\n"
        << "    decoded before dispatch; state digests byte-identical\n"
        << "    to sim (serial or --shards K)\n"
        << "udp\n"
        << "    real nonblocking UDP sockets on loopback, one per\n"
        << "    simulated public endpoint; wall-clock paced via\n"
        << "    --udp-time-scale. Constraints: --shards 0 (serial\n"
        << "    engine only), runs in real time, timing-dependent (its\n"
        << "    own stream, no digest pins)\n";
    return 0;
  }
  if (positional.size() != 1) {
    std::cerr << "exactly one spec file expected\n" << flags.usage(usage_name);
    return 1;
  }
  // Scale flags are narrowed below: reject negatives before a -1 wraps
  // into a huge population or silently runs an empty study.
  for (const auto& [name, value] :
       {std::pair<const char*, std::int64_t>{"n", *n}, {"seeds", *seeds},
        {"rounds", *rounds}, {"view-a", *view_a}, {"view-b", *view_b}}) {
    if (value < 0) {
      std::cerr << "--" << name << " must be >= 0\n"
                << flags.usage(usage_name);
      return 1;
    }
  }
  if (*threads < 0) {
    std::cerr << "--threads must be >= 0 (0 = all cores)\n"
              << flags.usage(usage_name);
    return 1;
  }
  if (*shards < 0) {
    std::cerr << "--shards must be >= 0 (0 = serial engine)\n"
              << flags.usage(usage_name);
    return 1;
  }
  if (*transport != "sim" && *transport != "sim-frames" && *transport != "udp") {
    std::cerr << "--transport must be sim, sim-frames or udp "
                 "(see --list-transports)\n"
              << flags.usage(usage_name);
    return 1;
  }
  if (*transport == "udp" && *shards != 0) {
    std::cerr << "--transport udp requires --shards 0 (serial engine; "
                 "see --list-transports)\n"
              << flags.usage(usage_name);
    return 1;
  }
  if (*udp_time_scale < 0) {
    std::cerr << "--udp-time-scale must be >= 0 (0 = default)\n"
              << flags.usage(usage_name);
    return 1;
  }
  if (*timeline_period < 0) {
    std::cerr << "--timeline-period must be >= 0 (0 = spec default)\n"
              << flags.usage(usage_name);
    return 1;
  }
  if (*msglog < 0) {
    std::cerr << "--msglog must be >= 0 (0 = off)\n"
              << flags.usage(usage_name);
    return 1;
  }
  if (!msglog_dump->empty() && *msglog == 0) {
    std::cerr << "--msglog-dump requires --msglog N\n"
              << flags.usage(usage_name);
    return 1;
  }

  runtime::spec_options opt;
  opt.peers = static_cast<std::size_t>(*n);
  opt.seeds = static_cast<int>(*seeds);
  opt.rounds = static_cast<int>(*rounds);
  opt.view_a = static_cast<std::size_t>(*view_a);
  opt.view_b = static_cast<std::size_t>(*view_b);
  opt.csv = *csv;
  opt.seed = static_cast<std::uint64_t>(*seed);
  opt.threads = static_cast<int>(*threads);
  opt.shards = static_cast<std::size_t>(*shards);
  opt.json = *json;
  opt.transport = *transport;
  opt.udp_time_scale = *udp_time_scale;
  opt.timeline = *timeline || *timeline_period > 0 || !timeline_csv->empty();
  opt.timeline_period_s = *timeline_period;
  opt.timeline_csv = *timeline_csv;
  opt.profile = *profile;
  opt.peers_explicit = flags.provided("n");
  opt.seeds_explicit = flags.provided("seeds");
  opt.rounds_explicit = flags.provided("rounds");
  opt.view_a_explicit = flags.provided("view-a");
  opt.view_b_explicit = flags.provided("view-b");

  try {
    const runtime::experiment_spec spec =
        runtime::load_spec_file(positional.front());
    if (*validate_only) {
      std::cout << positional.front() << ": ok (" << spec.name << ")\n";
      return 0;
    }
    // Telemetry output stays on stderr: run_spec's stdout (and its JSON
    // report) are pinned byte-for-byte by the equivalence tests.
    if (!trace_path->empty()) obs::start_trace();
    if (*msglog > 0) obs::msglog_start(static_cast<std::uint64_t>(*msglog));
    const obs::heartbeat beat(*heartbeat_s);
    util::wall_timer total;
    const util::json report = runtime::run_spec(spec, opt, std::cout);
    obs::stop_trace();
    std::cerr << "# nylon_exp: " << spec.name << " finished in "
              << total.seconds() << " s\n";
    if (!trace_path->empty()) {
      if (!obs::write_trace_file(*trace_path)) return 1;
      const obs::trace_stats stats = obs::trace_statistics();
      std::cerr << "# trace: " << stats.recorded << " spans from "
                << stats.threads << " threads -> " << *trace_path << "\n";
    }
    if (*msglog > 0) {
      const obs::msglog_stats stats = obs::msglog_statistics();
      std::cerr << "# msglog: " << stats.recorded << " hops held ("
                << stats.dropped << " evicted) from " << stats.threads
                << " threads\n";
      if (!msglog_dump->empty()) {
        util::write_json_file(*msglog_dump, obs::msglog_to_json());
        std::cerr << "# msglog: recording -> " << *msglog_dump << "\n";
      }
      obs::msglog_stop();
    }
    if (!runtime::all_checks_passed(report)) return 1;
  } catch (const std::exception& e) {
    std::cerr << "nylon_exp: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
