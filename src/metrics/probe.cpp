#include "metrics/probe.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>

#include "core/nylon_peer.h"
#include "metrics/bandwidth.h"
#include "metrics/graph_analysis.h"
#include "metrics/randomness.h"
#include "metrics/traversal_check.h"
#include "nat/nat_type.h"
#include "runtime/scenario.h"
#include "util/contracts.h"
#include "util/stats.h"

namespace nylon::metrics {

std::string_view to_string(probe_kind k) noexcept {
  switch (k) {
    case probe_kind::scalar: return "scalar";
    case probe_kind::per_class: return "per_class";
    case probe_kind::distribution: return "distribution";
    case probe_kind::check: return "check";
  }
  return "?";
}

distribution_summary summarize_stream(
    const util::running_stats& stats) noexcept {
  distribution_summary out;
  out.count = stats.count();
  if (out.count == 0) return out;
  out.mean = stats.mean();
  out.stddev = stats.stddev();
  out.min = stats.min();
  out.max = stats.max();
  return out;
}

distribution_summary summarize_samples(const util::running_stats& stats,
                                       std::vector<double> samples) {
  distribution_summary out = summarize_stream(stats);
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.has_quantiles = true;
  out.p50 = util::percentile_sorted(samples, 0.5);
  out.p90 = util::percentile_sorted(samples, 0.9);
  out.p99 = util::percentile_sorted(samples, 0.99);
  return out;
}

runtime::scenario& probe_context::world() const {
  if (world_ == nullptr) {
    throw contract_error(
        "probe context has no simulated world (static evaluation)");
  }
  return *world_;
}

const reachability_oracle& probe_context::oracle() const {
  if (oracle_ == nullptr) {
    throw contract_error(
        "probe context has no reachability oracle (static evaluation)");
  }
  return *oracle_;
}

namespace {

cluster_metrics clusters_of(const probe_context& ctx) {
  return measure_clusters(ctx.world().transport(), ctx.world().peers(),
                          ctx.oracle());
}

view_metrics views_of(const probe_context& ctx) {
  return measure_views(ctx.world().transport(), ctx.world().peers(),
                       ctx.oracle());
}

bandwidth_report bandwidth_of(const probe_context& ctx) {
  if (ctx.measure_window <= 0) return bandwidth_report{};
  return measure_bandwidth(ctx.world().transport(), ctx.world().peers(),
                           ctx.measure_window);
}

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole > 0
             ? 100.0 * static_cast<double>(part) / static_cast<double>(whole)
             : 0.0;
}

/// The sampled-id stream the randomness battery judges: one sample()
/// per peer per pass (id order), eight passes, so consecutive stream
/// elements come from independent views — the exact stream the §5
/// correctness bench used. Draws consume each peer's rng, which is fine
/// at probe time (nothing simulates afterwards) and deterministic
/// because probes evaluate in declaration order. Built once per context
/// and cached, so every sample_* probe of one run judges the same
/// stream.
const battery_result& battery_of(const probe_context& ctx) {
  if (ctx.battery.has_value()) return *ctx.battery;
  const auto peers = ctx.world().peers();
  if (peers.size() < 2) {
    ctx.battery = battery_result{};
    return *ctx.battery;
  }
  std::vector<std::uint32_t> sampled;
  sampled.reserve(peers.size() * 8);
  for (int pass = 0; pass < 8; ++pass) {
    for (const auto& p : peers) {
      if (const auto s = p->sample()) sampled.push_back(s->id);
    }
  }
  ctx.battery = run_battery(sampled, peers.size());
  return *ctx.battery;
}

// Constructors for the typed values, keeping registry entries terse.
probe_value sv(double v) {
  probe_value out;
  out.scalar = v;
  return out;
}

probe_value classes_value(
    std::vector<std::pair<std::string, double>> classes) {
  probe_value out;
  out.kind = probe_kind::per_class;
  out.classes = std::move(classes);
  return out;
}

probe_value dist_value(distribution_summary dist) {
  probe_value out;
  out.kind = probe_kind::distribution;
  out.dist = dist;
  return out;
}

probe_value check_value(check_result check) {
  probe_value out;
  out.kind = probe_kind::check;
  out.check = std::move(check);
  return out;
}

std::string fmt1(const char* pattern, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, pattern, v);
  return buf;
}

const std::string& require_param(const probe_context& ctx, const char* name,
                                 const char* probe_name) {
  const auto it = ctx.params.find(name);
  if (it == ctx.params.end()) {
    throw contract_error(std::string("probe \"") + probe_name +
                         "\" needs a \"%" + name +
                         "\" parameter (a '%'-prefixed axis or set key)");
  }
  return it->second;
}

nat::nat_type nat_param(const probe_context& ctx, const char* name,
                        const char* probe_name) {
  const std::string& token = require_param(ctx, name, probe_name);
  const auto parsed = nat::nat_type_from_string(token);
  if (!parsed.has_value()) {
    throw contract_error(std::string("probe \"") + probe_name + "\": \"%" +
                         name + "\" value \"" + token +
                         "\" is not a NAT type (public | FC | RC | PRC | "
                         "SYM)");
  }
  return *parsed;
}

// Registry, alphabetical by name. Every entry is a plain function so the
// table stays constexpr-constructible and trivially inspectable.
constexpr std::array probes{
    probe{.name = "all_bytes_per_s",
          .description = "mean bytes/s sent+received per alive peer (Fig. 7)",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                return sv(bandwidth_of(ctx).all_bytes_per_s);
              }},
    probe{.name = "alive_count",
          .description = "number of alive peers",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                return sv(static_cast<double>(ctx.world().alive_count()));
              }},
    probe{.name = "biggest_cluster_pct",
          .description =
              "biggest connected cluster, % of alive peers (Figs. 2, 10)",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                return sv(clusters_of(ctx).biggest_cluster_pct);
              }},
    probe{.name = "check_connected",
          .description =
              "passes when the overlay forms a single cluster (Sec. 5)",
          .kind = probe_kind::check,
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                const cluster_metrics m = clusters_of(ctx);
                check_result c;
                c.passed = m.cluster_count <= 1;
                c.cell = c.passed ? "ok" : "split";
                c.detail = "clusters=" + std::to_string(m.cluster_count) +
                           " biggest=" +
                           fmt1("%.1f", m.biggest_cluster_pct) +
                           "% of alive";
                return check_value(std::move(c));
              }},
    probe{.name = "check_no_dead_refs",
          .description =
              "passes when no view entry points at a departed peer",
          .kind = probe_kind::check,
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                const view_metrics v = views_of(ctx);
                check_result c;
                c.passed = v.dead_entries == 0;
                c.cell = c.passed ? "ok" : "dead refs";
                c.detail = std::to_string(v.dead_entries) + " of " +
                           std::to_string(v.total_entries) +
                           " view entries point at departed peers";
                return check_value(std::move(c));
              }},
    probe{.name = "check_sampling_random",
          .description =
              "passes when the sampled-id stream looks random (runs p >= "
              "0.01, |serial| <= 0.1)",
          .kind = probe_kind::check,
          .run =
              [](const probe_context& ctx) {
                const battery_result& b = battery_of(ctx);
                check_result c;
                if (b.samples == 0) {
                  c.cell = "ok";
                  c.detail = "no samples (population < 2)";
                  return check_value(std::move(c));
                }
                const bool runs_ok = b.runs.p_value >= 0.01;
                const bool serial_ok =
                    b.serial >= -0.1 && b.serial <= 0.1;
                c.passed = runs_ok && serial_ok;
                c.cell = c.passed ? "ok" : "biased";
                c.detail = "runs p=" + fmt1("%.3f", b.runs.p_value) +
                           " serial=" + fmt1("%.4f", b.serial);
                return check_value(std::move(c));
              }},
    probe{.name = "class_bytes_per_s",
          .description =
              "mean bytes/s per peer, split by peer class (Fig. 8)",
          .kind = probe_kind::per_class,
          .class_keys = "public,natted,all",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                const bandwidth_report r = bandwidth_of(ctx);
                return classes_value({{"public", r.public_bytes_per_s},
                                      {"natted", r.natted_bytes_per_s},
                                      {"all", r.all_bytes_per_s}});
              }},
    probe{.name = "class_in_degree",
          .description =
              "mean view in-degree per peer, split by peer class (Fig. 8)",
          .kind = probe_kind::per_class,
          .class_keys = "public,natted,all",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                const class_degree_report r = in_degrees_by_class(
                    ctx.world().transport(), ctx.world().peers());
                return classes_value({{"public", r.public_mean},
                                      {"natted", r.natted_mean},
                                      {"all", r.all_mean}});
              }},
    probe{.name = "cluster_count",
          .description = "number of connected clusters",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                return sv(static_cast<double>(clusters_of(ctx).cluster_count));
              }},
    probe{.name = "dead_pct",
          .description = "% of view entries pointing at departed peers",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                const view_metrics v = views_of(ctx);
                return sv(pct(v.dead_entries, v.total_entries));
              }},
    probe{.name = "drop_count",
          .description =
              "cumulative transport drops by reason (class \"total\" sums "
              "them)",
          .kind = probe_kind::per_class,
          .class_keys =
              "unknown_destination,dead_node,nat_filtered,sender_dead,"
              "random_loss,partitioned,total",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                const net::transport& t = ctx.world().transport();
                std::vector<std::pair<std::string, double>> classes;
                classes.reserve(
                    static_cast<std::size_t>(net::drop_reason::count_) + 1);
                for (std::size_t i = 0;
                     i < static_cast<std::size_t>(net::drop_reason::count_);
                     ++i) {
                  const auto r = static_cast<net::drop_reason>(i);
                  classes.emplace_back(
                      std::string(net::to_string(r)),
                      static_cast<double>(t.drops(r)));
                }
                classes.emplace_back(
                    "total", static_cast<double>(t.total_drops()));
                return classes_value(std::move(classes));
              }},
    probe{.name = "fresh_natted_pct",
          .description =
              "% of non-stale view entries pointing at natted peers (Fig. 4)",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                return sv(views_of(ctx).fresh_natted_pct);
              }},
    probe{.name = "in_degree",
          .description =
              "view in-degree distribution over all peers (Sec. 5 "
              "dispersion via stat \"cv\")",
          .kind = probe_kind::distribution,
          .quantiles = true,
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                const std::vector<std::size_t> degrees = in_degrees(
                    ctx.world().transport(), ctx.world().peers());
                util::running_stats stats;
                std::vector<double> samples;
                samples.reserve(degrees.size());
                for (const std::size_t d : degrees) {
                  stats.add(static_cast<double>(d));
                  samples.push_back(static_cast<double>(d));
                }
                return dist_value(summarize_samples(stats,
                                                    std::move(samples)));
              }},
    probe{.name = "indegree_chi2_p",
          .description =
              "chi-square p-value of the in-degree distribution vs uniform",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                const std::vector<std::size_t> degrees = in_degrees(
                    ctx.world().transport(), ctx.world().peers());
                if (degrees.size() < 2) return sv(1.0);
                std::vector<std::uint64_t> counts(degrees.begin(),
                                                  degrees.end());
                std::uint64_t total = 0;
                for (const std::uint64_t c : counts) total += c;
                if (total == 0) return sv(1.0);
                return sv(chi_square_uniform(counts).p_value);
              }},
    probe{.name = "isolated_count",
          .description =
              "alive peers stranded in singleton clusters (no usable "
              "edge in either direction)",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                return sv(static_cast<double>(
                    clusters_of(ctx).isolated_peers));
              }},
    probe{.name = "mean_punch_chain",
          .description =
              "mean rendez-vous chain length of completed punches (Nylon)",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                const runtime::punch_stat_totals t =
                    ctx.world().punch_totals();
                return sv(t.punch_chains.count() ? t.punch_chains.mean()
                                                 : 0.0);
              }},
    probe{.name = "mean_usable_out_degree",
          .description = "mean usable (reachable, fresh) view out-degree",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                return sv(clusters_of(ctx).mean_usable_out_degree);
              }},
    probe{.name = "natted_bytes_per_s",
          .description = "mean bytes/s per natted peer (Fig. 8)",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                return sv(bandwidth_of(ctx).natted_bytes_per_s);
              }},
    probe{.name = "public_bytes_per_s",
          .description = "mean bytes/s per public peer (Fig. 8)",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                return sv(bandwidth_of(ctx).public_bytes_per_s);
              }},
    probe{.name = "punch_expired_pct",
          .description =
              "% of hole punches that expired without a PONG (traversal "
              "failures, Nylon)",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                const runtime::punch_stat_totals t =
                    ctx.world().punch_totals();
                return sv(pct(t.expired, t.started));
              }},
    probe{.name = "punch_success_pct",
          .description = "% of started hole punches that completed (Nylon)",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                const runtime::punch_stat_totals t =
                    ctx.world().punch_totals();
                return sv(pct(t.completed, t.started));
              }},
    probe{.name = "received_bytes_per_s",
          .description = "mean receive-side bytes/s per peer",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                return sv(bandwidth_of(ctx).received_bytes_per_s);
              }},
    probe{.name = "rvp_chain",
          .description =
              "RVP forwarding-chain length distribution: hole punches "
              "plus relayed REQUESTs (Fig. 9, Nylon)",
          .kind = probe_kind::distribution,
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                return dist_value(summarize_stream(
                    ctx.world().punch_totals().rvp_chains));
              }},
    probe{.name = "sample_birthday_p",
          .description =
              "birthday-spacings p-value of the sampled-id stream (battery)",
          .run =
              [](const probe_context& ctx) {
                return sv(battery_of(ctx).birthday.p_value);
              }},
    probe{.name = "sample_chi2_p",
          .description =
              "chi-square frequency p-value of the sampled-id stream "
              "(battery)",
          .run =
              [](const probe_context& ctx) {
                return sv(battery_of(ctx).frequency.p_value);
              }},
    probe{.name = "sample_runs_p",
          .description = "runs-test p-value of the sampled-id stream (battery)",
          .run =
              [](const probe_context& ctx) {
                return sv(battery_of(ctx).runs.p_value);
              }},
    probe{.name = "sample_serial",
          .description =
              "lag-1 serial correlation of the sampled-id stream (battery)",
          .run =
              [](const probe_context& ctx) {
                return sv(battery_of(ctx).serial);
              }},
    probe{.name = "sent_bytes_per_s",
          .description = "mean send-side bytes/s per peer",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                return sv(bandwidth_of(ctx).sent_bytes_per_s);
              }},
    probe{.name = "shuffle_success_pct",
          .description = "% of initiated shuffles that got a response",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                std::uint64_t initiated = 0;
                std::uint64_t responses = 0;
                for (const auto& p : ctx.world().peers()) {
                  initiated += p->stats().initiated;
                  responses += p->stats().responses_received;
                }
                return sv(pct(responses, initiated));
              }},
    probe{.name = "stale_pct",
          .description = "% of stale view references (Fig. 3)",
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                return sv(views_of(ctx).stale_pct);
              }},
    probe{.name = "traversal_prescribed",
          .description =
              "packet-level verification of the prescribed traversal "
              "technique for (%src_nat, %dst_nat); cell is the technique, "
              "\"!\" marks a failed exchange (Sec. 2.2)",
          .kind = probe_kind::check,
          .needs_world = false,
          .passive = true,
          .run =
              [](const probe_context& ctx) {
                const nat::nat_type src =
                    nat_param(ctx, "src_nat", "traversal_prescribed");
                const nat::nat_type dst =
                    nat_param(ctx, "dst_nat", "traversal_prescribed");
                const prescribed_result r = run_prescribed(src, dst);
                check_result c;
                c.passed = r.outcome.exchange_completed();
                c.cell = std::string(nat::to_string(r.technique));
                if (!c.passed) c.cell += " !";
                c.detail = std::string(nat::to_string(src)) + "->" +
                           std::string(nat::to_string(dst)) + " via " +
                           std::string(nat::to_string(r.technique)) +
                           ": REQUEST " +
                           (r.outcome.request_delivered ? "delivered"
                                                        : "dropped") +
                           ", RESPONSE " +
                           (r.outcome.response_delivered ? "delivered"
                                                         : "dropped");
                return check_value(std::move(c));
              }},
};

bool has_class_key(const probe& p, std::string_view cls) {
  std::string_view keys = p.class_keys;
  while (!keys.empty()) {
    const std::size_t comma = keys.find(',');
    const std::string_view key = keys.substr(0, comma);
    if (key == cls) return true;
    if (comma == std::string_view::npos) break;
    keys.remove_prefix(comma + 1);
  }
  return false;
}

constexpr std::string_view kStatNames =
    "count | mean | stddev | min | max | cv | p50 | p90 | p99";

double dist_stat(const probe_selector& sel, const distribution_summary& d) {
  const std::string& stat = sel.stat;
  if (stat == "count") return static_cast<double>(d.count);
  if (stat == "mean") return d.mean;
  if (stat == "stddev") return d.stddev;
  if (stat == "min") return d.min;
  if (stat == "max") return d.max;
  if (stat == "cv") return d.cv();
  if (stat == "p50") return d.p50;
  if (stat == "p90") return d.p90;
  if (stat == "p99") return d.p99;
  throw contract_error("unknown distribution stat \"" + stat + "\" (" +
                       std::string(kStatNames) + ")");
}

bool is_quantile_stat(std::string_view stat) {
  return stat == "p50" || stat == "p90" || stat == "p99";
}

}  // namespace

const probe* find_probe(std::string_view name) noexcept {
  for (const probe& p : probes) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::span<const probe> all_probes() noexcept { return probes; }

probe_selector resolve_selector(std::string_view probe_name,
                                std::string_view cls, std::string_view stat) {
  const probe* p = find_probe(probe_name);
  if (p == nullptr) {
    throw contract_error("unknown probe \"" + std::string(probe_name) + "\"");
  }
  const std::string name(probe_name);
  switch (p->kind) {
    case probe_kind::scalar:
      if (!cls.empty()) {
        throw contract_error("probe \"" + name +
                             "\" is a scalar probe; it has no classes "
                             "(drop \"class\")");
      }
      if (!stat.empty()) {
        throw contract_error("probe \"" + name +
                             "\" is a scalar probe; it has no stats "
                             "(drop \"stat\")");
      }
      break;
    case probe_kind::per_class:
      if (!stat.empty()) {
        throw contract_error("probe \"" + name +
                             "\" is a per_class probe; select a \"class\", "
                             "not a \"stat\"");
      }
      if (cls.empty()) {
        throw contract_error(
            "probe \"" + name +
            "\" is a per_class probe; a scalar column must select one of "
            "its classes with \"class\" (" +
            std::string(p->class_keys) + ")");
      }
      if (!has_class_key(*p, cls)) {
        throw contract_error("probe \"" + name + "\" has no class \"" +
                             std::string(cls) + "\" (" +
                             std::string(p->class_keys) + ")");
      }
      break;
    case probe_kind::distribution:
      if (!cls.empty()) {
        throw contract_error("probe \"" + name +
                             "\" is a distribution probe; select a "
                             "\"stat\", not a \"class\"");
      }
      if (stat.empty()) {
        throw contract_error(
            "probe \"" + name +
            "\" is a distribution probe; a scalar column must select a "
            "\"stat\" (" +
            std::string(kStatNames) + ")");
      }
      if (is_quantile_stat(stat) && !p->quantiles) {
        throw contract_error("probe \"" + name +
                             "\" streams its samples (moments only); "
                             "quantile stats are unavailable");
      }
      {
        probe_selector probe_check{p, std::string(cls), std::string(stat)};
        (void)dist_stat(probe_check, distribution_summary{});  // validates
      }
      break;
    case probe_kind::check:
      throw contract_error(
          "probe \"" + name +
          "\" is a check probe; it renders a verdict cell, not a scalar "
          "column (use it in a static spec's columns or a \"checks\" "
          "list)");
  }
  return probe_selector{p, std::string(cls), std::string(stat)};
}

double extract_scalar(const probe_selector& sel, const probe_value& value) {
  NYLON_EXPECTS(sel.p != nullptr);
  switch (value.kind) {
    case probe_kind::scalar:
      return value.scalar;
    case probe_kind::per_class:
      for (const auto& [key, v] : value.classes) {
        if (key == sel.cls) return v;
      }
      throw contract_error("probe \"" + std::string(sel.p->name) +
                           "\" did not emit class \"" + sel.cls + "\"");
    case probe_kind::distribution:
      return dist_stat(sel, value.dist);
    case probe_kind::check:
      return value.check.passed ? 1.0 : 0.0;
  }
  return 0.0;
}

double eval_scalar(const probe_selector& sel, const probe_context& ctx) {
  NYLON_EXPECTS(sel.p != nullptr);
  return extract_scalar(sel, sel.p->run(ctx));
}

}  // namespace nylon::metrics
