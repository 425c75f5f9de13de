#include "runtime/spec.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>

#include "core/peer_factory.h"
#include "gossip/policies.h"
#include "metrics/probe.h"
#include "obs/counters.h"
#include "obs/msglog.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "runtime/experiment_config.h"
#include "runtime/runner.h"
#include "runtime/scenario.h"
#include "runtime/table_printer.h"
#include "util/contracts.h"
#include "workload/engine.h"
#include "workload/program.h"
#include "workload/report.h"

namespace nylon::runtime {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw contract_error("experiment spec: " + what);
}

/// Rejects unknown keys so a typo runs nothing instead of the wrong study.
void ensure_keys(const util::json& j,
                 std::initializer_list<std::string_view> allowed,
                 const char* what) {
  util::require_known_keys(j, allowed, what, "experiment spec: ");
}

/// The raw token of a JSON scalar, preserving the literal's spelling
/// ("40" stays "40", 0.25 stays "0.25") so it doubles as the row label.
std::string token_of(const util::json& v) {
  if (v.is_string()) return v.as_string();
  if (v.is_int()) return std::to_string(v.as_int());
  if (v.is_double()) {
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v.as_double());
    NYLON_ENSURES(ec == std::errc{});
    return std::string(buf, end);
  }
  bad("axis / setting values must be numbers or strings");
}

/// Resolves a value token to a number. "$view_a"/"$view_b" refer to the
/// driver options (nylon_exp's --view-a/--view-b flags).
double numeric_token(const std::string& key, const std::string& token,
                     const spec_options& opt) {
  if (token == "$view_a") return static_cast<double>(opt.view_a);
  if (token == "$view_b") return static_cast<double>(opt.view_b);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size() ||
      errno == ERANGE) {
    bad("\"" + key + "\" value \"" + token + "\" is not a number");
  }
  return v;
}

std::size_t count_token(const std::string& key, const std::string& token,
                        const spec_options& opt) {
  const double v = numeric_token(key, token, opt);
  // Range-checked before the cast: a double at or above 2^64 (or inf)
  // has no size_t value, and converting it is undefined behaviour.
  constexpr double size_limit =
      static_cast<double>(std::numeric_limits<std::size_t>::max());
  if (v < 0 || v != std::floor(v) || v >= size_limit) {
    bad("\"" + key + "\" value \"" + token +
        "\" must be a non-negative integer below 2^64");
  }
  return static_cast<std::size_t>(v);
}

/// The value named by `token` among a key's symbolic options.
template <typename T>
T choose(const std::string& key, const std::string& token,
         std::initializer_list<std::pair<std::string_view, T>> options) {
  std::string names;
  for (const auto& [name, value] : options) {
    if (token == name) return value;
    names += names.empty() ? "" : " | ";
    names += name;
  }
  bad("unknown " + key + " \"" + token + "\" (" + names + ")");
}

/// Applies one key=value override to a config and returns the table
/// label of the value ("nylon", "40", "pushpull,rand,healer", ...).
std::string apply_setting(experiment_config& cfg, const std::string& key,
                          const std::string& token, const spec_options& opt) {
  const bool symbolic = token == "$view_a" || token == "$view_b";
  if (key == "peers") {
    cfg.peer_count = count_token(key, token, opt);
    return token;
  }
  if (key == "natted_pct") {
    const double v = numeric_token(key, token, opt);
    if (v < 0 || v > 100) bad("\"natted_pct\" must be within [0, 100]");
    cfg.natted_fraction = v / 100.0;
    return token;
  }
  if (key == "natted_fraction") {
    const double v = numeric_token(key, token, opt);
    if (v < 0 || v > 1) bad("\"natted_fraction\" must be within [0, 1]");
    cfg.natted_fraction = v;
    return token;
  }
  if (key == "view_size") {
    const std::size_t v = count_token(key, token, opt);
    if (v == 0) bad("\"view_size\" must be positive");
    cfg.gossip.view_size = v;
    return symbolic ? std::to_string(v) : token;
  }
  if (key == "baseline_config") {
    const std::size_t i = count_token(key, token, opt);
    if (i >= gossip::baseline_config_count()) {
      bad("\"baseline_config\" index out of range");
    }
    cfg.gossip = gossip::baseline_config(static_cast<std::uint8_t>(i),
                                         cfg.gossip.view_size);
    return gossip::config_label(cfg.gossip);
  }
  if (key == "protocol") {
    cfg.protocol = choose<core::protocol_kind>(
        key, token,
        {{"reference", core::protocol_kind::reference},
         {"nylon", core::protocol_kind::nylon},
         {"arrg", core::protocol_kind::arrg}});
    return token;
  }
  if (key == "mix") {
    cfg.mix = choose<nat::nat_mix>(key, token,
                                   {{"paper", nat::paper_mix()},
                                    {"prc_only", nat::prc_only_mix()}});
    return token;
  }
  if (key == "selection") {
    cfg.gossip.selection = choose<gossip::selection_policy>(
        key, token,
        {{"rand", gossip::selection_policy::rand},
         {"tail", gossip::selection_policy::tail}});
    return token;
  }
  if (key == "propagation") {
    cfg.gossip.propagation = choose<gossip::propagation_policy>(
        key, token,
        {{"push", gossip::propagation_policy::push},
         {"pushpull", gossip::propagation_policy::pushpull}});
    return token;
  }
  if (key == "merge") {
    cfg.gossip.merge = choose<gossip::merge_policy>(
        key, token,
        {{"blind", gossip::merge_policy::blind},
         {"healer", gossip::merge_policy::healer},
         {"swapper", gossip::merge_policy::swapper}});
    return token;
  }
  if (key == "shuffle_period_s") {
    const double v = numeric_token(key, token, opt);
    if (v <= 0) bad("\"shuffle_period_s\" must be positive");
    cfg.gossip.shuffle_period =
        static_cast<sim::sim_time>(std::llround(v * 1000.0));
    return token;
  }
  if (key == "hole_timeout_s") {
    const double v = numeric_token(key, token, opt);
    if (v <= 0) bad("\"hole_timeout_s\" must be positive");
    cfg.hole_timeout = static_cast<sim::sim_time>(std::llround(v * 1000.0));
    return token;
  }
  if (key == "latency_model") {
    using kind = experiment_config::latency_kind;
    cfg.latency_model = choose<kind>(key, token,
                                     {{"fixed", kind::fixed},
                                      {"uniform", kind::uniform},
                                      {"lognormal", kind::lognormal}});
    return token;
  }
  if (key == "latency_ms") {
    cfg.latency = static_cast<sim::sim_time>(count_token(key, token, opt));
    return token;
  }
  if (key == "latency_max_ms") {
    cfg.latency_max = static_cast<sim::sim_time>(count_token(key, token, opt));
    return token;
  }
  if (key == "latency_sigma") {
    const double v = numeric_token(key, token, opt);
    if (v <= 0) bad("\"latency_sigma\" must be positive");
    cfg.latency_sigma = v;
    return token;
  }
  if (key == "loss_rate") {
    const double v = numeric_token(key, token, opt);
    if (v < 0 || v > 1) bad("\"loss_rate\" must be within [0, 1]");
    cfg.loss_rate = v;
    return token;
  }
  if (key == "shards") {
    cfg.shards = count_token(key, token, opt);
    return token;
  }
  if (key == "transport") {
    cfg.transport = choose<transport_kind>(
        key, token,
        {{"sim", transport_kind::sim},
         {"sim-frames", transport_kind::sim_frames},
         {"udp", transport_kind::udp}});
    return token;
  }
  if (key == "udp_time_scale") {
    const double v = numeric_token(key, token, opt);
    if (v <= 0) bad("\"udp_time_scale\" must be positive");
    cfg.udp_time_scale = v;
    return token;
  }
  bad("unknown config key \"" + key + "\"");
}

/// '$'-prefixed keys are workload variables, not config keys: their
/// tokens substitute into the spec's workload JSON instead of touching
/// the experiment_config.
bool is_workload_var(const std::string& key) {
  return !key.empty() && key.front() == '$';
}

/// '%'-prefixed keys are probe parameters: their tokens land in
/// probe_context::params (the §2.2 table's NAT-type axes).
bool is_param_key(const std::string& key) {
  return !key.empty() && key.front() == '%';
}

/// Leading numeric value of a variable token; tolerates a trailing
/// annotation ("50%" -> 50) so tokens double as table labels.
double var_numeric(const std::string& name, const std::string& token) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || errno == ERANGE) {
    bad("variable \"" + name + "\" value \"" + token + "\" is not numeric");
  }
  return v;
}

/// JSON number for a resolved variable (int when integral, like the
/// literals it replaces).
util::json var_value(double v) {
  const auto as_int = static_cast<std::int64_t>(std::llround(v));
  if (std::abs(v - static_cast<double>(as_int)) < 1e-9) {
    return util::json(as_int);
  }
  return util::json(v);
}

using var_map = std::map<std::string, std::string>;
using param_map = std::map<std::string, std::string>;

/// Resolves "$name" / "$name/DIVISOR" string values against `vars`,
/// recursing through objects and arrays; everything else copies through.
util::json resolve_workload_vars(const util::json& j, const var_map& vars) {
  if (j.is_string()) {
    const std::string& s = j.as_string();
    if (s.size() < 2 || s.front() != '$') return j;
    const std::size_t slash = s.find('/');
    const std::string name = s.substr(1, slash == std::string::npos
                                             ? std::string::npos
                                             : slash - 1);
    const auto it = vars.find(name);
    if (it == vars.end()) return j;  // not a variable (e.g. "$view_a")
    double v = var_numeric(name, it->second);
    if (slash != std::string::npos) {
      const double divisor = var_numeric(name, s.substr(slash + 1));
      if (divisor == 0.0) bad("variable \"" + s + "\" divides by zero");
      v /= divisor;
    }
    return var_value(v);
  }
  if (j.is_array()) {
    util::json out = util::json::array();
    for (const util::json& item : j.array_items()) {
      out.push_back(resolve_workload_vars(item, vars));
    }
    return out;
  }
  if (j.is_object()) {
    util::json out = util::json::object();
    for (const auto& [key, value] : j.object_items()) {
      out[key] = resolve_workload_vars(value, vars);
    }
    return out;
  }
  return j;
}

/// The driver-derived builtin variables every spec may reference.
var_map builtin_vars(const spec_options& opt) {
  var_map vars;
  vars["rounds"] = std::to_string(opt.rounds);
  vars["half_rounds"] = std::to_string(opt.rounds / 2);
  return vars;
}

/// Parses a "name=$var" / "name=literal" report-param entry against the
/// builtin variables; nullopt when `p` is a plain builtin param name
/// (no '='). One parser serves validate() and run_spec() so the two can
/// never drift. Throws on unknown variables or non-numeric literals.
std::optional<std::pair<std::string, util::json>> param_override(
    const std::string& p, const var_map& builtins) {
  const std::size_t eq = p.find('=');
  if (eq == std::string::npos) return std::nullopt;
  const std::string name = p.substr(0, eq);
  std::string value = p.substr(eq + 1);
  if (name.empty()) bad("report param \"" + p + "\" has no name");
  if (value.size() > 1 && value.front() == '$') {
    const auto it = builtins.find(value.substr(1));
    if (it == builtins.end()) {
      bad("report param \"" + p + "\" references unknown variable \"" +
          value + "\" ($rounds | $half_rounds | a profile var)");
    }
    value = it->second;
  }
  return std::make_pair(name, var_value(var_numeric(name, value)));
}

/// Replaces $view_a / $view_b in header text with the resolved sizes.
std::string subst_views(std::string text, const spec_options& opt) {
  for (const auto& [token, value] :
       {std::pair<std::string_view, std::size_t>{"$view_a", opt.view_a},
        std::pair<std::string_view, std::size_t>{"$view_b", opt.view_b}}) {
    for (std::size_t at = text.find(token); at != std::string::npos;
         at = text.find(token, at)) {
      text.replace(at, token.size(), std::to_string(value));
    }
  }
  return text;
}

/// Replaces the first "{}" with `label` (section / table-key patterns).
std::string subst_braces(std::string pattern, const std::string& label) {
  const std::size_t at = pattern.find("{}");
  if (at != std::string::npos) pattern.replace(at, 2, label);
  return pattern;
}

std::vector<spec_setting> settings_from_json(const util::json& j,
                                             const char* what) {
  if (!j.is_object()) bad(std::string(what) + " must be an object");
  std::vector<spec_setting> out;
  out.reserve(j.size());
  for (const auto& [key, value] : j.object_items()) {
    out.emplace_back(key, token_of(value));
  }
  return out;
}

std::vector<std::string> values_from_json(const util::json& j,
                                          const char* what) {
  std::vector<std::string> out;
  if (const util::json* values = j.find("values")) {
    if (j.find("range") != nullptr) {
      bad(std::string(what) + ": \"values\" and \"range\" are exclusive");
    }
    if (!values->is_array() || values->size() == 0) {
      bad(std::string(what) + ": \"values\" must be a non-empty array");
    }
    for (const util::json& v : values->array_items()) {
      out.push_back(token_of(v));
    }
    return out;
  }
  const util::json* range = j.find("range");
  if (range == nullptr) {
    bad(std::string(what) + ": one of \"values\" / \"range\" required");
  }
  ensure_keys(*range, {"from", "to", "step"}, "range");
  const util::json* from = range->find("from");
  const util::json* to = range->find("to");
  const util::json* step = range->find("step");
  if (from == nullptr || to == nullptr || !from->is_int() || !to->is_int()) {
    bad(std::string(what) + ": range needs integer \"from\" / \"to\"");
  }
  std::int64_t stride = 1;
  if (step != nullptr) {
    if (!step->is_int() || step->as_int() <= 0) {
      bad(std::string(what) + ": range \"step\" must be a positive integer");
    }
    stride = step->as_int();
  }
  if (to->as_int() < from->as_int()) {
    bad(std::string(what) + ": range \"to\" below \"from\"");
  }
  for (std::int64_t v = from->as_int(); v <= to->as_int(); v += stride) {
    out.push_back(std::to_string(v));
  }
  return out;
}

spec_axis axis_from_json(const util::json& j, bool needs_header,
                         const char* what) {
  ensure_keys(j, {"axis", "header", "values", "range", "cell_key"}, what);
  spec_axis out;
  const util::json* key = j.find("axis");
  if (key == nullptr || !key->is_string()) {
    bad(std::string(what) + " needs an \"axis\" key name");
  }
  out.key = key->as_string();
  if (const util::json* header = j.find("header")) {
    if (!header->is_string()) bad("axis \"header\" must be a string");
    out.header = header->as_string();
  } else if (needs_header) {
    bad(std::string(what) + " needs a \"header\"");
  }
  if (const util::json* cell_key = j.find("cell_key")) {
    if (!cell_key->is_string()) bad("axis \"cell_key\" must be a string");
    out.cell_key = cell_key->as_string();
  }
  out.values = values_from_json(j, what);
  return out;
}

int precision_from_json(const util::json& j) {
  const util::json* p = j.find("precision");
  if (p == nullptr) return 1;
  if (!p->is_int() || p->as_int() < 0 || p->as_int() > 9) {
    bad("\"precision\" must be an integer in [0, 9]");
  }
  return static_cast<int>(p->as_int());
}

bool bool_from_json(const util::json& j, const char* key) {
  const util::json* v = j.find(key);
  if (v == nullptr) return false;
  if (!v->is_bool()) bad(std::string("\"") + key + "\" must be a bool");
  return v->as_bool();
}

/// The string at `key` ("" when absent).
std::string string_from_json(const util::json& j, const char* key) {
  const util::json* v = j.find(key);
  if (v == nullptr) return {};
  if (!v->is_string()) {
    bad(std::string("\"") + key + "\" must be a string");
  }
  return v->as_string();
}

/// The string array at `key` (empty when absent).
std::vector<std::string> strings_from_json(const util::json& j,
                                           const char* key) {
  std::vector<std::string> out;
  const util::json* v = j.find(key);
  if (v == nullptr) return out;
  const auto reject = [key] {
    bad(std::string("\"") + key + "\" must be an array of strings");
  };
  if (!v->is_array()) reject();
  for (const util::json& item : v->array_items()) {
    if (!item.is_string()) reject();
    out.push_back(item.as_string());
  }
  return out;
}

/// Parses a "columns" (`shared` = false) or "probes" (`shared` = true)
/// array. Both hold the same entries; only a per-column run may carry
/// config overrides (`set`, or the `sweep` sugar that expands into one
/// column per swept value, "{}" in the header becoming the value token).
std::vector<spec_entry> entries_from_json(const util::json& j, bool shared) {
  const char* what = shared ? "\"probes\"" : "\"columns\"";
  if (!j.is_array() || j.size() == 0) {
    bad(std::string(what) + " must be a non-empty array");
  }
  std::vector<spec_entry> out;
  for (const util::json& c : j.array_items()) {
    if (!c.is_object()) bad(std::string(what) + " entries must be objects");
    spec_entry entry;
    entry.precision = precision_from_json(c);
    entry.header = string_from_json(c, "header");
    const bool has_header = c.find("header") != nullptr;

    if (const util::json* ratio = c.find("ratio")) {
      ensure_keys(c, {"header", "ratio", "precision"}, "ratio entry");
      if (!ratio->is_array() || ratio->size() != 2 ||
          !ratio->at(std::size_t{0}).is_int() ||
          !ratio->at(std::size_t{1}).is_int()) {
        bad("\"ratio\" must be [numerator_index, denominator_index]");
      }
      if (!has_header) bad("ratio entries need a \"header\"");
      entry.k = spec_entry::kind::ratio;
      entry.ratio_num = static_cast<int>(ratio->at(std::size_t{0}).as_int());
      entry.ratio_den = static_cast<int>(ratio->at(std::size_t{1}).as_int());
      out.push_back(std::move(entry));
      continue;
    }
    if (const util::json* rv = c.find("row_value")) {
      ensure_keys(c, {"header", "row_value", "precision"}, "row_value entry");
      if (!rv->is_bool() || !rv->as_bool()) {
        bad("\"row_value\" must be true when present");
      }
      if (!has_header) bad("row_value entries need a \"header\"");
      entry.k = spec_entry::kind::row_value;
      out.push_back(std::move(entry));
      continue;
    }

    if (shared) {
      ensure_keys(c, {"probe", "header", "class", "stat", "precision"},
                  "probe entry");
    } else {
      ensure_keys(c,
                  {"sweep", "probe", "header", "class", "stat", "set",
                   "precision"},
                  "probe column");
    }
    const util::json* probe = c.find("probe");
    if (probe == nullptr || !probe->is_string()) {
      bad("probe entries need a \"probe\" name");
    }
    entry.probe = probe->as_string();
    if (!has_header) entry.header = entry.probe;
    entry.cls = string_from_json(c, "class");
    entry.stat = string_from_json(c, "stat");
    if (const util::json* set = c.find("set")) {
      entry.set = settings_from_json(*set, "column \"set\"");
    }
    const util::json* sweep = c.find("sweep");
    if (sweep == nullptr) {
      out.push_back(std::move(entry));
      continue;
    }
    if (!has_header) bad("sweep column needs a \"header\" pattern");
    const spec_axis axis = axis_from_json(*sweep, false, "column sweep");
    for (const std::string& token : axis.values) {
      spec_entry col = entry;
      col.header = subst_braces(entry.header, token);
      col.set.emplace_back(axis.key, token);
      col.cell_key = axis.cell_key;
      col.cell_token = token;
      out.push_back(std::move(col));
    }
  }
  return out;
}

std::vector<spec_entry> checks_from_json(const util::json& j) {
  if (!j.is_array() || j.size() == 0) {
    bad("\"checks\" must be a non-empty array");
  }
  std::vector<spec_entry> out;
  for (const util::json& c : j.array_items()) {
    if (!c.is_object()) bad("check entries must be objects");
    ensure_keys(c, {"probe", "name"}, "check entry");
    spec_entry entry;
    const util::json* probe = c.find("probe");
    if (probe == nullptr || !probe->is_string()) {
      bad("check entries need a \"probe\" name");
    }
    entry.probe = probe->as_string();
    entry.header = string_from_json(c, "name");
    if (entry.header.empty()) entry.header = entry.probe;
    out.push_back(std::move(entry));
  }
  return out;
}

spec_verdict verdict_from_json(const util::json& j) {
  if (!j.is_object()) bad("\"verdict\" must be an object");
  ensure_keys(j, {"pass", "fail"}, "verdict");
  const util::json* pass = j.find("pass");
  const util::json* fail = j.find("fail");
  if (pass == nullptr || !pass->is_string() || fail == nullptr ||
      !fail->is_string()) {
    bad("\"verdict\" needs string \"pass\" and \"fail\" lines");
  }
  return spec_verdict{pass->as_string(), fail->as_string()};
}

std::optional<std::int64_t> profile_count_from_json(const util::json& j,
                                                    const char* key) {
  const util::json* v = j.find(key);
  if (v == nullptr) return std::nullopt;
  if (!v->is_int() || v->as_int() <= 0) {
    bad(std::string("profile \"") + key + "\" must be a positive integer");
  }
  return v->as_int();
}

std::vector<std::pair<std::string, spec_profile>> profiles_from_json(
    const util::json& j) {
  if (!j.is_object() || j.size() == 0) {
    bad("\"profiles\" must be a non-empty object of named profiles");
  }
  std::vector<std::pair<std::string, spec_profile>> out;
  for (const auto& [name, body] : j.object_items()) {
    if (name.empty()) bad("profile names must be non-empty");
    if (!body.is_object()) {
      bad("profile \"" + name + "\" must be an object");
    }
    ensure_keys(body, {"peers", "seeds", "rounds", "view_a", "view_b", "vars"},
                "profile");
    spec_profile prof;
    prof.peers = profile_count_from_json(body, "peers");
    prof.seeds = profile_count_from_json(body, "seeds");
    prof.rounds = profile_count_from_json(body, "rounds");
    prof.view_a = profile_count_from_json(body, "view_a");
    prof.view_b = profile_count_from_json(body, "view_b");
    if (const util::json* vars = body.find("vars")) {
      prof.vars = settings_from_json(*vars, "profile \"vars\"");
      for (const auto& [var, token] : prof.vars) {
        if (var.empty()) bad("profile variable names must be non-empty");
        (void)var_numeric(var, token);
      }
    }
    out.emplace_back(name, std::move(prof));
  }
  return out;
}

/// One resolved timeline column: a passive probe selector, or (when
/// `sel.p == nullptr`) a runtime telemetry counter ("obs.<name>").
struct timeline_column {
  metrics::probe_selector sel;
  obs::counter counter = obs::counter::count_;
};

/// Resolves a timeline column token — "name", "name.<class>",
/// "name.<stat>" or "obs.<counter>" — rejecting unknown names and
/// non-passive probes (shared by validate() and run_spec so the two
/// can never drift).
timeline_column resolve_timeline_column(const std::string& token) {
  timeline_column col;
  const std::size_t dot = token.find('.');
  const std::string head =
      token.substr(0, dot == std::string::npos ? token.size() : dot);
  const std::string part =
      dot == std::string::npos ? std::string() : token.substr(dot + 1);
  if (head == "obs") {
    for (std::size_t i = 0; i < obs::counter_count; ++i) {
      const auto c = static_cast<obs::counter>(i);
      if (obs::to_string(c) == part) {
        col.counter = c;
        return col;
      }
    }
    bad("timeline column \"" + token + "\": unknown obs counter \"" + part +
        "\"");
  }
  const metrics::probe* p = metrics::find_probe(head);
  if (p == nullptr) {
    bad("timeline column \"" + token + "\": unknown probe \"" + head + "\"");
  }
  if (!p->passive) {
    bad("timeline column \"" + token + "\": probe \"" + head +
        "\" is not passive (it consumes peer rngs), so a mid-run "
        "evaluation would perturb the simulation");
  }
  if (p->kind == metrics::probe_kind::check) {
    bad("timeline column \"" + token +
        "\": check probes render verdicts, not scalar series");
  }
  const bool wants_stat = p->kind == metrics::probe_kind::distribution;
  col.sel = metrics::resolve_selector(head, wants_stat ? std::string() : part,
                                      wants_stat ? part : std::string());
  return col;
}

/// The column set a bare `--timeline` uses when the spec declares none.
std::vector<std::string> default_timeline_columns() {
  return {"alive_count", "biggest_cluster_pct", "cluster_count",
          "isolated_count", "drop_count.total"};
}

}  // namespace

void experiment_spec::validate() const {
  if (name.empty()) bad("\"name\" is required");
  if (!preamble.empty() && !title.empty()) {
    bad("\"preamble\" replaces the standard preamble; drop \"title\"");
  }
  if (rows.empty()) bad("at least one row axis is required");
  if (columns.empty()) bad("at least one column is required");

  // Dry-run every override against a scratch config with default driver
  // options: catches unknown keys and malformed tokens up front.
  // '$'-keys are workload variables — they bypass the config but their
  // tokens must carry a numeric value, and they need a workload to
  // substitute into. '%'-keys are probe parameters: any non-empty token.
  const spec_options defaults;
  experiment_config scratch;
  const auto check_setting = [&](experiment_config& cfg,
                                 const std::string& key,
                                 const std::string& token) {
    if (is_workload_var(key)) {
      if (!workload.has_value()) {
        bad("variable axis \"" + key + "\" requires a \"workload\"");
      }
      (void)var_numeric(key, token);
      return;
    }
    if (is_param_key(key)) {
      if (key.size() < 2) bad("probe parameter keys need a name after '%'");
      if (token.empty()) {
        bad("probe parameter \"" + key + "\" has an empty value");
      }
      return;
    }
    apply_setting(cfg, key, token, defaults);
  };
  for (const auto& [key, token] : base) {
    check_setting(scratch, key, token);
  }
  if (split.has_value()) {
    if (static_eval) bad("\"split\" is not supported in a static spec");
    if (split->axis.values.empty()) bad("split axis needs values");
    if (split->table_key.empty()) bad("split needs a \"table_key\"");
    for (const std::string& token : split->axis.values) {
      check_setting(scratch, split->axis.key, token);
    }
  }
  for (const spec_axis& axis : rows) {
    if (axis.values.empty()) bad("row axis \"" + axis.key + "\" needs values");
    for (const std::string& token : axis.values) {
      check_setting(scratch, axis.key, token);
    }
  }

  // A probe reference is either a plain scalar-view selector (validated
  // by metrics::resolve_selector, which owns the misuse messages) or a
  // check probe, which renders verdict cells and is only legal in a
  // static spec's columns or the "checks" list.
  bool has_check_cells = !checks.empty();
  for (std::size_t j = 0; j < columns.size(); ++j) {
    const spec_entry& col = columns[j];
    if (col.k == spec_entry::kind::ratio) {
      if (static_eval) {
        bad("ratio columns need seed aggregates; they cannot run in a "
            "\"static\" spec");
      }
      const auto in_range = [&](int i) {
        return i >= 0 && static_cast<std::size_t>(i) < j &&
               columns[static_cast<std::size_t>(i)].k ==
                   spec_entry::kind::probe;
      };
      if (!in_range(col.ratio_num) || !in_range(col.ratio_den)) {
        bad("ratio column \"" + col.header +
            "\" must reference earlier probe columns");
      }
    }
    if (col.k != spec_entry::kind::probe) continue;
    if (shared_run && !col.set.empty()) {
      bad("column \"" + col.header +
          "\" sets config, but \"probes\" share one run per row");
    }
    experiment_config cfg = scratch;
    for (const auto& [key, token] : col.set) check_setting(cfg, key, token);
    const metrics::probe* p = metrics::find_probe(col.probe);
    if (p == nullptr) bad("unknown probe \"" + col.probe + "\"");
    if (static_eval && p->needs_world) {
      bad("probe \"" + col.probe +
          "\" needs a simulated world; it cannot run in a \"static\" spec");
    }
    if (p->kind != metrics::probe_kind::check) {
      (void)metrics::resolve_selector(col.probe, col.cls, col.stat);
      continue;
    }
    if (!static_eval) {
      bad("check probe \"" + col.probe +
          "\" in a column needs a \"static\" spec or the \"checks\" list");
    }
    if (!col.cls.empty() || !col.stat.empty()) {
      bad("check probe \"" + col.probe +
          "\" takes neither \"class\" nor \"stat\"");
    }
    has_check_cells = true;
  }

  for (const spec_entry& c : checks) {
    const metrics::probe* p = metrics::find_probe(c.probe);
    if (p == nullptr) bad("unknown check probe \"" + c.probe + "\"");
    if (p->kind != metrics::probe_kind::check) {
      bad("\"checks\" entry \"" + c.probe + "\" is a " +
          std::string(metrics::to_string(p->kind)) +
          " probe, not a check probe");
    }
  }
  if (!checks.empty()) {
    if (static_eval) {
      bad("a static spec carries its checks as columns; drop the "
          "\"checks\" list");
    }
    if (!shared_run) bad("\"checks\" ride the shared run of \"probes\" mode");
  }
  if (verdict.has_value() && !has_check_cells) {
    bad("\"verdict\" needs check probes (a \"checks\" list or check "
        "columns in a static spec)");
  }

  if (static_eval) {
    if (workload.has_value()) bad("a \"static\" spec cannot have a workload");
    if (!warmup.empty()) bad("a \"static\" spec cannot have a warmup");
    if (cells) bad("\"cells\" needs seed aggregates (non-static specs)");
    if (single_seed) {
      bad("\"single_seed\" is meaningless in a \"static\" spec");
    }
  }

  if (!warmup.empty() && warmup != "half") {
    (void)count_token("warmup", warmup, defaults);
  }
  // Report params must resolve WITHOUT a profile (profiles only override
  // the *values* of builtin variables, never introduce report-param
  // names): a spec that validates must also run profile-less.
  const var_map default_builtins = builtin_vars(defaults);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (std::size_t j = i + 1; j < profiles.size(); ++j) {
      if (profiles[i].first == profiles[j].first) {
        bad("duplicate profile \"" + profiles[i].first + "\"");
      }
    }
  }
  for (const std::string& p : report_params) {
    if (param_override(p, default_builtins).has_value()) continue;
    if (p != "peers" && p != "seeds" && p != "rounds" && p != "seed" &&
        p != "workload") {
      bad("unknown report param \"" + p + "\"");
    }
  }
  if (cells && shared_run) bad("\"cells\" requires \"columns\" mode");
  if (cells) {
    // Cell entries serialize cell_key'd axis values as numbers; reject
    // non-numeric tokens here instead of after the first cell's full
    // multi-seed simulation.
    for (const spec_axis& axis : rows) {
      if (axis.cell_key.empty()) continue;
      for (const std::string& token : axis.values) {
        (void)var_numeric(axis.key, token);
      }
    }
    for (const spec_entry& col : columns) {
      if (!col.cell_key.empty()) {
        (void)var_numeric(col.cell_key, col.cell_token);
      }
    }
  }
  if (workload.has_value()) {
    // Validates phases / sessions; the period only scales durations.
    // Variables resolve against builtins plus each '$' axis's first
    // value, so a parameterized program is structurally checked too.
    var_map vars = builtin_vars(defaults);
    const auto add_first_value = [&vars](const spec_axis& axis) {
      if (is_workload_var(axis.key) && !axis.values.empty()) {
        vars[axis.key.substr(1)] = axis.values.front();
      }
    };
    if (split.has_value()) add_first_value(split->axis);
    for (const spec_axis& axis : rows) add_first_value(axis);
    // Column `set` entries can carry '$' variables too (a column sweep
    // over a workload parameter); seed each one's first value so such
    // specs validate.
    for (const spec_entry& col : columns) {
      for (const auto& [key, token] : col.set) {
        if (is_workload_var(key)) vars.emplace(key.substr(1), token);
      }
    }
    (void)workload::program_from_json(resolve_workload_vars(*workload, vars),
                                      sim::seconds(5));
    if (!warmup.empty()) {
      bad("\"warmup\" has no effect with a \"workload\" (the program "
          "defines the timeline; add a steady phase instead)");
    }
  } else if (trajectories) {
    bad("\"trajectories\" requires a \"workload\"");
  }
  if (trajectory_sample_periods < 0) {
    bad("\"trajectory_sample_periods\" must be >= 0");
  }
  if (timeline.enabled) {
    if (static_eval) {
      bad("a \"static\" spec has no sim time; drop \"timeline\"");
    }
    if (timeline.period_s <= 0) {
      bad("\"timeline\" needs a positive \"period_s\"");
    }
    if (timeline.probes.empty()) {
      bad("\"timeline\" needs a non-empty \"probes\" array");
    }
    for (const std::string& token : timeline.probes) {
      (void)resolve_timeline_column(token);
    }
  }
}

experiment_spec spec_from_json(const util::json& doc) {
  ensure_keys(doc,
              {"name", "title", "preamble", "footer", "base", "split", "rows",
               "columns", "probes", "checks", "verdict", "profiles",
               "report_params", "warmup", "workload", "trajectories",
               "trajectory_sample_periods", "timeline", "cells", "static",
               "single_seed"},
              "spec");
  experiment_spec spec;
  const util::json* name = doc.find("name");
  if (name == nullptr || !name->is_string()) {
    bad("spec needs a string \"name\"");
  }
  spec.name = name->as_string();
  spec.title = string_from_json(doc, "title");
  spec.preamble = strings_from_json(doc, "preamble");
  spec.footer = strings_from_json(doc, "footer");
  if (const util::json* base = doc.find("base")) {
    spec.base = settings_from_json(*base, "\"base\"");
  }
  if (const util::json* split = doc.find("split")) {
    ensure_keys(*split,
                {"axis", "values", "range", "section", "table_key"},
                "split");
    spec_split s;
    util::json axis_part = util::json::object();
    for (const auto& [key, value] : split->object_items()) {
      if (key == "axis" || key == "values" || key == "range") {
        axis_part[key] = value;
      }
    }
    s.axis = axis_from_json(axis_part, false, "split");
    s.section = string_from_json(*split, "section");
    const util::json* table_key = split->find("table_key");
    if (table_key == nullptr || !table_key->is_string()) {
      bad("split needs a string \"table_key\"");
    }
    s.table_key = table_key->as_string();
    spec.split = std::move(s);
  }
  const util::json* rows = doc.find("rows");
  if (rows == nullptr || !rows->is_array() || rows->size() == 0) {
    bad("spec needs a non-empty \"rows\" array");
  }
  for (const util::json& axis : rows->array_items()) {
    spec.rows.push_back(axis_from_json(axis, true, "row axis"));
  }
  const util::json* columns = doc.find("columns");
  const util::json* probes = doc.find("probes");
  if ((columns == nullptr) == (probes == nullptr)) {
    bad("exactly one of \"columns\" / \"probes\" is required");
  }
  spec.shared_run = probes != nullptr;
  spec.columns = entries_from_json(spec.shared_run ? *probes : *columns,
                                   spec.shared_run);
  if (const util::json* checks = doc.find("checks")) {
    spec.checks = checks_from_json(*checks);
  }
  if (const util::json* verdict = doc.find("verdict")) {
    spec.verdict = verdict_from_json(*verdict);
  }
  if (const util::json* profiles = doc.find("profiles")) {
    spec.profiles = profiles_from_json(*profiles);
  }
  spec.report_params = strings_from_json(doc, "report_params");
  if (const util::json* warmup = doc.find("warmup")) {
    spec.warmup = warmup->is_string() ? warmup->as_string() : token_of(*warmup);
  }
  if (const util::json* workload = doc.find("workload")) {
    spec.workload = *workload;
  }
  spec.trajectories = bool_from_json(doc, "trajectories");
  spec.cells = bool_from_json(doc, "cells");
  spec.static_eval = bool_from_json(doc, "static");
  spec.single_seed = bool_from_json(doc, "single_seed");
  if (const util::json* n = doc.find("trajectory_sample_periods")) {
    if (!n->is_int()) bad("\"trajectory_sample_periods\" must be an integer");
    spec.trajectory_sample_periods = static_cast<int>(n->as_int());
  }
  if (const util::json* t = doc.find("timeline")) {
    ensure_keys(*t, {"period_s", "probes"}, "timeline");
    spec.timeline.enabled = true;
    const util::json* period = t->find("period_s");
    if (period == nullptr || (!period->is_int() && !period->is_double())) {
      bad("\"timeline\" needs a numeric \"period_s\"");
    }
    spec.timeline.period_s = period->is_int()
                                 ? static_cast<double>(period->as_int())
                                 : period->as_double();
    spec.timeline.probes = strings_from_json(*t, "probes");
  }
  spec.validate();
  return spec;
}

experiment_spec load_spec_file(const std::string& path) {
  return spec_from_json(util::load_json_file(path));
}

bool all_checks_passed(const util::json& report) {
  const util::json* checks = report.find("checks");
  if (checks == nullptr || !checks->is_array()) return true;
  for (const util::json& entry : checks->array_items()) {
    const util::json* passed = entry.find("passed");
    if (passed != nullptr && passed->is_bool() && !passed->as_bool()) {
      return false;
    }
  }
  return true;
}

// --- execution ---------------------------------------------------------------

namespace {

/// Per-run context shared by every cell of the study.
struct spec_execution {
  const experiment_spec& spec;
  const spec_options& opt;  ///< profile-effective options
  int warmup = 0;   ///< warm-up rounds before the traffic reset
  int measure = 0;  ///< measured rounds (rounds - warmup)
  bool capture_traj = false;    ///< per-seed trajectory capture
  bool capture_checks = false;  ///< per-seed check evaluation
  /// Resolved "checks"-list probes, in list order.
  std::vector<const metrics::probe*> check_probes = {};
  /// Sim-time health timeline (the spec's block, possibly force-enabled
  /// or re-period'd by the driver flags).
  bool capture_timeline = false;
  double timeline_period_s = 0.0;
  /// Column tokens, report order.
  std::vector<std::string> timeline_names = {};
  std::vector<timeline_column> timeline_cols = {};

  [[nodiscard]] bool capturing() const noexcept {
    return capture_traj || capture_checks || capture_timeline;
  }

  /// Simulates one cell at one seed — `workload_doc` (variables resolved)
  /// when the spec has a workload, else plain shuffle periods — and
  /// evaluates `sels` on the final state. The probe-visible window is the
  /// measured span. When capturing, `capture` receives an object with the
  /// per-seed "trajectory", "checks" and/or "timeline" members.
  std::vector<double> run_once(experiment_config cfg, std::uint64_t seed,
                               std::span<const metrics::probe_selector> sels,
                               const param_map& params,
                               const util::json* workload_doc,
                               util::json* capture) const {
    cfg.seed = seed;
    const obs::trace_span cell_span("cell");
    scenario world(cfg);
    sim::sim_time window = 0;
    util::json trajectory;

    // The timeline sampler: ticks interleave into run_until without
    // creating scheduler events (digest-neutral; scenario.h), evaluate
    // the passive columns against the live world and mirror them as
    // Perfetto counter tracks when a trace is recording. `reset_at`
    // keeps rate probes (bytes/s) honest across the warmup traffic
    // reset.
    std::optional<obs::timeline_recorder> recorder;
    std::vector<const char*> tracks;
    sim::sim_time reset_at = 0;
    if (capture_timeline) {
      recorder.emplace(timeline_period_s, timeline_names);
      tracks = obs::counter_track_names(timeline_names);
      const auto period_ms =
          static_cast<sim::sim_time>(std::llround(timeline_period_s * 1000.0));
      world.set_sampler(
          scenario::sampler_timeline, period_ms, [&](sim::sim_time t) {
            std::vector<double> values;
            values.reserve(timeline_cols.size());
            std::optional<metrics::reachability_oracle> oracle;
            std::optional<metrics::probe_context> tick_ctx;
            std::optional<obs::counter_snapshot> snap;
            for (const timeline_column& col : timeline_cols) {
              if (col.sel.p == nullptr) {
                if (!snap.has_value()) snap = obs::read_counters();
                values.push_back(static_cast<double>((*snap)[col.counter]));
                continue;
              }
              if (!tick_ctx.has_value()) {
                oracle.emplace(world.oracle());
                tick_ctx.emplace(world, *oracle, t - reset_at);
                tick_ctx->params = params;
              }
              values.push_back(metrics::eval_scalar(col.sel, *tick_ctx));
            }
            obs::record_counter_samples(tracks, values);
            recorder->append(sim::to_seconds(t), std::move(values));
          });
    }

    if (workload_doc != nullptr) {
      const sim::sim_time period = cfg.gossip.shuffle_period;
      workload::program prog =
          workload::program_from_json(*workload_doc, period);
      window = prog.total_duration();
      workload::engine_options eopt;
      if (spec.trajectory_sample_periods > 0) {
        eopt.sample_interval = spec.trajectory_sample_periods * period;
      }
      workload::engine eng(world, std::move(prog), eopt);
      eng.run();
      if (capture != nullptr && capture_traj) {
        trajectory = workload::to_json(eng.trajectory());
      }
    } else {
      // A plain run_periods(rounds) without warm-up, or Fig. 7's warm-up +
      // traffic reset + steady-state window.
      if (warmup > 0) {
        world.run_periods(warmup);
        world.transport().reset_traffic();
        reset_at = world.scheduler().now();
      }
      world.run_periods(measure);
      window = measure * cfg.gossip.shuffle_period;
    }
    if (recorder.has_value()) {
      world.clear_sampler(scenario::sampler_timeline);
    }
    const metrics::reachability_oracle oracle = world.oracle();
    metrics::probe_context ctx{world, oracle, window};
    ctx.params = params;
    std::vector<double> out;
    out.reserve(sels.size());
    for (const metrics::probe_selector& sel : sels) {
      const obs::trace_span span(sel.p->name);
      out.push_back(metrics::eval_scalar(sel, ctx));
    }
    if (capture != nullptr) {
      util::json check_results;
      if (capture_checks) {
        // Checks run after the probe columns so adding a check never
        // moves a battery-building probe's rng position.
        check_results = util::json::array();
        for (const metrics::probe* p : check_probes) {
          const obs::trace_span span(p->name);
          const metrics::probe_value v = p->run(ctx);
          util::json& entry = check_results.push_back(util::json::object());
          entry["passed"] = v.check.passed;
          entry["detail"] = v.check.detail;
        }
      }
      util::json parts = util::json::object();
      if (capture_traj) parts["trajectory"] = std::move(trajectory);
      if (capture_checks) parts["checks"] = std::move(check_results);
      if (capture_timeline) parts["timeline"] = recorder->samples_json();
      *capture = std::move(parts);
    }
    return out;
  }

  /// One multi-seed sweep of a cell; the per-seed captures stay null
  /// unless capturing.
  multi_seed_result sweep(const experiment_config& cfg,
                          std::span<const metrics::probe_selector> sels,
                          const param_map& params,
                          const util::json* workload_doc) const {
    run_options ropt{};
    ropt.threads = opt.threads;
    ropt.shards = cfg.shards;
    return run_seeds_multi_captured(
        opt.seeds, opt.seed, sels.size(),
        [&](std::uint64_t seed, util::json& capture) {
          return run_once(cfg, seed, sels, params, workload_doc,
                          capturing() ? &capture : nullptr);
        },
        ropt);
  }
};

/// The overrides accumulated down to one run: config keys land in `cfg`,
/// '$'-keys become workload variables and '%'-keys probe parameters.
struct cell_settings {
  experiment_config cfg;
  var_map vars;
  param_map params;
  const spec_options& opt;  ///< resolves $view_a / $view_b

  /// Applies one override and returns its table label.
  std::string apply(const std::string& key, const std::string& token) {
    if (is_workload_var(key)) {
      vars[key.substr(1)] = token;
      return token;
    }
    if (is_param_key(key)) {
      params[key.substr(1)] = token;
      return token;
    }
    return apply_setting(cfg, key, token, opt);
  }
};

/// Iterates the cartesian product of the row axes (last axis fastest).
template <typename Fn>
void for_each_row(const std::vector<spec_axis>& axes, Fn&& fn) {
  std::vector<std::size_t> index(axes.size(), 0);
  for (;;) {
    fn(index);
    std::size_t a = axes.size();
    for (;;) {
      if (a == 0) return;
      --a;
      if (++index[a] < axes[a].values.size()) break;
      index[a] = 0;
    }
  }
}

/// The standard "# title / # n=..." preamble, or the spec's literal
/// lines. The scale hint names the profile in use, or points at the
/// spec's "full" profile when it declares one.
void print_preamble(const experiment_spec& spec, const spec_options& opt,
                    std::ostream& out) {
  if (!spec.preamble.empty()) {
    for (const std::string& line : spec.preamble) out << line << "\n";
    return;
  }
  out << "# " << spec.title << "\n"
      << "# n=" << opt.peers << " seeds=" << opt.seeds
      << " rounds=" << opt.rounds << " views={" << opt.view_a << ","
      << opt.view_b << "}";
  const bool has_full =
      std::any_of(spec.profiles.begin(), spec.profiles.end(),
                  [](const auto& p) { return p.first == "full"; });
  if (!opt.profile.empty()) {
    out << " (profile " << opt.profile << ")";
  } else if (has_full) {
    out << " (reduced scale; --profile full for paper scale)";
  } else {
    out << " (reduced scale)";
  }
  out << "\n";
}

/// Applies the named profile (when any) over the driver options;
/// explicitly-given command-line flags win.
spec_options effective_options(const experiment_spec& spec,
                               const spec_options& opt,
                               const spec_profile** selected) {
  *selected = nullptr;
  spec_options eff = opt;
  if (opt.profile.empty()) return eff;
  for (const auto& [name, prof] : spec.profiles) {
    if (name == opt.profile) {
      *selected = &prof;
      break;
    }
  }
  if (*selected == nullptr) {
    std::string available;
    for (const auto& [name, prof] : spec.profiles) {
      (void)prof;
      if (!available.empty()) available += ", ";
      available += name;
    }
    bad("unknown profile \"" + opt.profile + "\"" +
        (available.empty() ? " (this spec declares no profiles)"
                           : " (available: " + available + ")"));
  }
  const spec_profile& prof = **selected;
  if (prof.peers && !opt.peers_explicit) {
    eff.peers = static_cast<std::size_t>(*prof.peers);
  }
  if (prof.seeds && !opt.seeds_explicit) {
    eff.seeds = static_cast<int>(*prof.seeds);
  }
  if (prof.rounds && !opt.rounds_explicit) {
    eff.rounds = static_cast<int>(*prof.rounds);
  }
  if (prof.view_a && !opt.view_a_explicit) {
    eff.view_a = static_cast<std::size_t>(*prof.view_a);
  }
  if (prof.view_b && !opt.view_b_explicit) {
    eff.view_b = static_cast<std::size_t>(*prof.view_b);
  }
  return eff;
}

/// Long-form timeline CSV: one `cell,seed,t_s,<v>,...` line per sample.
/// `cell` is the row labels joined with '/' (prefixed by the split
/// table key, suffixed by ":<column>" in columns mode).
void write_timeline_csv(const std::string& path,
                        const std::vector<std::string>& columns,
                        const util::json& cells) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    throw std::runtime_error("cannot write timeline CSV \"" + path + "\"");
  }
  obs::timeline_recorder::write_csv_header(file, columns);
  const auto append_double = [](std::string& line, const util::json& v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g",
                  v.is_int() ? static_cast<double>(v.as_int())
                             : v.as_double());
    line += buf;
  };
  for (const util::json& entry : cells.array_items()) {
    std::string label;
    if (const util::json* table = entry.find("table")) {
      label += table->as_string();
      label += '/';
    }
    const util::json& row = entry.at("row");
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) label += '/';
      label += row.at(i).as_string();
    }
    if (const util::json* column = entry.find("column")) {
      label += ':';
      label += column->as_string();
    }
    const util::json& per_seed = entry.at("per_seed");
    for (std::size_t s = 0; s < per_seed.size(); ++s) {
      for (const util::json& sample : per_seed.at(s).array_items()) {
        std::string line = label;
        line += ',';
        line += std::to_string(s);
        for (const util::json& v : sample.array_items()) {
          line += ',';
          append_double(line, v);
        }
        line += '\n';
        file << line;
      }
    }
  }
}

}  // namespace

util::json run_spec(const experiment_spec& spec, const spec_options& opt,
                    std::ostream& out) {
  // Scale options arrive from the command line; a negative value would
  // otherwise clamp into an empty run or wrap around as a size.
  if (opt.peers < 2) bad("peers must be >= 2");
  if (opt.seeds < 1) bad("seeds must be >= 1");
  if (opt.rounds < 0) bad("rounds must be >= 0");
  spec.validate();

  const spec_profile* prof = nullptr;
  spec_options eff = effective_options(spec, opt, &prof);
  if (spec.single_seed) eff.seeds = 1;

  print_preamble(spec, eff, out);

  var_map builtins = builtin_vars(eff);
  if (prof != nullptr) {
    // Explicit flags beat profile values: an explicit --rounds keeps the
    // rounds-derived builtins too, so "--profile full --rounds 16" runs
    // a genuinely reduced-scale workload instead of the paper durations.
    for (const auto& [var, token] : prof->vars) {
      if (opt.rounds_explicit && (var == "rounds" || var == "half_rounds")) {
        continue;
      }
      builtins[var] = token;
    }
  }

  workload::bench_report report(spec.name);
  for (const std::string& p : spec.report_params) {
    if (auto kv = param_override(p, builtins)) {
      report.param(kv->first, std::move(kv->second));
      continue;
    }
    if (p == "peers") {
      report.param("peers", eff.peers);
    } else if (p == "seeds") {
      report.param("seeds", eff.seeds);
    } else if (p == "rounds") {
      report.param("rounds", eff.rounds);
    } else if (p == "seed") {
      report.param("seed", eff.seed);
    } else if (p == "workload") {
      const util::json* name =
          spec.workload.has_value() ? spec.workload->find("name") : nullptr;
      report.param("workload",
                   name != nullptr && name->is_string() ? *name : util::json());
    }
  }

  spec_execution exec{spec, eff};
  if (spec.warmup == "half") {
    exec.warmup = eff.rounds / 2;
  } else if (!spec.warmup.empty()) {
    exec.warmup = static_cast<int>(count_token("warmup", spec.warmup, eff));
  }
  if (exec.warmup > eff.rounds) exec.warmup = eff.rounds;
  exec.measure = eff.rounds - exec.warmup;
  exec.capture_traj = spec.workload.has_value() && spec.trajectories;
  exec.capture_checks = !spec.checks.empty();
  for (const spec_entry& c : spec.checks) {
    exec.check_probes.push_back(metrics::find_probe(c.probe));
  }

  // Effective timeline: the spec's own block, force-enabled by
  // --timeline (default passive columns when the spec declares none),
  // period overridable by --timeline-period. Resolving here (not just
  // in validate()) also vets flag-supplied columns. A static spec has no
  // sim time to sample.
  spec_timeline tl = spec.timeline;
  if (eff.timeline && !tl.enabled && !spec.static_eval) {
    tl.enabled = true;
    tl.probes = default_timeline_columns();
    tl.period_s = 5.0;
  }
  if (tl.enabled && eff.timeline_period_s > 0) {
    tl.period_s = eff.timeline_period_s;
  }
  exec.capture_timeline = tl.enabled;
  exec.timeline_period_s = tl.period_s;
  exec.timeline_names = tl.probes;
  for (const std::string& token : tl.probes) {
    exec.timeline_cols.push_back(resolve_timeline_column(token));
  }

  // Base settings: driver options first, then the spec's own overrides.
  cell_settings base{experiment_config{}, builtins, {}, eff};
  base.cfg.peer_count = eff.peers;
  base.cfg.gossip.view_size = eff.view_a;
  base.cfg.shards = eff.shards;
  (void)base.apply("transport", eff.transport);
  if (eff.udp_time_scale > 0) base.cfg.udp_time_scale = eff.udp_time_scale;
  for (const auto& [key, token] : spec.base) (void)base.apply(key, token);
  // BENCH docs carry the transport so bench/trend.py can key trends on
  // it (sim and udp numbers must never mix); omitted for plain sim
  // runs, which trend.py reads as the default.
  if (!spec.static_eval && base.cfg.transport != transport_kind::sim) {
    report.add("transport", std::string(to_string(base.cfg.transport)));
  }

  // The runs of a row: one multi-seed sweep per probe column, or one
  // shared sweep for all of them in "probes" mode. A static cell is one
  // world-free evaluation either way.
  std::vector<std::vector<std::size_t>> runs;
  for (std::size_t j = 0; j < spec.columns.size(); ++j) {
    if (spec.columns[j].k != spec_entry::kind::probe) continue;
    if (runs.empty() || !spec.shared_run || spec.static_eval) {
      runs.emplace_back();
    }
    runs.back().push_back(j);
  }

  util::json checks_json = util::json::array();
  bool checks_passed = true;
  util::json trajectories = util::json::array();
  util::json timeline_cells = util::json::array();
  util::json cells_json = util::json::array();
  bool msglog_dumped = false;

  const std::vector<std::string> split_tokens =
      spec.split.has_value() ? spec.split->axis.values
                             : std::vector<std::string>{std::string()};
  for (const std::string& split_token : split_tokens) {
    cell_settings split = base;
    std::string table_key;
    if (spec.split.has_value()) {
      const std::string split_label =
          split.apply(spec.split->axis.key, split_token);
      table_key = subst_braces(spec.split->table_key, split_label);
      if (!spec.split->section.empty()) {
        out << "\n" << subst_braces(spec.split->section, split_label) << "\n";
      }
    }

    std::vector<std::string> headers;
    for (const spec_axis& axis : spec.rows) {
      headers.push_back(subst_views(axis.header, eff));
    }
    for (const spec_entry& col : spec.columns) {
      headers.push_back(subst_views(col.header, eff));
    }
    text_table table(std::move(headers));

    for_each_row(spec.rows, [&](const std::vector<std::size_t>& index) {
      cell_settings row = split;
      std::vector<std::string> row_labels;
      for (std::size_t a = 0; a < spec.rows.size(); ++a) {
        row_labels.push_back(
            row.apply(spec.rows[a].key, spec.rows[a].values[index[a]]));
      }

      /// Appends a {table?, row} entry to `sink` (check verdicts and
      /// per-seed series share the prefix).
      const auto row_entry = [&](util::json& sink) -> util::json& {
        util::json& entry = sink.push_back(util::json::object());
        if (!table_key.empty()) entry["table"] = table_key;
        util::json row = util::json::array();
        for (const std::string& label : row_labels) row.push_back(label);
        entry["row"] = std::move(row);
        return entry;
      };

      /// `cells` mode: one entry per probe column, carrying each
      /// cell_key'd axis value plus the full multi-seed aggregate.
      const auto record_cell = [&](const spec_entry& col,
                                   const seed_aggregate& agg) {
        util::json& entry = cells_json.push_back(util::json::object());
        if (!table_key.empty()) entry["table"] = table_key;
        for (std::size_t a = 0; a < spec.rows.size(); ++a) {
          const spec_axis& axis = spec.rows[a];
          if (axis.cell_key.empty()) continue;
          const std::string& token = axis.values[index[a]];
          entry[axis.cell_key] = var_value(var_numeric(axis.key, token));
        }
        if (!col.cell_key.empty()) {
          entry[col.cell_key] =
              var_value(var_numeric(col.cell_key, col.cell_token));
        }
        std::string metric_key = col.probe;
        if (!col.cls.empty()) {
          metric_key += "." + col.cls;
        } else if (!col.stat.empty()) {
          metric_key += "." + col.stat;
        }
        entry[metric_key] = workload::to_json(agg);
      };

      /// Records a run's per-seed captures: check verdicts, then the
      /// trajectory and timeline series. A failed check triggers a
      /// one-shot dump of the message flight recorder (when
      /// `nylon_exp --msglog` armed it) so the hop-by-hop forensics land
      /// next to the verdict.
      const auto record_captures = [&](const std::vector<util::json>& per_seed,
                                       const std::string& column) {
        const std::size_t seeds = per_seed.size();
        for (std::size_t c = 0; c < spec.checks.size(); ++c) {
          bool passed = true;
          std::string detail;
          util::json failed_seeds = util::json::array();
          for (std::size_t s = 0; s < seeds; ++s) {
            const util::json& verdict = per_seed[s].at("checks").at(c);
            if (s == 0) detail = verdict.at("detail").as_string();
            if (!verdict.at("passed").as_bool()) {
              passed = false;
              failed_seeds.push_back(static_cast<std::int64_t>(s));
            }
          }
          util::json& entry = row_entry(checks_json);
          entry["check"] = spec.checks[c].header;
          entry["passed"] = passed;
          if (!detail.empty()) entry["detail"] = detail;
          if (failed_seeds.size() > 0) {
            entry["failed_seeds"] = std::move(failed_seeds);
          }
          checks_passed = checks_passed && passed;
          if (!passed && !msglog_dumped && obs::msglog_enabled()) {
            msglog_dumped = true;
            std::cerr << "# check \"" << spec.checks[c].header
                      << "\" failed — sampled message flight records:\n";
            obs::msglog_dump(std::cerr, 40);
          }
        }
        const auto record_series = [&](util::json& sink, const char* part) {
          util::json series = util::json::array();
          for (std::size_t s = 0; s < seeds; ++s) {
            series.push_back(per_seed[s].at(part));
          }
          util::json& entry = row_entry(sink);
          if (!column.empty()) entry["column"] = column;
          entry["per_seed"] = std::move(series);
        };
        if (exec.capture_traj) record_series(trajectories, "trajectory");
        if (exec.capture_timeline) record_series(timeline_cells, "timeline");
      };

      std::vector<std::string> cells(spec.columns.size());
      std::vector<double> means(spec.columns.size(), 0.0);
      for (const std::vector<std::size_t>& run : runs) {
        cell_settings cell = row;
        for (const std::size_t j : run) {
          for (const auto& [key, token] : spec.columns[j].set) {
            (void)cell.apply(key, token);
          }
        }
        if (spec.static_eval) {
          // Check cells render their check_result::cell and record a
          // verdict entry.
          const spec_entry& col = spec.columns[run.front()];
          const metrics::probe* p = metrics::find_probe(col.probe);
          const metrics::probe_value value =
              p->run(metrics::probe_context{cell.params});
          if (value.kind != metrics::probe_kind::check) {
            cells[run.front()] = fmt(
                metrics::extract_scalar(
                    metrics::resolve_selector(col.probe, col.cls, col.stat),
                    value),
                col.precision);
            continue;
          }
          util::json& entry = row_entry(checks_json);
          entry["column"] = subst_views(col.header, eff);
          entry["check"] = col.probe;
          entry["passed"] = value.check.passed;
          if (!value.check.detail.empty()) entry["detail"] = value.check.detail;
          checks_passed = checks_passed && value.check.passed;
          cells[run.front()] = value.check.cell;
          continue;
        }

        std::vector<metrics::probe_selector> sels;
        for (const std::size_t j : run) {
          const spec_entry& col = spec.columns[j];
          sels.push_back(
              metrics::resolve_selector(col.probe, col.cls, col.stat));
        }
        // The run's workload document, its '$' variables resolved.
        const util::json workload_doc =
            spec.workload.has_value()
                ? resolve_workload_vars(*spec.workload, cell.vars)
                : util::json();
        const multi_seed_result result = exec.sweep(
            cell.cfg, sels, cell.params,
            spec.workload.has_value() ? &workload_doc : nullptr);
        const std::vector<seed_aggregate>& aggs = result.aggregates;
        if (exec.capturing()) {
          record_captures(result.captures,
                          spec.shared_run
                              ? std::string()
                              : subst_views(spec.columns[run.front()].header,
                                            eff));
        }
        for (std::size_t k = 0; k < run.size(); ++k) {
          const spec_entry& col = spec.columns[run[k]];
          if (spec.cells) record_cell(col, aggs[k]);
          means[run[k]] = aggs[k].stats.mean;
          cells[run[k]] = fmt(means[run[k]], col.precision);
        }
      }
      for (std::size_t j = 0; j < spec.columns.size(); ++j) {
        const spec_entry& col = spec.columns[j];
        if (col.k == spec_entry::kind::ratio) {
          const double num = means[static_cast<std::size_t>(col.ratio_num)];
          const double den = means[static_cast<std::size_t>(col.ratio_den)];
          cells[j] = fmt(den > 0 ? num / den : 0.0, col.precision);
        } else if (col.k == spec_entry::kind::row_value) {
          cells[j] = row_labels.front();
        }
      }
      cells.insert(cells.begin(), row_labels.begin(), row_labels.end());
      table.add_row(std::move(cells));
    });

    if (eff.csv) {
      table.print_csv(out);
    } else {
      table.print(out);
    }
    if (spec.split.has_value()) {
      report.add_table(table_key, table);
    } else {
      report.add("table", workload::to_json(table));
    }
  }

  if (spec.cells) report.add("cells", std::move(cells_json));
  if (exec.capture_traj && trajectories.size() > 0) {
    report.add("trajectories", std::move(trajectories));
  }
  if (exec.capture_timeline) {
    if (!eff.timeline_csv.empty()) {
      write_timeline_csv(eff.timeline_csv, exec.timeline_names,
                         timeline_cells);
    }
    util::json block = util::json::object();
    block["period_s"] = exec.timeline_period_s;
    util::json cols = util::json::array();
    cols.push_back(std::string("t_s"));
    for (const std::string& name : exec.timeline_names) {
      cols.push_back(name);
    }
    block["columns"] = std::move(cols);
    block["cells"] = std::move(timeline_cells);
    report.add("timeline", std::move(block));
  }

  if (!spec.footer.empty()) {
    out << "\n";
    for (const std::string& line : spec.footer) out << line << "\n";
  }
  if (spec.verdict.has_value()) {
    out << "\n" << (checks_passed ? spec.verdict->pass : spec.verdict->fail)
        << "\n";
  }
  if (checks_json.size() > 0) report.add("checks", std::move(checks_json));
  report.save(eff.json);
  return report.doc();
}

}  // namespace nylon::runtime
