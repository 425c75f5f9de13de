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
#include <sstream>
#include <stdexcept>

#include "core/peer_factory.h"
#include "gossip/policies.h"
#include "metrics/probe.h"
#include "net/payload_arena.h"
#include "obs/counters.h"
#include "obs/msglog.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "runtime/experiment_config.h"
#include "runtime/runner.h"
#include "runtime/scenario.h"
#include "runtime/table_printer.h"
#include "util/contracts.h"
#include "util/rng.h"
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
  if (key == "transport") {
    cfg.transport = choose<transport_kind>(
        key, token,
        {{"sim", transport_kind::sim},
         {"sim-frames", transport_kind::sim_frames},
         {"udp", transport_kind::udp}});
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
/// (no '='). Throws on unknown variables or non-numeric literals.
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

/// Parses the "columns" array. A probe column may carry config overrides
/// (`set`, or the `sweep` sugar that expands into one column per swept
/// value, "{}" in the header becoming the value token).
std::vector<spec_entry> entries_from_json(const util::json& j) {
  if (!j.is_array() || j.size() == 0) {
    bad("\"columns\" must be a non-empty array");
  }
  std::vector<spec_entry> out;
  for (const util::json& c : j.array_items()) {
    if (!c.is_object()) bad("\"columns\" entries must be objects");
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

    ensure_keys(c,
                {"sweep", "probe", "header", "class", "stat", "set",
                 "precision"},
                "probe column");
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
/// non-passive probes.
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

experiment_spec spec_from_json(const util::json& doc) {
  ensure_keys(doc,
              {"name", "title", "preamble", "footer", "base", "split", "rows",
               "columns", "checks", "verdict", "profiles", "report_params",
               "warmup", "workload", "trajectories",
               "trajectory_sample_periods", "timeline", "single_seed"},
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
  if (columns == nullptr) bad("spec needs a non-empty \"columns\" array");
  spec.columns = entries_from_json(*columns);
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
  spec.single_seed = bool_from_json(doc, "single_seed");
  if (const util::json* n = doc.find("trajectory_sample_periods")) {
    if (!n->is_int()) bad("\"trajectory_sample_periods\" must be an integer");
    spec.trajectory_sample_periods = static_cast<int>(n->as_int());
  }
  if (const util::json* t = doc.find("timeline")) {
    ensure_keys(*t, {"period_s", "probes"}, "timeline");
    spec.timeline.enabled = true;
    const util::json* period = t->find("period_s");
    if (period == nullptr || !period->is_number()) {
      bad("\"timeline\" needs a numeric \"period_s\"");
    }
    spec.timeline.period_s = period->as_double();
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

/// One planned cell: a run of one row (see `spec_plan::runs`) with its
/// overrides resolved. A simulated cell is one universe per seed; a
/// world-free spec's cell is one evaluation of its `params`.
struct spec_cell {
  experiment_config cfg;
  /// The run's probe columns, in column order (a world-free cell's one
  /// column may select a check probe).
  std::vector<metrics::probe_selector> sels;
  param_map params;
  /// The spec's workload with '$' variables resolved (unset without one).
  std::optional<workload::program> program;
  /// Per selector, when the spec has a per-cell table: the row axes'
  /// and that column's numeric cell_key values, in entry order.
  std::vector<util::json> cell_keys;
};

/// One table: a split value's, or the single table of an unsplit spec.
struct spec_table {
  std::string key;      ///< split table key ("" without a split)
  std::string section;  ///< heading above the table ("" = none)
  std::vector<std::vector<std::string>> rows;  ///< each row's labels
};

/// A spec resolved at one set of run options: everything the run and
/// render steps read. Cells follow split × rows × runs in output order;
/// every row has `runs.size()` cells.
struct spec_plan {
  spec_options eff;  ///< the run options with the profile applied
  int warmup = 0;    ///< warm-up rounds before the traffic reset
  int measure = 0;   ///< measured rounds (rounds - warmup)
  /// The JSON report's "params", in spec order.
  std::vector<std::pair<std::string, util::json>> report_params;
  transport_kind transport = transport_kind::sim;  ///< the base config's
  bool capture_traj = false;  ///< per-seed trajectory capture
  /// Every probe column's probe is world-free: nothing is simulated and
  /// each column is evaluated on its own at render time.
  bool world_free = false;
  /// Some row axis or column sweep declares a cell_key: the report
  /// carries the per-cell aggregate table under "cells".
  bool cell_table = false;
  /// Resolved "checks"-list probes, in list order.
  std::vector<const metrics::probe*> check_probes;
  /// Sim-time health timeline (the spec's block, possibly force-enabled
  /// or re-period'd by the run options); column tokens in report
  /// order.
  bool timeline = false;
  double timeline_period_s = 0.0;
  std::vector<std::string> timeline_names;
  std::vector<timeline_column> timeline_cols;
  /// The runs of a row: its probe columns grouped by equal `set`, in
  /// first-appearance order (one per column in a world-free spec). Each
  /// lists the column indices it fills.
  std::vector<std::vector<std::size_t>> runs;
  std::vector<spec_table> tables;
  std::vector<spec_cell> cells;

  [[nodiscard]] bool capturing() const noexcept {
    return capture_traj || !check_probes.empty() || timeline;
  }
};

/// What one universe (a cell at one seed) hands back.
struct universe_result {
  std::vector<double> values;  ///< one per selector of the cell
  util::json capture;          ///< null unless capturing
  /// The flight-recorder dump of this universe's own hops when one of
  /// its checks failed while `nylon_exp --msglog` armed the recorder.
  std::string msglog;
  /// Wire-level telemetry when the universe ran on real UDP sockets.
  std::optional<net::udp_backend::backend_stats> udp;
};

/// Simulates `cell` at one seed — its workload program when the spec has
/// one, else plain shuffle periods — and evaluates its selectors on the
/// final state into `slot`. The probe-visible window is the measured
/// span. When capturing, `slot.capture` receives an object with the
/// per-seed "trajectory", "checks" and/or "timeline" members.
void run_universe(const experiment_spec& spec, const spec_plan& plan,
                  const spec_cell& cell, std::uint64_t seed,
                  universe_result& slot) {
  const std::uint64_t msglog_mark = obs::msglog_mark();
  experiment_config cfg = cell.cfg;
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
  if (plan.timeline) {
    recorder.emplace(plan.timeline_period_s, plan.timeline_names);
    tracks = obs::counter_track_names(plan.timeline_names);
    const auto period_ms = static_cast<sim::sim_time>(
        std::llround(plan.timeline_period_s * 1000.0));
    world.set_sampler(
        scenario::sampler_timeline, period_ms, [&](sim::sim_time t) {
          std::vector<double> values;
          values.reserve(plan.timeline_cols.size());
          std::optional<metrics::reachability_oracle> oracle;
          std::optional<metrics::probe_context> tick_ctx;
          std::optional<obs::counter_snapshot> snap;
          for (const timeline_column& col : plan.timeline_cols) {
            if (col.sel.p == nullptr) {
              if (!snap.has_value()) snap = obs::read_counters();
              values.push_back(static_cast<double>((*snap)[col.counter]));
              continue;
            }
            if (!tick_ctx.has_value()) {
              oracle.emplace(world.oracle());
              tick_ctx.emplace(world, *oracle, t - reset_at);
              tick_ctx->params = cell.params;
            }
            values.push_back(metrics::eval_scalar(col.sel, *tick_ctx));
          }
          obs::record_counter_samples(tracks, values);
          recorder->append(sim::to_seconds(t), std::move(values));
        });
  }

  if (cell.program.has_value()) {
    window = cell.program->total_duration();
    workload::engine_options eopt;
    if (spec.trajectory_sample_periods > 0) {
      eopt.sample_interval =
          spec.trajectory_sample_periods * cfg.gossip.shuffle_period;
    }
    workload::engine eng(world, *cell.program, eopt);
    eng.run();
    if (plan.capture_traj) trajectory = workload::to_json(eng.trajectory());
  } else {
    // A plain run_periods(rounds) without warm-up, or Fig. 7's warm-up +
    // traffic reset + steady-state window.
    if (plan.warmup > 0) {
      world.run_periods(plan.warmup);
      world.transport().reset_traffic();
      reset_at = world.scheduler().now();
    }
    world.run_periods(plan.measure);
    window = plan.measure * cfg.gossip.shuffle_period;
  }
  if (recorder.has_value()) {
    world.clear_sampler(scenario::sampler_timeline);
  }
  if (const net::udp_backend* udp = world.udp()) slot.udp = udp->stats();
  const metrics::reachability_oracle oracle = world.oracle();
  metrics::probe_context ctx{world, oracle, window};
  ctx.params = cell.params;
  slot.values.reserve(cell.sels.size());
  for (const metrics::probe_selector& sel : cell.sels) {
    const obs::trace_span span(sel.p->name);
    slot.values.push_back(metrics::eval_scalar(sel, ctx));
  }
  if (!plan.capturing()) return;
  util::json parts = util::json::object();
  if (plan.capture_traj) parts["trajectory"] = std::move(trajectory);
  if (!plan.check_probes.empty()) {
    // Checks run after the probe columns so adding a check never moves a
    // battery-building probe's rng position.
    util::json& results = parts["checks"] = util::json::array();
    bool failed = false;
    for (const metrics::probe* p : plan.check_probes) {
      const obs::trace_span span(p->name);
      const metrics::probe_value v = p->run(ctx);
      util::json& entry = results.push_back(util::json::object());
      entry["passed"] = v.check.passed;
      entry["detail"] = v.check.detail;
      failed = failed || !v.check.passed;
    }
    // Taken here, on the thread that ran this universe, so no later
    // universe's hops can overwrite or join the failing one's.
    if (failed && obs::msglog_enabled()) {
      std::ostringstream dump;
      obs::msglog_dump_since(dump, msglog_mark, 40);
      slot.msglog = dump.str();
    }
  }
  if (plan.timeline) parts["timeline"] = recorder->samples_json();
  slot.capture = std::move(parts);
}

/// The overrides accumulated down to one run: config keys land in `cfg`,
/// '$'-keys become workload variables and '%'-keys probe parameters.
struct cell_settings {
  experiment_config cfg;
  var_map vars;
  param_map params;
  const spec_options& opt;  ///< resolves $view_a / $view_b
  bool has_workload = false;

  /// Applies one override and returns its table label.
  std::string apply(const std::string& key, const std::string& token) {
    if (is_workload_var(key)) {
      if (!has_workload) {
        bad("variable axis \"" + key + "\" requires a \"workload\"");
      }
      (void)var_numeric(key, token);
      vars[key.substr(1)] = token;
      return token;
    }
    if (is_param_key(key)) {
      if (key.size() < 2) bad("probe parameter keys need a name after '%'");
      if (token.empty()) {
        bad("probe parameter \"" + key + "\" has an empty value");
      }
      params[key.substr(1)] = token;
      return token;
    }
    return apply_setting(cfg, key, token, opt);
  }
};

/// Iterates the cartesian product of the row axes (last axis fastest).
template <typename Fn>
void for_each_row(const std::vector<spec_axis>& axes, Fn&& fn) {
  for (const spec_axis& axis : axes) {
    if (axis.values.empty()) bad("row axis \"" + axis.key + "\" needs values");
  }
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
  const auto found =
      std::find_if(spec.profiles.begin(), spec.profiles.end(),
                   [&](const auto& p) { return p.first == opt.profile; });
  if (found == spec.profiles.end()) {
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
  const spec_profile& prof = found->second;
  *selected = &prof;
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
/// table key, suffixed by ":<column>" when the row has more than one
/// run).
void write_timeline_csv(const std::string& path,
                        const std::vector<std::string>& columns,
                        const util::json& cells) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    throw std::runtime_error("cannot write timeline CSV \"" + path + "\"");
  }
  file << "cell,seed,t_s";
  for (const std::string& column : columns) file << ',' << column;
  file << '\n';
  for (const util::json& entry : cells.array_items()) {
    std::string label;
    if (const util::json* table = entry.find("table")) {
      label = table->as_string() + '/';
    }
    const util::json& row = entry.at("row");
    for (std::size_t i = 0; i < row.size(); ++i) {
      label += (i > 0 ? "/" : "") + row.at(i).as_string();
    }
    if (const util::json* column = entry.find("column")) {
      label += ':' + column->as_string();
    }
    const util::json& per_seed = entry.at("per_seed");
    for (std::size_t s = 0; s < per_seed.size(); ++s) {
      for (const util::json& sample : per_seed.at(s).array_items()) {
        std::string line = label + ',' + std::to_string(s);
        for (const util::json& v : sample.array_items()) {
          char buf[32];
          std::snprintf(buf, sizeof buf, ",%.10g", v.as_double());
          line += buf;
        }
        line += '\n';
        file << line;
      }
    }
  }
}

/// Resolves the spec at `opt`: the profile, report params, warm-up,
/// checks and timeline, then every cell of split × rows × runs — its
/// overrides, probe selectors, cell_key values and workload program.
/// Every rule that needs a resolved value throws here, so a spec that
/// plans at default options is valid. Builds no universe.
spec_plan plan_spec(const experiment_spec& spec, const spec_options& opt) {
  spec_plan plan;
  const spec_profile* prof = nullptr;
  plan.eff = effective_options(spec, opt, &prof);
  if (spec.single_seed) plan.eff.seeds = 1;
  const spec_options& eff = plan.eff;

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

  for (const std::string& p : spec.report_params) {
    if (auto kv = param_override(p, builtins)) {
      plan.report_params.push_back(std::move(*kv));
    } else if (p == "peers") {
      plan.report_params.emplace_back(p, eff.peers);
    } else if (p == "seeds") {
      plan.report_params.emplace_back(p, eff.seeds);
    } else if (p == "rounds") {
      plan.report_params.emplace_back(p, eff.rounds);
    } else if (p == "seed") {
      plan.report_params.emplace_back(p, eff.seed);
    } else if (p == "workload") {
      const util::json* name =
          spec.workload.has_value() ? spec.workload->find("name") : nullptr;
      plan.report_params.emplace_back(
          p, name != nullptr && name->is_string() ? *name : util::json());
    } else {
      bad("unknown report param \"" + p + "\"");
    }
  }

  if (spec.warmup == "half") {
    plan.warmup = eff.rounds / 2;
  } else if (!spec.warmup.empty()) {
    // Clamped to the run before narrowing: a literal past INT_MAX would
    // wrap, a negative result into billions of measured periods.
    plan.warmup = static_cast<int>(
        std::min(count_token("warmup", spec.warmup, eff),
                 static_cast<std::size_t>(eff.rounds)));
  }
  plan.measure = eff.rounds - plan.warmup;
  plan.capture_traj = spec.workload.has_value() && spec.trajectories;
  for (const spec_entry& c : spec.checks) {
    const metrics::probe* p = metrics::find_probe(c.probe);
    if (p == nullptr) bad("unknown check probe \"" + c.probe + "\"");
    if (p->kind != metrics::probe_kind::check) {
      bad("\"checks\" entry \"" + c.probe + "\" is a " +
          std::string(metrics::to_string(p->kind)) +
          " probe, not a check probe");
    }
    plan.check_probes.push_back(p);
  }

  // Columns: each probe column resolves to one selector and joins a run.
  // A spec whose probe columns are all world-free (the §2.2 table)
  // simulates nothing and evaluates each column on its own; otherwise a
  // row's probe columns group into runs by equal `set`, in
  // first-appearance order. A probe reference is either a scalar-view
  // selector (validated by metrics::resolve_selector, which owns the
  // misuse messages) or a check probe, which renders verdict cells and
  // is only legal in a world-free spec's columns or the "checks" list.
  std::vector<metrics::probe_selector> selectors(spec.columns.size());
  plan.world_free = true;
  for (std::size_t j = 0; j < spec.columns.size(); ++j) {
    const spec_entry& col = spec.columns[j];
    if (col.k != spec_entry::kind::probe) continue;
    selectors[j].p = metrics::find_probe(col.probe);
    if (selectors[j].p == nullptr) bad("unknown probe \"" + col.probe + "\"");
    plan.world_free = plan.world_free && !selectors[j].p->needs_world;
  }
  plan.cell_table =
      std::any_of(spec.rows.begin(), spec.rows.end(),
                  [](const spec_axis& a) { return !a.cell_key.empty(); }) ||
      std::any_of(spec.columns.begin(), spec.columns.end(),
                  [](const spec_entry& c) { return !c.cell_key.empty(); });
  const bool has_ratio = std::any_of(
      spec.columns.begin(), spec.columns.end(),
      [](const spec_entry& c) { return c.k == spec_entry::kind::ratio; });
  for (const auto& [present, key] :
       std::initializer_list<std::pair<bool, const char*>>{
           {spec.split.has_value(), "split"}, {!spec.checks.empty(), "checks"},
           {spec.workload.has_value(), "workload"},
           {!spec.warmup.empty(), "warmup"}, {spec.single_seed, "single_seed"},
           {spec.timeline.enabled, "timeline"}, {plan.cell_table, "cell_key"},
           {has_ratio, "ratio"}}) {
    if (plan.world_free && present) {
      bad(std::string("every probe column is world-free, so nothing is "
                      "simulated or seeded: drop \"") + key + "\"");
    }
  }

  // Effective timeline: the spec's own block, force-enabled by
  // --timeline (default passive columns when the spec declares none),
  // period overridable by --timeline-period. A world-free spec has no
  // sim time to sample.
  spec_timeline tl = spec.timeline;
  if (eff.timeline && !tl.enabled && !plan.world_free) {
    tl.enabled = true;
    tl.probes = default_timeline_columns();
    tl.period_s = 5.0;
  }
  if (tl.enabled && eff.timeline_period_s > 0) {
    tl.period_s = eff.timeline_period_s;
  }
  plan.timeline = tl.enabled;
  plan.timeline_period_s = tl.period_s;
  plan.timeline_names = tl.probes;
  for (const std::string& token : tl.probes) {
    plan.timeline_cols.push_back(resolve_timeline_column(token));
  }

  bool has_check_cells = !spec.checks.empty();
  for (std::size_t j = 0; j < spec.columns.size(); ++j) {
    const spec_entry& col = spec.columns[j];
    if (col.k == spec_entry::kind::ratio) {
      const auto in_range = [&](int i) {
        return i >= 0 && static_cast<std::size_t>(i) < j &&
               spec.columns[static_cast<std::size_t>(i)].k ==
                   spec_entry::kind::probe;
      };
      if (!in_range(col.ratio_num) || !in_range(col.ratio_den)) {
        bad("ratio column \"" + col.header +
            "\" must reference earlier probe columns");
      }
    }
    if (col.k != spec_entry::kind::probe) continue;
    if (selectors[j].p->kind != metrics::probe_kind::check) {
      selectors[j] = metrics::resolve_selector(col.probe, col.cls, col.stat);
    } else if (!plan.world_free) {
      bad("check probe \"" + col.probe +
          "\" in a column needs a world-free spec or the \"checks\" list");
    } else if (!col.cls.empty() || !col.stat.empty()) {
      bad("check probe \"" + col.probe +
          "\" takes neither \"class\" nor \"stat\"");
    } else {
      has_check_cells = true;
    }
    auto run = std::find_if(
        plan.runs.begin(), plan.runs.end(),
        [&](const std::vector<std::size_t>& r) {
          return !plan.world_free && spec.columns[r.front()].set == col.set;
        });
    if (run == plan.runs.end()) run = plan.runs.emplace(run);
    run->push_back(j);
  }
  if (!spec.checks.empty() && plan.runs.size() != 1) {
    bad("\"checks\" need one run per row: give every probe column the "
        "same \"set\"");
  }
  if (spec.verdict.has_value() && !has_check_cells) {
    bad("\"verdict\" needs check probes (a \"checks\" list or check "
        "columns in a world-free spec)");
  }

  // Base settings: driver options first, then the spec's own overrides.
  cell_settings base{experiment_config{}, builtins, {}, eff,
                     spec.workload.has_value()};
  base.cfg.peer_count = eff.peers;
  base.cfg.gossip.view_size = eff.view_a;
  base.cfg.shards = eff.shards;
  (void)base.apply("transport", eff.transport);
  if (eff.udp_time_scale > 0) base.cfg.udp_time_scale = eff.udp_time_scale;
  for (const auto& [key, token] : spec.base) (void)base.apply(key, token);
  plan.transport = base.cfg.transport;

  const std::vector<std::string> split_tokens =
      spec.split.has_value() ? spec.split->axis.values
                             : std::vector<std::string>{std::string()};
  for (const std::string& split_token : split_tokens) {
    cell_settings split = base;
    spec_table& table = plan.tables.emplace_back();
    if (spec.split.has_value()) {
      const std::string split_label =
          split.apply(spec.split->axis.key, split_token);
      table.key = subst_braces(spec.split->table_key, split_label);
      if (!spec.split->section.empty()) {
        table.section = subst_braces(spec.split->section, split_label);
      }
    }
    for_each_row(spec.rows, [&](const std::vector<std::size_t>& index) {
      cell_settings row = split;
      std::vector<std::string>& labels = table.rows.emplace_back();
      util::json row_keys = util::json::object();
      for (std::size_t a = 0; a < spec.rows.size(); ++a) {
        const spec_axis& axis = spec.rows[a];
        const std::string& token = axis.values[index[a]];
        labels.push_back(row.apply(axis.key, token));
        if (!axis.cell_key.empty()) {
          row_keys[axis.cell_key] = var_value(var_numeric(axis.key, token));
        }
      }
      for (const std::vector<std::size_t>& run : plan.runs) {
        // The run's columns share one `set`: apply it once.
        cell_settings settings = row;
        for (const auto& [key, token] : spec.columns[run.front()].set) {
          (void)settings.apply(key, token);
        }
        spec_cell& cell = plan.cells.emplace_back();
        for (const std::size_t j : run) {
          const spec_entry& col = spec.columns[j];
          cell.sels.push_back(selectors[j]);
          if (!plan.cell_table) continue;
          util::json& keys = cell.cell_keys.emplace_back(row_keys);
          if (!col.cell_key.empty()) {
            keys[col.cell_key] =
                var_value(var_numeric(col.cell_key, col.cell_token));
          }
        }
        cell.cfg = std::move(settings.cfg);
        cell.params = std::move(settings.params);
        if (spec.workload.has_value()) {
          cell.program = workload::program_from_json(
              resolve_workload_vars(*spec.workload, settings.vars),
              cell.cfg.gossip.shuffle_period);
        }
      }
    });
  }
  return plan;
}

}  // namespace

void experiment_spec::validate() const {
  if (name.empty()) bad("\"name\" is required");
  if (!preamble.empty() && !title.empty()) {
    bad("\"preamble\" replaces the standard preamble; drop \"title\"");
  }
  if (rows.empty()) bad("at least one row axis is required");
  if (columns.empty()) bad("at least one column is required");
  if (split.has_value()) {
    if (split->axis.values.empty()) bad("split axis needs values");
    if (split->table_key.empty()) bad("split needs a \"table_key\"");
  }
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (std::size_t j = i + 1; j < profiles.size(); ++j) {
      if (profiles[i].first == profiles[j].first) {
        bad("duplicate profile \"" + profiles[i].first + "\"");
      }
    }
  }
  if (workload.has_value()) {
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
    if (timeline.period_s <= 0) {
      bad("\"timeline\" needs a positive \"period_s\"");
    }
    if (timeline.probes.empty()) {
      bad("\"timeline\" needs a non-empty \"probes\" array");
    }
  }
  // Everything else is checked by planning every cell at default run
  // options, without a profile: profiles override the values of builtin
  // variables but never introduce names, so a spec that validates also
  // runs profile-less.
  (void)plan_spec(*this, spec_options{});
}

util::json run_spec(const experiment_spec& spec, const spec_options& opt,
                    std::ostream& out) {
  // Scale options arrive from the command line; a negative value would
  // otherwise clamp into an empty run or wrap around as a size.
  if (opt.peers < 2) bad("peers must be >= 2");
  if (opt.seeds < 1) bad("seeds must be >= 1");
  if (opt.rounds < 0) bad("rounds must be >= 0");
  spec.validate();
  const spec_plan plan = plan_spec(spec, opt);
  const spec_options& eff = plan.eff;

  workload::bench_report report(spec.name);
  for (const auto& [name, value] : plan.report_params) {
    report.param(name, value);
  }
  // BENCH docs carry the transport so a reader can tell udp numbers
  // from sim ones (CI's udp-smoke gate asserts it); omitted for plain
  // sim runs, the default.
  if (!plan.world_free && plan.transport != transport_kind::sim) {
    report.add("transport", std::string(to_string(plan.transport)));
  }

  // Run: every (cell, seed) universe on one pool, cell-major. Seed s of
  // a cell is derive_seed(seed, s); each universe fills its own slot.
  const auto seeds = static_cast<std::size_t>(eff.seeds);
  std::vector<universe_result> results;
  if (!plan.world_free && !plan.cells.empty()) {
    const int tasks = static_cast<int>(plan.cells.size() * seeds);
    results.resize(plan.cells.size() * seeds);
    parallel_for(
        tasks, worker_budget(eff.threads, eff.shards, tasks), [&](int i) {
          const auto u = static_cast<std::size_t>(i);
          run_universe(spec, plan, plan.cells[u / seeds],
                       util::derive_seed(eff.seed, u % seeds), results[u]);
          net::release_thread_payloads();
        });
  }
  // Real-socket runs report their wire-level telemetry, summed over
  // every universe (CI's udp-smoke gate reads it).
  if (std::any_of(results.begin(), results.end(),
                  [](const universe_result& r) { return r.udp.has_value(); })) {
    using stats = net::udp_backend::backend_stats;
    util::json udp = util::json::object();
    for (const auto& [name, field] :
         std::initializer_list<std::pair<const char*, std::uint64_t stats::*>>{
             {"datagrams_sent", &stats::datagrams_sent},
             {"datagrams_received", &stats::datagrams_received},
             {"real_bytes_sent", &stats::real_bytes_sent},
             {"decode_errors", &stats::decode_errors},
             {"late_deliveries", &stats::late_deliveries},
             {"no_route", &stats::no_route},
             {"send_failures", &stats::send_failures}}) {
      std::uint64_t total = 0;
      for (const universe_result& r : results) {
        if (r.udp.has_value()) total += (*r.udp).*field;
      }
      udp[name] = total;
    }
    report.add("udp", std::move(udp));
  }

  // Render: tables, cells, checks and series from the slots, in plan
  // order; a world-free spec evaluates its cells here.
  print_preamble(spec, eff, out);
  util::json checks_json = util::json::array();
  bool checks_passed = true;
  util::json trajectories = util::json::array();
  util::json timeline_cells = util::json::array();
  util::json cells_json = util::json::array();
  bool msglog_dumped = false;

  std::vector<std::string> headers;
  for (const spec_axis& axis : spec.rows) {
    headers.push_back(subst_views(axis.header, eff));
  }
  for (const spec_entry& col : spec.columns) {
    headers.push_back(subst_views(col.header, eff));
  }
  std::size_t next_cell = 0;
  for (const spec_table& planned_table : plan.tables) {
    const std::string& table_key = planned_table.key;
    if (!planned_table.section.empty()) {
      out << "\n" << planned_table.section << "\n";
    }
    text_table table(headers);

    for (const std::vector<std::string>& row_labels : planned_table.rows) {

      /// Appends a {table?, row} entry to `sink` (check verdicts and
      /// per-seed series share the prefix).
      const auto row_entry = [&](util::json& sink) -> util::json& {
        util::json& entry = sink.push_back(util::json::object());
        if (!table_key.empty()) entry["table"] = table_key;
        util::json labels = util::json::array();
        for (const std::string& label : row_labels) labels.push_back(label);
        entry["row"] = std::move(labels);
        return entry;
      };

      /// Records a cell's per-seed captures: check verdicts, then the
      /// trajectory and timeline series. The first failed check prints
      /// its first failed seed's flight-recorder dump, when one was
      /// taken, so the hop-by-hop forensics land next to the verdict.
      const auto record_captures = [&](std::span<universe_result> per_seed,
                                       const std::string& column) {
        for (std::size_t c = 0; c < spec.checks.size(); ++c) {
          bool passed = true;
          std::string detail;
          util::json failed_seeds = util::json::array();
          const universe_result* first_failed = nullptr;
          for (std::size_t s = 0; s < per_seed.size(); ++s) {
            const util::json& verdict = per_seed[s].capture.at("checks").at(c);
            if (s == 0) detail = verdict.at("detail").as_string();
            if (!verdict.at("passed").as_bool()) {
              passed = false;
              failed_seeds.push_back(static_cast<std::int64_t>(s));
              if (first_failed == nullptr) first_failed = &per_seed[s];
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
          if (first_failed != nullptr && !msglog_dumped &&
              !first_failed->msglog.empty()) {
            msglog_dumped = true;
            std::cerr << "# check \"" << spec.checks[c].header
                      << "\" failed — sampled message flight records:\n"
                      << first_failed->msglog;
          }
        }
        const auto record_series = [&](util::json& sink, const char* part) {
          util::json series = util::json::array();
          for (universe_result& r : per_seed) {
            series.push_back(std::move(r.capture[part]));
          }
          util::json& entry = row_entry(sink);
          if (!column.empty()) entry["column"] = column;
          entry["per_seed"] = std::move(series);
        };
        if (plan.capture_traj) record_series(trajectories, "trajectory");
        if (plan.timeline) record_series(timeline_cells, "timeline");
      };

      std::vector<std::string> cells(spec.columns.size());
      std::vector<double> means(spec.columns.size(), 0.0);
      for (const std::vector<std::size_t>& run : plan.runs) {
        const std::size_t c = next_cell++;
        const spec_cell& cell = plan.cells[c];
        if (plan.world_free) {
          // Check cells render their check_result::cell and record a
          // verdict entry.
          const spec_entry& col = spec.columns[run.front()];
          const metrics::probe_selector& sel = cell.sels.front();
          const metrics::probe_value value =
              sel.p->run(metrics::probe_context{cell.params});
          if (value.kind != metrics::probe_kind::check) {
            cells[run.front()] =
                fmt(metrics::extract_scalar(sel, value), col.precision);
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

        const std::span<universe_result> per_seed(results.data() + c * seeds,
                                                  seeds);
        if (plan.capturing()) {
          // A series names its run's first column when the row has more
          // than one run.
          record_captures(per_seed,
                          plan.runs.size() > 1
                              ? subst_views(spec.columns[run.front()].header,
                                            eff)
                              : std::string());
        }
        for (std::size_t k = 0; k < run.size(); ++k) {
          const spec_entry& col = spec.columns[run[k]];
          seed_aggregate agg;
          for (const universe_result& r : per_seed) {
            agg.values.push_back(r.values[k]);
          }
          agg.stats = util::summarize(agg.values);
          if (plan.cell_table) {
            // The per-cell table: the column's cell_key values plus the
            // full multi-seed aggregate under its selector's name.
            util::json& entry = cells_json.push_back(util::json::object());
            if (!table_key.empty()) entry["table"] = table_key;
            for (const auto& [key, value] : cell.cell_keys[k].object_items()) {
              entry[key] = value;
            }
            const std::string& part = col.cls.empty() ? col.stat : col.cls;
            entry[part.empty() ? col.probe : col.probe + "." + part] =
                workload::to_json(agg);
          }
          means[run[k]] = agg.stats.mean;
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
    }

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

  if (plan.cell_table) report.add("cells", std::move(cells_json));
  if (plan.capture_traj && trajectories.size() > 0) {
    report.add("trajectories", std::move(trajectories));
  }
  if (plan.timeline) {
    if (!eff.timeline_csv.empty()) {
      write_timeline_csv(eff.timeline_csv, plan.timeline_names,
                         timeline_cells);
    }
    util::json block = util::json::object();
    block["period_s"] = plan.timeline_period_s;
    util::json cols = util::json::array();
    cols.push_back(std::string("t_s"));
    for (const std::string& name : plan.timeline_names) {
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
