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
  if (v < 0 || v != std::floor(v)) {
    bad("\"" + key + "\" value \"" + token +
        "\" must be a non-negative integer");
  }
  return static_cast<std::size_t>(v);
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
    if (token == "reference") {
      cfg.protocol = core::protocol_kind::reference;
    } else if (token == "nylon") {
      cfg.protocol = core::protocol_kind::nylon;
    } else if (token == "arrg") {
      cfg.protocol = core::protocol_kind::arrg;
    } else {
      bad("unknown protocol \"" + token + "\" (reference | nylon | arrg)");
    }
    return token;
  }
  if (key == "mix") {
    if (token == "paper") {
      cfg.mix = nat::paper_mix();
    } else if (token == "prc_only") {
      cfg.mix = nat::prc_only_mix();
    } else {
      bad("unknown mix \"" + token + "\" (paper | prc_only)");
    }
    return token;
  }
  if (key == "selection") {
    if (token == "rand") {
      cfg.gossip.selection = gossip::selection_policy::rand;
    } else if (token == "tail") {
      cfg.gossip.selection = gossip::selection_policy::tail;
    } else {
      bad("unknown selection \"" + token + "\" (rand | tail)");
    }
    return token;
  }
  if (key == "propagation") {
    if (token == "push") {
      cfg.gossip.propagation = gossip::propagation_policy::push;
    } else if (token == "pushpull") {
      cfg.gossip.propagation = gossip::propagation_policy::pushpull;
    } else {
      bad("unknown propagation \"" + token + "\" (push | pushpull)");
    }
    return token;
  }
  if (key == "merge") {
    if (token == "blind") {
      cfg.gossip.merge = gossip::merge_policy::blind;
    } else if (token == "healer") {
      cfg.gossip.merge = gossip::merge_policy::healer;
    } else if (token == "swapper") {
      cfg.gossip.merge = gossip::merge_policy::swapper;
    } else {
      bad("unknown merge \"" + token + "\" (blind | healer | swapper)");
    }
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
    if (token == "fixed") {
      cfg.latency_model = experiment_config::latency_kind::fixed;
    } else if (token == "uniform") {
      cfg.latency_model = experiment_config::latency_kind::uniform;
    } else if (token == "lognormal") {
      cfg.latency_model = experiment_config::latency_kind::lognormal;
    } else {
      bad("unknown latency_model \"" + token +
          "\" (fixed | uniform | lognormal)");
    }
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
    if (token == "sim") {
      cfg.transport = transport_kind::sim;
    } else if (token == "sim-frames") {
      cfg.transport = transport_kind::sim_frames;
    } else if (token == "udp") {
      cfg.transport = transport_kind::udp;
    } else {
      bad("unknown transport \"" + token + "\" (sim | sim-frames | udp)");
    }
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

std::string selector_part_from_json(const util::json& j, const char* key) {
  const util::json* v = j.find(key);
  if (v == nullptr) return {};
  if (!v->is_string()) {
    bad(std::string("\"") + key + "\" must be a string");
  }
  return v->as_string();
}

std::vector<spec_column> columns_from_json(const util::json& j) {
  if (!j.is_array() || j.size() == 0) {
    bad("\"columns\" must be a non-empty array");
  }
  std::vector<spec_column> out;
  for (const util::json& c : j.array_items()) {
    if (!c.is_object()) bad("column entries must be objects");

    if (const util::json* sweep = c.find("sweep")) {
      // Sugar: one column per swept value; "{}" in the header pattern
      // becomes the value token.
      ensure_keys(c,
                  {"sweep", "header", "probe", "class", "stat", "set",
                   "precision"},
                  "sweep column");
      const spec_axis axis = axis_from_json(*sweep, false, "column sweep");
      const util::json* header = c.find("header");
      const util::json* probe = c.find("probe");
      if (header == nullptr || !header->is_string()) {
        bad("sweep column needs a \"header\" pattern");
      }
      if (probe == nullptr || !probe->is_string()) {
        bad("sweep column needs a \"probe\"");
      }
      for (const std::string& token : axis.values) {
        spec_column col;
        col.k = spec_column::kind::probe;
        col.header = subst_braces(header->as_string(), token);
        if (const util::json* set = c.find("set")) {
          col.set = settings_from_json(*set, "column \"set\"");
        }
        col.set.emplace_back(axis.key, token);
        col.probe = probe->as_string();
        col.cls = selector_part_from_json(c, "class");
        col.stat = selector_part_from_json(c, "stat");
        col.precision = precision_from_json(c);
        col.cell_key = axis.cell_key;
        col.cell_token = token;
        out.push_back(std::move(col));
      }
      continue;
    }

    spec_column col;
    const util::json* header = c.find("header");
    if (header == nullptr || !header->is_string()) {
      bad("every column needs a \"header\"");
    }
    col.header = header->as_string();
    col.precision = precision_from_json(c);

    if (const util::json* ratio = c.find("ratio")) {
      ensure_keys(c, {"header", "ratio", "precision"}, "ratio column");
      if (!ratio->is_array() || ratio->size() != 2 ||
          !ratio->at(std::size_t{0}).is_int() ||
          !ratio->at(std::size_t{1}).is_int()) {
        bad("\"ratio\" must be [numerator_index, denominator_index]");
      }
      col.k = spec_column::kind::ratio;
      col.ratio_num = static_cast<int>(ratio->at(std::size_t{0}).as_int());
      col.ratio_den = static_cast<int>(ratio->at(std::size_t{1}).as_int());
    } else if (const util::json* rv = c.find("row_value")) {
      ensure_keys(c, {"header", "row_value", "precision"}, "row_value column");
      if (!rv->is_bool() || !rv->as_bool()) {
        bad("\"row_value\" must be true when present");
      }
      col.k = spec_column::kind::row_value;
    } else {
      ensure_keys(c,
                  {"header", "probe", "class", "stat", "set", "precision",
                   "cell_key", "cell_value"},
                  "probe column");
      const util::json* probe = c.find("probe");
      if (probe == nullptr || !probe->is_string()) {
        bad("column \"" + col.header + "\" needs a \"probe\"");
      }
      col.k = spec_column::kind::probe;
      col.probe = probe->as_string();
      col.cls = selector_part_from_json(c, "class");
      col.stat = selector_part_from_json(c, "stat");
      if (const util::json* set = c.find("set")) {
        col.set = settings_from_json(*set, "column \"set\"");
      }
      // The expanded (non-sweep) spelling of a cells-mode column.
      if (const util::json* cell_key = c.find("cell_key")) {
        if (!cell_key->is_string()) bad("\"cell_key\" must be a string");
        col.cell_key = cell_key->as_string();
        const util::json* cell_value = c.find("cell_value");
        if (cell_value == nullptr) bad("\"cell_key\" needs a \"cell_value\"");
        col.cell_token = token_of(*cell_value);
      }
    }
    out.push_back(std::move(col));
  }
  return out;
}

std::vector<spec_probe> probes_from_json(const util::json& j) {
  if (!j.is_array() || j.size() == 0) {
    bad("\"probes\" must be a non-empty array");
  }
  std::vector<spec_probe> out;
  for (const util::json& p : j.array_items()) {
    spec_probe entry;
    if (const util::json* ratio = p.find("ratio")) {
      // Computed entry: a ratio of two earlier probe entries' means.
      ensure_keys(p, {"header", "ratio", "precision"}, "ratio probe entry");
      if (!ratio->is_array() || ratio->size() != 2 ||
          !ratio->at(std::size_t{0}).is_int() ||
          !ratio->at(std::size_t{1}).is_int()) {
        bad("\"ratio\" must be [numerator_index, denominator_index]");
      }
      const util::json* header = p.find("header");
      if (header == nullptr || !header->is_string()) {
        bad("ratio probe entries need a \"header\"");
      }
      entry.header = header->as_string();
      entry.ratio_num = static_cast<int>(ratio->at(std::size_t{0}).as_int());
      entry.ratio_den = static_cast<int>(ratio->at(std::size_t{1}).as_int());
      entry.precision = precision_from_json(p);
      out.push_back(std::move(entry));
      continue;
    }
    ensure_keys(p, {"probe", "header", "class", "stat", "precision"},
                "probe entry");
    const util::json* name = p.find("probe");
    if (name == nullptr || !name->is_string()) {
      bad("probe entries need a \"probe\" name");
    }
    entry.probe = name->as_string();
    const util::json* header = p.find("header");
    entry.header = header != nullptr && header->is_string()
                       ? header->as_string()
                       : entry.probe;
    entry.cls = selector_part_from_json(p, "class");
    entry.stat = selector_part_from_json(p, "stat");
    entry.precision = precision_from_json(p);
    out.push_back(std::move(entry));
  }
  return out;
}

std::vector<spec_check> checks_from_json(const util::json& j) {
  if (!j.is_array() || j.size() == 0) {
    bad("\"checks\" must be a non-empty array");
  }
  std::vector<spec_check> out;
  for (const util::json& c : j.array_items()) {
    if (!c.is_object()) bad("check entries must be objects");
    ensure_keys(c, {"probe", "name"}, "check entry");
    spec_check entry;
    const util::json* probe = c.find("probe");
    if (probe == nullptr || !probe->is_string()) {
      bad("check entries need a \"probe\" name");
    }
    entry.probe = probe->as_string();
    if (const util::json* name = c.find("name")) {
      if (!name->is_string()) bad("check \"name\" must be a string");
      entry.name = name->as_string();
    } else {
      entry.name = entry.probe;
    }
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
  const bool has_columns = !columns.empty();
  const bool has_probes = !probes.empty();
  if (has_columns == has_probes) {
    bad("exactly one of \"columns\" / \"probes\" is required");
  }

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
  // static spec's columns/probes or the "checks" list.
  const auto check_probe_ref = [&](const std::string& probe_name,
                                   const std::string& cls,
                                   const std::string& stat,
                                   const char* where) {
    const metrics::probe* p = metrics::find_probe(probe_name);
    if (p == nullptr) bad("unknown probe \"" + probe_name + "\"");
    if (static_eval && p->needs_world) {
      bad("probe \"" + probe_name +
          "\" needs a simulated world; it cannot run in a \"static\" spec");
    }
    if (p->kind == metrics::probe_kind::check) {
      if (!static_eval) {
        bad("check probe \"" + probe_name + "\" in " + where +
            " needs a \"static\" spec or the \"checks\" list");
      }
      if (!cls.empty() || !stat.empty()) {
        bad("check probe \"" + probe_name +
            "\" takes neither \"class\" nor \"stat\"");
      }
      return;
    }
    (void)metrics::resolve_selector(probe_name, cls, stat);
  };

  for (std::size_t j = 0; j < columns.size(); ++j) {
    const spec_column& col = columns[j];
    switch (col.k) {
      case spec_column::kind::probe: {
        check_probe_ref(col.probe, col.cls, col.stat, "\"columns\"");
        experiment_config cfg = scratch;
        for (const auto& [key, token] : col.set) {
          check_setting(cfg, key, token);
        }
        break;
      }
      case spec_column::kind::ratio: {
        if (static_eval) {
          bad("ratio columns need seed aggregates; they cannot run in a "
              "\"static\" spec");
        }
        const auto in_range = [&](int i) {
          return i >= 0 && static_cast<std::size_t>(i) < j &&
                 columns[static_cast<std::size_t>(i)].k ==
                     spec_column::kind::probe;
        };
        if (!in_range(col.ratio_num) || !in_range(col.ratio_den)) {
          bad("ratio column \"" + col.header +
              "\" must reference earlier probe columns");
        }
        break;
      }
      case spec_column::kind::row_value:
        break;
    }
  }
  for (std::size_t j = 0; j < probes.size(); ++j) {
    const spec_probe& p = probes[j];
    if (p.ratio_num >= 0 || p.ratio_den >= 0) {
      if (static_eval) {
        bad("ratio probe entries need seed aggregates; they cannot run in "
            "a \"static\" spec");
      }
      const auto in_range = [&](int i) {
        return i >= 0 && static_cast<std::size_t>(i) < j &&
               probes[static_cast<std::size_t>(i)].ratio_num < 0;
      };
      if (!in_range(p.ratio_num) || !in_range(p.ratio_den)) {
        bad("ratio probe entry \"" + p.header +
            "\" must reference earlier probe entries");
      }
      continue;
    }
    check_probe_ref(p.probe, p.cls, p.stat, "\"probes\"");
  }

  for (const spec_check& c : checks) {
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
      bad("a static spec carries its checks as columns/probes; drop the "
          "\"checks\" list");
    }
    if (probes.empty()) {
      bad("\"checks\" ride the shared run of \"probes\" mode");
    }
  }
  if (verdict.has_value()) {
    bool has_check_cells = !checks.empty();
    if (static_eval) {
      for (const spec_column& col : columns) {
        if (col.k != spec_column::kind::probe) continue;
        const metrics::probe* p = metrics::find_probe(col.probe);
        has_check_cells = has_check_cells ||
                          (p != nullptr &&
                           p->kind == metrics::probe_kind::check);
      }
      for (const spec_probe& p : probes) {
        const metrics::probe* probe = metrics::find_probe(p.probe);
        has_check_cells = has_check_cells ||
                          (probe != nullptr &&
                           probe->kind == metrics::probe_kind::check);
      }
    }
    if (!has_check_cells) {
      bad("\"verdict\" needs check probes (a \"checks\" list or check "
          "columns in a static spec)");
    }
  }

  if (static_eval) {
    if (workload.has_value()) bad("a \"static\" spec cannot have a workload");
    if (!warmup.empty()) bad("a \"static\" spec cannot have a warmup");
    if (cells) bad("\"cells\" needs seed aggregates (non-static specs)");
    if (trajectories) bad("\"trajectories\" requires a \"workload\"");
    if (single_seed) {
      bad("\"single_seed\" is meaningless in a \"static\" spec");
    }
    if (distributions) {
      bad("\"distributions\" needs seed aggregates (non-static specs)");
    }
  }
  if (distributions && probes.empty()) {
    bad("\"distributions\" rides the shared run of \"probes\" mode");
  }

  if (!warmup.empty() && warmup != "half") {
    const std::size_t v = count_token("warmup", warmup, defaults);
    (void)v;
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
  if (cells && columns.empty()) {
    bad("\"cells\" requires \"columns\" mode");
  }
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
    for (const spec_column& col : columns) {
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
    for (const spec_column& col : columns) {
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
               "trajectory_sample_periods", "timeline", "cells",
               "distributions", "static", "single_seed"},
              "spec");
  experiment_spec spec;
  const util::json* name = doc.find("name");
  if (name == nullptr || !name->is_string()) {
    bad("spec needs a string \"name\"");
  }
  spec.name = name->as_string();
  if (const util::json* title = doc.find("title")) {
    if (!title->is_string()) bad("\"title\" must be a string");
    spec.title = title->as_string();
  }
  if (const util::json* preamble = doc.find("preamble")) {
    if (!preamble->is_array()) {
      bad("\"preamble\" must be an array of strings");
    }
    for (const util::json& line : preamble->array_items()) {
      if (!line.is_string()) bad("\"preamble\" must be an array of strings");
      spec.preamble.push_back(line.as_string());
    }
  }
  if (const util::json* footer = doc.find("footer")) {
    if (!footer->is_array()) bad("\"footer\" must be an array of strings");
    for (const util::json& line : footer->array_items()) {
      if (!line.is_string()) bad("\"footer\" must be an array of strings");
      spec.footer.push_back(line.as_string());
    }
  }
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
    if (const util::json* section = split->find("section")) {
      if (!section->is_string()) bad("split \"section\" must be a string");
      s.section = section->as_string();
    }
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
  if (const util::json* columns = doc.find("columns")) {
    spec.columns = columns_from_json(*columns);
  }
  if (const util::json* probes = doc.find("probes")) {
    spec.probes = probes_from_json(*probes);
  }
  if (const util::json* checks = doc.find("checks")) {
    spec.checks = checks_from_json(*checks);
  }
  if (const util::json* verdict = doc.find("verdict")) {
    spec.verdict = verdict_from_json(*verdict);
  }
  if (const util::json* profiles = doc.find("profiles")) {
    spec.profiles = profiles_from_json(*profiles);
  }
  if (const util::json* params = doc.find("report_params")) {
    if (!params->is_array()) bad("\"report_params\" must be an array");
    for (const util::json& p : params->array_items()) {
      if (!p.is_string()) bad("\"report_params\" entries must be strings");
      spec.report_params.push_back(p.as_string());
    }
  }
  if (const util::json* warmup = doc.find("warmup")) {
    spec.warmup = warmup->is_string() ? warmup->as_string() : token_of(*warmup);
  }
  if (const util::json* workload = doc.find("workload")) {
    spec.workload = *workload;
  }
  if (const util::json* t = doc.find("trajectories")) {
    if (!t->is_bool()) bad("\"trajectories\" must be a bool");
    spec.trajectories = t->as_bool();
  }
  if (const util::json* c = doc.find("cells")) {
    if (!c->is_bool()) bad("\"cells\" must be a bool");
    spec.cells = c->as_bool();
  }
  if (const util::json* d = doc.find("distributions")) {
    if (!d->is_bool()) bad("\"distributions\" must be a bool");
    spec.distributions = d->as_bool();
  }
  if (const util::json* s = doc.find("static")) {
    if (!s->is_bool()) bad("\"static\" must be a bool");
    spec.static_eval = s->as_bool();
  }
  if (const util::json* s = doc.find("single_seed")) {
    if (!s->is_bool()) bad("\"single_seed\" must be a bool");
    spec.single_seed = s->as_bool();
  }
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
    const util::json* probes = t->find("probes");
    if (probes == nullptr || !probes->is_array() || probes->size() == 0) {
      bad("\"timeline\" needs a non-empty \"probes\" array");
    }
    for (const util::json& p : probes->array_items()) {
      if (!p.is_string()) bad("\"timeline\" probes must be strings");
      spec.timeline.probes.push_back(p.as_string());
    }
  }
  spec.validate();
  return spec;
}

namespace {

util::json axis_to_json(const spec_axis& axis) {
  util::json j = util::json::object();
  j["axis"] = axis.key;
  if (!axis.header.empty()) j["header"] = axis.header;
  if (!axis.cell_key.empty()) j["cell_key"] = axis.cell_key;
  util::json values = util::json::array();
  for (const std::string& v : axis.values) values.push_back(v);
  j["values"] = std::move(values);
  return j;
}

util::json settings_to_json(const std::vector<spec_setting>& settings) {
  util::json j = util::json::object();
  for (const auto& [key, token] : settings) j[key] = token;
  return j;
}

util::json lines_to_json(const std::vector<std::string>& lines) {
  util::json j = util::json::array();
  for (const std::string& line : lines) j.push_back(line);
  return j;
}

}  // namespace

util::json spec_to_json(const experiment_spec& spec) {
  util::json doc = util::json::object();
  doc["name"] = spec.name;
  if (!spec.title.empty()) doc["title"] = spec.title;
  if (!spec.preamble.empty()) doc["preamble"] = lines_to_json(spec.preamble);
  if (!spec.footer.empty()) doc["footer"] = lines_to_json(spec.footer);
  if (!spec.base.empty()) doc["base"] = settings_to_json(spec.base);
  if (!spec.warmup.empty()) doc["warmup"] = spec.warmup;
  if (spec.static_eval) doc["static"] = true;
  if (spec.single_seed) doc["single_seed"] = true;
  if (spec.split.has_value()) {
    util::json split = axis_to_json(spec.split->axis);
    if (!spec.split->section.empty()) split["section"] = spec.split->section;
    split["table_key"] = spec.split->table_key;
    doc["split"] = std::move(split);
  }
  util::json rows = util::json::array();
  for (const spec_axis& axis : spec.rows) rows.push_back(axis_to_json(axis));
  doc["rows"] = std::move(rows);
  if (!spec.columns.empty()) {
    util::json columns = util::json::array();
    for (const spec_column& col : spec.columns) {
      util::json c = util::json::object();
      c["header"] = col.header;
      switch (col.k) {
        case spec_column::kind::probe:
          c["probe"] = col.probe;
          if (!col.cls.empty()) c["class"] = col.cls;
          if (!col.stat.empty()) c["stat"] = col.stat;
          if (!col.set.empty()) c["set"] = settings_to_json(col.set);
          if (!col.cell_key.empty()) {
            c["cell_key"] = col.cell_key;
            c["cell_value"] = col.cell_token;
          }
          break;
        case spec_column::kind::ratio: {
          util::json ratio = util::json::array();
          ratio.push_back(col.ratio_num);
          ratio.push_back(col.ratio_den);
          c["ratio"] = std::move(ratio);
          break;
        }
        case spec_column::kind::row_value:
          c["row_value"] = true;
          break;
      }
      if (col.precision != 1) c["precision"] = col.precision;
      columns.push_back(std::move(c));
    }
    doc["columns"] = std::move(columns);
  }
  if (!spec.probes.empty()) {
    util::json probes = util::json::array();
    for (const spec_probe& p : spec.probes) {
      util::json entry = util::json::object();
      if (p.ratio_num >= 0) {
        entry["header"] = p.header;
        util::json ratio = util::json::array();
        ratio.push_back(p.ratio_num);
        ratio.push_back(p.ratio_den);
        entry["ratio"] = std::move(ratio);
      } else {
        entry["probe"] = p.probe;
        entry["header"] = p.header;
        if (!p.cls.empty()) entry["class"] = p.cls;
        if (!p.stat.empty()) entry["stat"] = p.stat;
      }
      if (p.precision != 1) entry["precision"] = p.precision;
      probes.push_back(std::move(entry));
    }
    doc["probes"] = std::move(probes);
  }
  if (!spec.checks.empty()) {
    util::json checks = util::json::array();
    for (const spec_check& c : spec.checks) {
      util::json entry = util::json::object();
      entry["probe"] = c.probe;
      if (c.name != c.probe) entry["name"] = c.name;
      checks.push_back(std::move(entry));
    }
    doc["checks"] = std::move(checks);
  }
  if (spec.verdict.has_value()) {
    util::json verdict = util::json::object();
    verdict["pass"] = spec.verdict->pass;
    verdict["fail"] = spec.verdict->fail;
    doc["verdict"] = std::move(verdict);
  }
  if (!spec.profiles.empty()) {
    util::json profiles = util::json::object();
    for (const auto& [name, prof] : spec.profiles) {
      util::json body = util::json::object();
      if (prof.peers) body["peers"] = *prof.peers;
      if (prof.seeds) body["seeds"] = *prof.seeds;
      if (prof.rounds) body["rounds"] = *prof.rounds;
      if (prof.view_a) body["view_a"] = *prof.view_a;
      if (prof.view_b) body["view_b"] = *prof.view_b;
      if (!prof.vars.empty()) body["vars"] = settings_to_json(prof.vars);
      profiles[name] = std::move(body);
    }
    doc["profiles"] = std::move(profiles);
  }
  if (!spec.report_params.empty()) {
    util::json params = util::json::array();
    for (const std::string& p : spec.report_params) params.push_back(p);
    doc["report_params"] = std::move(params);
  }
  if (spec.workload.has_value()) doc["workload"] = *spec.workload;
  if (spec.trajectories) doc["trajectories"] = true;
  if (spec.cells) doc["cells"] = true;
  if (spec.distributions) doc["distributions"] = true;
  if (spec.trajectory_sample_periods != 0) {
    doc["trajectory_sample_periods"] = spec.trajectory_sample_periods;
  }
  if (spec.timeline.enabled) {
    util::json t = util::json::object();
    t["period_s"] = spec.timeline.period_s;
    util::json probes = util::json::array();
    for (const std::string& p : spec.timeline.probes) probes.push_back(p);
    t["probes"] = std::move(probes);
    doc["timeline"] = std::move(t);
  }
  return doc;
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
  /// The cell's workload document with variables resolved (null when the
  /// spec has none); updated by the row loop before each sweep.
  const util::json* workload_doc = nullptr;
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

  /// Simulates one cell at one seed and evaluates `sels` on the final
  /// state. The probe-visible window is the measured span. When
  /// capturing, `capture` receives an object with the per-seed
  /// "trajectory", "checks" and/or "timeline" members.
  std::vector<double> run_once(experiment_config cfg, std::uint64_t seed,
                               std::span<const metrics::probe_selector> sels,
                               const param_map& params,
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

  /// One multi-seed sweep of a cell; fills `per_seed` with captures when
  /// capturing.
  std::vector<seed_aggregate> sweep(
      const experiment_config& cfg,
      std::span<const metrics::probe_selector> sels, const param_map& params,
      util::json* per_seed) const {
    run_options ropt{};
    ropt.threads = opt.threads;
    ropt.shards = cfg.shards;
    if (!capturing()) {
      return run_seeds_multi(
          opt.seeds, opt.seed, sels.size(),
          [&](std::uint64_t seed) {
            return run_once(cfg, seed, sels, params, nullptr);
          },
          ropt);
    }
    multi_seed_result result = run_seeds_multi_captured(
        opt.seeds, opt.seed, sels.size(),
        [&](std::uint64_t seed, util::json& capture_slot) {
          return run_once(cfg, seed, sels, params, &capture_slot);
        },
        ropt);
    if (per_seed != nullptr) {
      *per_seed = util::json::array();
      for (util::json& c : result.captures) {
        per_seed->push_back(std::move(c));
      }
    }
    return result.aggregates;
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

/// The "probes"-mode measurement plan: one metric slot per non-ratio
/// entry plus hidden slots for the full distribution summaries when the
/// spec opts into "distributions".
struct shared_plan {
  std::vector<metrics::probe_selector> selectors;  ///< metric slots
  std::vector<int> entry_metric;  ///< per entry: slot index, -1 = ratio
  struct dist_block {
    std::size_t entry;               ///< spec.probes index
    int base;                        ///< first hidden metric slot
    std::vector<std::string> stats;  ///< hidden stats, slot order
  };
  std::vector<dist_block> dist_blocks;
};

shared_plan build_shared_plan(const experiment_spec& spec) {
  shared_plan plan;
  for (const spec_probe& p : spec.probes) {
    if (p.ratio_num >= 0) {
      plan.entry_metric.push_back(-1);
      continue;
    }
    plan.entry_metric.push_back(static_cast<int>(plan.selectors.size()));
    plan.selectors.push_back(
        metrics::resolve_selector(p.probe, p.cls, p.stat));
  }
  if (spec.distributions) {
    for (std::size_t i = 0; i < spec.probes.size(); ++i) {
      const spec_probe& p = spec.probes[i];
      if (p.ratio_num >= 0) continue;
      const metrics::probe* probe = metrics::find_probe(p.probe);
      if (probe == nullptr ||
          probe->kind != metrics::probe_kind::distribution) {
        continue;
      }
      shared_plan::dist_block block;
      block.entry = i;
      block.base = static_cast<int>(plan.selectors.size());
      block.stats = {"count", "mean", "stddev", "min", "max"};
      if (probe->quantiles) {
        block.stats.insert(block.stats.end(), {"p50", "p90", "p99"});
      }
      for (const std::string& stat : block.stats) {
        plan.selectors.push_back(
            metrics::resolve_selector(p.probe, {}, stat));
      }
      plan.dist_blocks.push_back(std::move(block));
    }
  }
  return plan;
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

/// Static execution: no simulation, no seeds — every cell is one
/// world-free probe evaluation (the §2.2 traversal table). Check cells
/// render check_result::cell and record verdict entries.
void run_static_spec(const experiment_spec& spec, const spec_options& eff,
                     std::ostream& out, workload::bench_report& report,
                     util::json& checks_json, bool& checks_passed) {
  std::vector<std::string> headers;
  for (const spec_axis& axis : spec.rows) {
    headers.push_back(subst_views(axis.header, eff));
  }
  for (const spec_column& col : spec.columns) {
    headers.push_back(subst_views(col.header, eff));
  }
  for (const spec_probe& p : spec.probes) {
    headers.push_back(subst_views(p.header, eff));
  }
  text_table table(std::move(headers));

  experiment_config scratch;
  for_each_row(spec.rows, [&](const std::vector<std::size_t>& index) {
    var_map vars;
    param_map row_params;
    std::vector<std::string> cells;
    const auto apply = [&](param_map& params, const std::string& key,
                           const std::string& token) -> std::string {
      if (is_workload_var(key)) {
        vars[key.substr(1)] = token;
        return token;
      }
      if (is_param_key(key)) {
        params[key.substr(1)] = token;
        return token;
      }
      return apply_setting(scratch, key, token, eff);
    };
    for (const auto& [key, token] : spec.base) {
      (void)apply(row_params, key, token);
    }
    for (std::size_t a = 0; a < spec.rows.size(); ++a) {
      cells.push_back(
          apply(row_params, spec.rows[a].key, spec.rows[a].values[index[a]]));
    }
    const std::vector<std::string> row_labels = cells;

    const auto record_check = [&](const std::string& column,
                                  const std::string& check_name,
                                  const metrics::check_result& result) {
      util::json& entry = checks_json.push_back(util::json::object());
      util::json row = util::json::array();
      for (const std::string& label : row_labels) row.push_back(label);
      entry["row"] = std::move(row);
      if (!column.empty()) entry["column"] = column;
      entry["check"] = check_name;
      entry["passed"] = result.passed;
      if (!result.detail.empty()) entry["detail"] = result.detail;
      checks_passed = checks_passed && result.passed;
    };

    const auto eval_cell = [&](const std::string& probe_name,
                               const std::string& cls,
                               const std::string& stat, int precision,
                               const param_map& params,
                               const std::string& column) -> std::string {
      const metrics::probe* p = metrics::find_probe(probe_name);
      NYLON_ENSURES(p != nullptr);  // validate() checked
      const metrics::probe_context ctx{params};
      const metrics::probe_value value = p->run(ctx);
      if (value.kind == metrics::probe_kind::check) {
        record_check(column, probe_name, value.check);
        return value.check.cell;
      }
      const metrics::probe_selector sel =
          metrics::resolve_selector(probe_name, cls, stat);
      return fmt(metrics::extract_scalar(sel, value), precision);
    };

    for (const spec_column& col : spec.columns) {
      switch (col.k) {
        case spec_column::kind::probe: {
          param_map params = row_params;
          for (const auto& [key, token] : col.set) {
            (void)apply(params, key, token);
          }
          cells.push_back(eval_cell(col.probe, col.cls, col.stat,
                                    col.precision, params,
                                    subst_views(col.header, eff)));
          break;
        }
        case spec_column::kind::ratio:
          cells.push_back(fmt(0.0, col.precision));  // validate() forbids
          break;
        case spec_column::kind::row_value:
          cells.push_back(row_labels.front());
          break;
      }
    }
    for (const spec_probe& p : spec.probes) {
      cells.push_back(eval_cell(p.probe, p.cls, p.stat, p.precision,
                                row_params, subst_views(p.header, eff)));
    }
    table.add_row(std::move(cells));
  });

  if (eff.csv) {
    table.print_csv(out);
  } else {
    table.print(out);
  }
  report.add("table", workload::to_json(table));
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

  util::json checks_json = util::json::array();
  bool checks_passed = true;

  if (spec.static_eval) {
    run_static_spec(spec, eff, out, report, checks_json, checks_passed);
  } else {
    spec_execution exec{spec, eff};
    if (spec.warmup == "half") {
      exec.warmup = eff.rounds / 2;
    } else if (!spec.warmup.empty()) {
      exec.warmup = static_cast<int>(count_token("warmup", spec.warmup, eff));
    }
    if (exec.warmup > eff.rounds) exec.warmup = eff.rounds;
    exec.measure = eff.rounds - exec.warmup;
    exec.capture_traj = spec.workload.has_value() &&
                        (spec.trajectories || eff.trajectories);
    exec.capture_checks = !spec.checks.empty();
    for (const spec_check& c : spec.checks) {
      exec.check_probes.push_back(metrics::find_probe(c.probe));
    }

    // Effective timeline: the spec's own block, force-enabled by
    // --timeline (default passive columns when the spec declares none),
    // period overridable by --timeline-period. Resolving here (not just
    // in validate()) also vets flag-supplied columns.
    spec_timeline tl = spec.timeline;
    if (eff.timeline && !tl.enabled) {
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

    // Base config: driver options first, then the spec's own overrides.
    // '$'-keys accumulate as workload variables, '%'-keys as probe
    // parameters, instead of touching the config.
    var_map base_vars = builtins;
    param_map base_params;
    const auto apply_or_var = [&eff](experiment_config& cfg, var_map& vars,
                                     param_map& params,
                                     const std::string& key,
                                     const std::string& token) -> std::string {
      if (is_workload_var(key)) {
        vars[key.substr(1)] = token;
        return token;
      }
      if (is_param_key(key)) {
        params[key.substr(1)] = token;
        return token;
      }
      return apply_setting(cfg, key, token, eff);
    };
    experiment_config base_cfg;
    base_cfg.peer_count = eff.peers;
    base_cfg.gossip.view_size = eff.view_a;
    base_cfg.shards = eff.shards;
    apply_setting(base_cfg, "transport", eff.transport, eff);
    if (eff.udp_time_scale > 0) base_cfg.udp_time_scale = eff.udp_time_scale;
    for (const auto& [key, token] : spec.base) {
      apply_or_var(base_cfg, base_vars, base_params, key, token);
    }
    // BENCH docs carry the transport so bench/trend.py can key trends on
    // it (sim and udp numbers must never mix); omitted for plain sim
    // runs, which trend.py reads as the default.
    if (base_cfg.transport != transport_kind::sim) {
      report.add("transport", std::string(to_string(base_cfg.transport)));
    }
    // Measurement plan of the shared-run ("probes") mode.
    const shared_plan plan = build_shared_plan(spec);

    util::json trajectories = util::json::array();
    util::json timeline_cells = util::json::array();
    util::json cells_json = util::json::array();
    util::json distributions_json = util::json::array();
    bool msglog_dumped = false;

    const std::vector<std::string> split_tokens =
        spec.split.has_value() ? spec.split->axis.values
                               : std::vector<std::string>{std::string()};
    for (const std::string& split_token : split_tokens) {
      experiment_config split_cfg = base_cfg;
      var_map split_vars = base_vars;
      param_map split_params = base_params;
      std::string split_label;
      std::string table_key;
      if (spec.split.has_value()) {
        split_label = apply_or_var(split_cfg, split_vars, split_params,
                                   spec.split->axis.key, split_token);
        table_key = subst_braces(spec.split->table_key, split_label);
        if (!spec.split->section.empty()) {
          out << "\n" << subst_braces(spec.split->section, split_label)
              << "\n";
        }
      }

      std::vector<std::string> headers;
      for (const spec_axis& axis : spec.rows) {
        headers.push_back(subst_views(axis.header, eff));
      }
      for (const spec_column& col : spec.columns) {
        headers.push_back(subst_views(col.header, eff));
      }
      for (const spec_probe& p : spec.probes) {
        headers.push_back(subst_views(p.header, eff));
      }
      text_table table(std::move(headers));

      for_each_row(spec.rows, [&](const std::vector<std::size_t>& index) {
        experiment_config row_cfg = split_cfg;
        var_map row_vars = split_vars;
        param_map row_params = split_params;
        std::vector<std::string> cells;
        for (std::size_t a = 0; a < spec.rows.size(); ++a) {
          cells.push_back(apply_or_var(row_cfg, row_vars, row_params,
                                       spec.rows[a].key,
                                       spec.rows[a].values[index[a]]));
        }
        const std::vector<std::string> row_labels = cells;

        // The row's workload document, variables resolved; column-level
        // '$' settings are resolved per column below.
        util::json resolved_workload;
        if (spec.workload.has_value()) {
          resolved_workload = resolve_workload_vars(*spec.workload, row_vars);
          exec.workload_doc = &resolved_workload;
        }

        /// `cells` mode: one entry per probe column, carrying each
        /// cell_key'd axis value plus the full multi-seed aggregate.
        const auto record_cell = [&](const spec_column& col,
                                     const std::vector<seed_aggregate>&
                                         aggs) {
          if (!spec.cells) return;
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
          entry[metric_key] = workload::to_json(aggs[0]);
        };

        /// Appends one {table?, row, column?, per_seed} entry to `sink`
        /// (trajectories and timeline cells share the shape).
        const auto record_series = [&](util::json& sink, util::json per_seed,
                                       const std::string& column) {
          if (per_seed.is_null()) return;
          util::json& entry = sink.push_back(util::json::object());
          if (!table_key.empty()) entry["table"] = table_key;
          util::json row = util::json::array();
          for (const std::string& label : row_labels) row.push_back(label);
          entry["row"] = std::move(row);
          if (!column.empty()) entry["column"] = column;
          entry["per_seed"] = std::move(per_seed);
        };

        /// The trajectory / timeline halves of a captured per-seed
        /// array (null members when that capture is off).
        struct capture_halves {
          util::json traj;
          util::json timeline;
        };

        /// Splits a captured per-seed array into its halves and records
        /// check verdicts. A failed check triggers a one-shot dump of
        /// the message flight recorder (when `nylon_exp --msglog` armed
        /// it) so the hop-by-hop forensics land next to the verdict.
        const auto unwrap_captures =
            [&](util::json per_seed) -> capture_halves {
          capture_halves halves;
          if (per_seed.is_null()) return halves;
          const std::size_t seeds = per_seed.size();
          for (std::size_t j = 0; j < spec.checks.size(); ++j) {
            bool passed = true;
            std::string detail;
            util::json failed_seeds = util::json::array();
            for (std::size_t s = 0; s < seeds; ++s) {
              const util::json& entry =
                  per_seed.at(s).at("checks").at(j);
              const bool seed_passed = entry.at("passed").as_bool();
              if (s == 0) detail = entry.at("detail").as_string();
              if (!seed_passed) {
                passed = false;
                failed_seeds.push_back(static_cast<std::int64_t>(s));
              }
            }
            util::json& entry = checks_json.push_back(util::json::object());
            if (!table_key.empty()) entry["table"] = table_key;
            util::json row = util::json::array();
            for (const std::string& label : row_labels) {
              row.push_back(label);
            }
            entry["row"] = std::move(row);
            entry["check"] = spec.checks[j].name;
            entry["passed"] = passed;
            if (!detail.empty()) entry["detail"] = detail;
            if (failed_seeds.size() > 0) {
              entry["failed_seeds"] = std::move(failed_seeds);
            }
            checks_passed = checks_passed && passed;
            if (!passed && !msglog_dumped && obs::msglog_enabled()) {
              msglog_dumped = true;
              std::cerr << "# check \"" << spec.checks[j].name
                        << "\" failed — sampled message flight records:\n";
              obs::msglog_dump(std::cerr, 40);
            }
          }
          if (exec.capture_traj) {
            halves.traj = util::json::array();
            for (std::size_t s = 0; s < seeds; ++s) {
              halves.traj.push_back(per_seed.at(s).at("trajectory"));
            }
          }
          if (exec.capture_timeline) {
            halves.timeline = util::json::array();
            for (std::size_t s = 0; s < seeds; ++s) {
              halves.timeline.push_back(per_seed.at(s).at("timeline"));
            }
          }
          return halves;
        };

        const auto record_distributions =
            [&](const std::vector<seed_aggregate>& aggs) {
              for (const shared_plan::dist_block& block : plan.dist_blocks) {
                util::json& entry =
                    distributions_json.push_back(util::json::object());
                if (!table_key.empty()) entry["table"] = table_key;
                util::json row = util::json::array();
                for (const std::string& label : row_labels) {
                  row.push_back(label);
                }
                entry["row"] = std::move(row);
                entry["probe"] = spec.probes[block.entry].probe;
                entry["header"] =
                    subst_views(spec.probes[block.entry].header, eff);
                for (std::size_t k = 0; k < block.stats.size(); ++k) {
                  entry[block.stats[k]] = workload::to_json(
                      aggs[static_cast<std::size_t>(block.base) + k]);
                }
              }
            };

        if (!spec.columns.empty()) {
          std::vector<double> means(spec.columns.size(), 0.0);
          for (std::size_t j = 0; j < spec.columns.size(); ++j) {
            const spec_column& col = spec.columns[j];
            switch (col.k) {
              case spec_column::kind::probe: {
                experiment_config cfg = row_cfg;
                var_map col_vars = row_vars;
                param_map col_params = row_params;
                bool col_has_vars = false;
                for (const auto& [key, token] : col.set) {
                  col_has_vars = col_has_vars || is_workload_var(key);
                  apply_or_var(cfg, col_vars, col_params, key, token);
                }
                util::json col_workload;
                if (col_has_vars && spec.workload.has_value()) {
                  col_workload =
                      resolve_workload_vars(*spec.workload, col_vars);
                  exec.workload_doc = &col_workload;
                }
                const metrics::probe_selector sel =
                    metrics::resolve_selector(col.probe, col.cls, col.stat);
                util::json per_seed;
                const std::vector<seed_aggregate> aggs = exec.sweep(
                    cfg, std::span<const metrics::probe_selector>{&sel, 1},
                    col_params, exec.capturing() ? &per_seed : nullptr);
                if (col_has_vars && spec.workload.has_value()) {
                  exec.workload_doc = &resolved_workload;
                }
                auto halves = unwrap_captures(std::move(per_seed));
                record_series(trajectories, std::move(halves.traj),
                              subst_views(col.header, eff));
                record_series(timeline_cells, std::move(halves.timeline),
                              subst_views(col.header, eff));
                record_cell(col, aggs);
                means[j] = aggs[0].stats.mean;
                cells.push_back(fmt(means[j], col.precision));
                break;
              }
              case spec_column::kind::ratio: {
                const double num =
                    means[static_cast<std::size_t>(col.ratio_num)];
                const double den =
                    means[static_cast<std::size_t>(col.ratio_den)];
                cells.push_back(fmt(den > 0 ? num / den : 0.0,
                                    col.precision));
                break;
              }
              case spec_column::kind::row_value:
                cells.push_back(row_labels.front());
                break;
            }
          }
        } else {
          util::json per_seed;
          const std::vector<seed_aggregate> aggs =
              exec.sweep(row_cfg, plan.selectors, row_params,
                         exec.capturing() ? &per_seed : nullptr);
          auto halves = unwrap_captures(std::move(per_seed));
          record_series(trajectories, std::move(halves.traj), std::string());
          record_series(timeline_cells, std::move(halves.timeline),
                        std::string());
          record_distributions(aggs);
          std::vector<double> entry_means(spec.probes.size(), 0.0);
          for (std::size_t k = 0; k < spec.probes.size(); ++k) {
            const spec_probe& p = spec.probes[k];
            if (p.ratio_num >= 0) {
              const int num_slot =
                  plan.entry_metric[static_cast<std::size_t>(p.ratio_num)];
              const int den_slot =
                  plan.entry_metric[static_cast<std::size_t>(p.ratio_den)];
              const double num =
                  aggs[static_cast<std::size_t>(num_slot)].stats.mean;
              const double den =
                  aggs[static_cast<std::size_t>(den_slot)].stats.mean;
              entry_means[k] = den > 0 ? num / den : 0.0;
            } else {
              const int slot = plan.entry_metric[k];
              entry_means[k] =
                  aggs[static_cast<std::size_t>(slot)].stats.mean;
            }
            cells.push_back(fmt(entry_means[k], p.precision));
          }
        }
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
    if (distributions_json.size() > 0) {
      report.add("distributions", std::move(distributions_json));
    }
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
