#include "obs/timeline.h"

#include <utility>

#include "obs/trace.h"
#include "util/contracts.h"

namespace nylon::obs {

timeline_recorder::timeline_recorder(double period_s,
                                     std::vector<std::string> columns)
    : period_s_(period_s), columns_(std::move(columns)) {
  NYLON_EXPECTS(period_s_ > 0.0);
  NYLON_EXPECTS(!columns_.empty());
}

void timeline_recorder::append(double t_s, std::vector<double> values) {
  NYLON_EXPECTS(values.size() == columns_.size());
  rows_.push_back(row{t_s, std::move(values)});
}

util::json timeline_recorder::samples_json() const {
  util::json samples = util::json::array();
  for (const row& r : rows_) {
    util::json& sample = samples.push_back(util::json::array());
    sample.push_back(r.t_s);
    for (const double v : r.values) sample.push_back(v);
  }
  return samples;
}

std::vector<const char*> counter_track_names(
    const std::vector<std::string>& columns) {
  std::vector<const char*> tracks;
  if (!trace_enabled()) return tracks;
  tracks.reserve(columns.size());
  for (const std::string& c : columns) {
    tracks.push_back(intern_name("timeline/" + c));
  }
  return tracks;
}

void record_counter_samples(const std::vector<const char*>& tracks,
                            const std::vector<double>& values) {
  if (tracks.empty() || !trace_enabled()) return;
  const std::uint64_t ts = trace_now_us();
  const std::size_t n = tracks.size() < values.size() ? tracks.size()
                                                      : values.size();
  for (std::size_t i = 0; i < n; ++i) {
    record_counter(tracks[i], ts, values[i]);
  }
}

}  // namespace nylon::obs
