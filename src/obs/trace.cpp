#include "obs/trace.h"

#include <fstream>
#include <iostream>

#if NYLON_OBS

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace nylon::obs {

namespace {

struct span_record {
  const char* name = nullptr;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
};

struct counter_record {
  const char* name = nullptr;
  std::uint64_t ts_us = 0;
  double value = 0.0;
};

/// One thread's private span ring. Owned by the global recorder for the
/// process lifetime so the thread-local fast-path pointer never dangles;
/// only the owning thread writes, export reads while recording is off
/// (or tolerates a benign in-flight update).
struct thread_ring {
  std::vector<span_record> buf;
  std::size_t head = 0;   ///< oldest element
  std::size_t count = 0;  ///< live elements
  std::size_t dropped = 0;
  std::uint32_t tid = 0;
  std::string name;
  /// Counter-track samples keep their own ring so a chatty health
  /// timeline can never evict span history (and vice versa).
  std::vector<counter_record> cbuf;
  std::size_t chead = 0;
  std::size_t ccount = 0;
  std::size_t cdropped = 0;

  void push(const span_record& rec, std::size_t capacity) noexcept {
    if (buf.size() < capacity) buf.resize(capacity);
    if (count == buf.size()) {  // full: overwrite the oldest
      buf[head] = rec;
      head = (head + 1) % buf.size();
      ++dropped;
    } else {
      buf[(head + count) % buf.size()] = rec;
      ++count;
    }
  }

  void push(const counter_record& rec, std::size_t capacity) noexcept {
    if (cbuf.size() < capacity) cbuf.resize(capacity);
    if (ccount == cbuf.size()) {
      cbuf[chead] = rec;
      chead = (chead + 1) % cbuf.size();
      ++cdropped;
    } else {
      cbuf[(chead + ccount) % cbuf.size()] = rec;
      ++ccount;
    }
  }
};

struct recorder {
  std::atomic<bool> enabled{false};
  std::chrono::steady_clock::time_point epoch{};
  std::size_t capacity = std::size_t{1} << 16;

  std::mutex mutex;  ///< guards rings / interned / next_auto_tid
  std::vector<std::unique_ptr<thread_ring>> rings;
  std::deque<std::string> interned;  ///< stable storage for dynamic names
  std::unordered_map<std::string_view, const char*> intern_index;
  std::uint32_t next_auto_tid = 1000;
};

recorder& rec() {
  static recorder* r = new recorder();  // never destroyed
  return *r;
}

thread_local thread_ring* tls_ring = nullptr;

thread_ring& local_ring() {
  thread_ring* ring = tls_ring;
  if (ring == nullptr) {
    recorder& r = rec();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.rings.push_back(std::make_unique<thread_ring>());
    ring = r.rings.back().get();
    ring->tid = r.next_auto_tid++;
    ring->name = "thread-" + std::to_string(ring->tid - 1000);
    tls_ring = ring;
  }
  return *ring;
}

}  // namespace

void start_trace(std::size_t ring_capacity) {
  recorder& r = rec();
  r.enabled.store(false, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.capacity = ring_capacity == 0 ? 1 : ring_capacity;
    for (const auto& ring : r.rings) {
      ring->head = ring->count = ring->dropped = 0;
      ring->chead = ring->ccount = ring->cdropped = 0;
      // Drop the old buffers so push() re-sizes to the *new* capacity
      // (a restart may shrink the rings).
      ring->buf.clear();
      ring->buf.shrink_to_fit();
      ring->cbuf.clear();
      ring->cbuf.shrink_to_fit();
    }
  }
  r.epoch = std::chrono::steady_clock::now();
  r.enabled.store(true, std::memory_order_release);
}

void stop_trace() noexcept {
  rec().enabled.store(false, std::memory_order_release);
}

bool trace_enabled() noexcept {
  return rec().enabled.load(std::memory_order_relaxed);
}

void set_thread_track(std::uint32_t tid, std::string name) {
  thread_ring& ring = local_ring();
  const std::lock_guard<std::mutex> lock(rec().mutex);
  ring.tid = tid;
  ring.name = std::move(name);
}

const char* intern_name(std::string_view name) {
  recorder& r = rec();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto hit = r.intern_index.find(name);
  if (hit != r.intern_index.end()) return hit->second;
  r.interned.emplace_back(name);
  const std::string& stored = r.interned.back();
  r.intern_index.emplace(std::string_view(stored), stored.c_str());
  return stored.c_str();
}

std::uint64_t trace_now_us() noexcept {
  return trace_us(std::chrono::steady_clock::now());
}

std::uint64_t trace_us(std::chrono::steady_clock::time_point tp) noexcept {
  recorder& r = rec();
  if (!r.enabled.load(std::memory_order_relaxed)) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(tp - r.epoch)
          .count());
}

void record_span(const char* name, std::uint64_t start_us,
                 std::uint64_t dur_us) noexcept {
  recorder& r = rec();
  if (!r.enabled.load(std::memory_order_relaxed)) return;
  local_ring().push(span_record{name, start_us, dur_us}, r.capacity);
}

void record_counter(const char* name, std::uint64_t ts_us,
                    double value) noexcept {
  recorder& r = rec();
  if (!r.enabled.load(std::memory_order_relaxed)) return;
  local_ring().push(counter_record{name, ts_us, value}, r.capacity);
}

util::json trace_to_json() {
  recorder& r = rec();
  const std::lock_guard<std::mutex> lock(r.mutex);
  util::json events = util::json::array();
  for (const auto& ring : r.rings) {
    if (ring->count == 0 && ring->ccount == 0) continue;
    // Track metadata first, so viewers label the lane.
    util::json& meta = events.push_back(util::json::object());
    meta["ph"] = "M";
    meta["pid"] = 1;
    meta["tid"] = static_cast<std::int64_t>(ring->tid);
    meta["name"] = "thread_name";
    meta["args"]["name"] = ring->name;
    for (std::size_t i = 0; i < ring->count; ++i) {
      const span_record& s = ring->buf[(ring->head + i) % ring->buf.size()];
      util::json& ev = events.push_back(util::json::object());
      ev["ph"] = "X";
      ev["pid"] = 1;
      ev["tid"] = static_cast<std::int64_t>(ring->tid);
      ev["ts"] = s.start_us;
      ev["dur"] = s.dur_us;
      ev["name"] = s.name;
    }
    // Counter tracks: Perfetto groups "ph":"C" events into one counter
    // lane per (pid, name), rendered beside the span lanes.
    for (std::size_t i = 0; i < ring->ccount; ++i) {
      const counter_record& c =
          ring->cbuf[(ring->chead + i) % ring->cbuf.size()];
      util::json& ev = events.push_back(util::json::object());
      ev["ph"] = "C";
      ev["pid"] = 1;
      ev["tid"] = static_cast<std::int64_t>(ring->tid);
      ev["ts"] = c.ts_us;
      ev["name"] = c.name;
      ev["args"]["value"] = c.value;
    }
  }
  util::json doc = util::json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

trace_stats trace_statistics() noexcept {
  recorder& r = rec();
  const std::lock_guard<std::mutex> lock(r.mutex);
  trace_stats stats;
  for (const auto& ring : r.rings) {
    if (ring->count == 0 && ring->dropped == 0 && ring->ccount == 0 &&
        ring->cdropped == 0) {
      continue;
    }
    ++stats.threads;
    stats.recorded += ring->count;
    stats.dropped += ring->dropped;
    stats.counters_recorded += ring->ccount;
    stats.counters_dropped += ring->cdropped;
  }
  return stats;
}

}  // namespace nylon::obs

#else  // NYLON_OBS == 0: recording compiled out, export stays valid

namespace nylon::obs {

void start_trace(std::size_t) {}
void stop_trace() noexcept {}
bool trace_enabled() noexcept { return false; }
void set_thread_track(std::uint32_t, std::string) {}
const char* intern_name(std::string_view) { return ""; }
std::uint64_t trace_now_us() noexcept { return 0; }
std::uint64_t trace_us(std::chrono::steady_clock::time_point) noexcept {
  return 0;
}
void record_span(const char*, std::uint64_t, std::uint64_t) noexcept {}
void record_counter(const char*, std::uint64_t, double) noexcept {}

util::json trace_to_json() {
  util::json doc = util::json::object();
  doc["traceEvents"] = util::json::array();
  doc["displayTimeUnit"] = "ms";
  return doc;
}

trace_stats trace_statistics() noexcept { return trace_stats{}; }

}  // namespace nylon::obs

#endif  // NYLON_OBS

namespace nylon::obs {

bool write_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open trace file " << path << "\n";
    return false;
  }
  trace_to_json().dump(out, 0);
  out << "\n";
  if (!out) {
    std::cerr << "failed writing trace file " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace nylon::obs
