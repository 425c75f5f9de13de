#include "obs/msglog.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "sim/time.h"

namespace nylon::obs {

std::string_view to_string(hop_kind k) noexcept {
  switch (k) {
    case hop_kind::send: return "send";
    case hop_kind::nat_translate: return "nat_translate";
    case hop_kind::drop: return "drop";
    case hop_kind::deliver: return "deliver";
  }
  return "?";
}

}  // namespace nylon::obs

#if NYLON_OBS

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace nylon::obs {

namespace {

/// A hop plus its ring-local arrival ordinal, the tiebreak that keeps
/// same-millisecond hops (translate, send) in recording order.
struct stamped_hop {
  hop_record rec;
  std::uint64_t seq = 0;
};

struct msg_ring {
  std::vector<stamped_hop> buf;
  std::size_t head = 0;   ///< oldest element
  std::size_t count = 0;  ///< live elements
  std::size_t dropped = 0;
  std::uint64_t next_seq = 0;

  void push(const hop_record& rec, std::size_t capacity) noexcept {
    if (buf.size() < capacity) buf.resize(capacity);
    const stamped_hop stamped{rec, next_seq++};
    if (count == buf.size()) {  // full: overwrite the oldest
      buf[head] = stamped;
      head = (head + 1) % buf.size();
      ++dropped;
    } else {
      buf[(head + count) % buf.size()] = stamped;
      ++count;
    }
  }
};

struct msg_recorder {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> rate{1};
  std::size_t capacity = std::size_t{1} << 12;

  std::mutex mutex;  ///< guards rings
  std::vector<std::unique_ptr<msg_ring>> rings;
};

msg_recorder& mrec() {
  static msg_recorder* r = new msg_recorder();  // never destroyed
  return *r;
}

thread_local msg_ring* tls_msg_ring = nullptr;

msg_ring& local_msg_ring() {
  msg_ring* ring = tls_msg_ring;
  if (ring == nullptr) {
    msg_recorder& r = mrec();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.rings.push_back(std::make_unique<msg_ring>());
    ring = r.rings.back().get();
    tls_msg_ring = ring;
  }
  return *ring;
}

/// splitmix64 finalizer: every input bit avalanches into the output, so
/// `% rate` sampling is unbiased for any rate.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Sorts hops by (time, ring seq) — the lifecycle order within a
/// message.
void sort_by_time(std::vector<stamped_hop>& hops) {
  std::sort(hops.begin(), hops.end(),
            [](const stamped_hop& a, const stamped_hop& b) {
              if (a.rec.at != b.rec.at) return a.rec.at < b.rec.at;
              return a.seq < b.seq;
            });
}

/// All live hops across all rings, in time order.
[[nodiscard]] std::vector<stamped_hop> collect_hops() {
  msg_recorder& r = mrec();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<stamped_hop> hops;
  for (const auto& ring : r.rings) {
    for (std::size_t i = 0; i < ring->count; ++i) {
      hops.push_back(ring->buf[(ring->head + i) % ring->buf.size()]);
    }
  }
  sort_by_time(hops);
  return hops;
}

/// Hops grouped per tag, groups ordered by first-hop time (tag as a
/// deterministic tiebreak for cross-ring collisions).
[[nodiscard]] std::vector<std::vector<hop_record>> group_by_tag(
    const std::vector<stamped_hop>& hops) {
  std::map<std::uint64_t, std::size_t> index;  // tag -> group slot
  std::vector<std::vector<hop_record>> groups;
  for (const stamped_hop& h : hops) {
    const auto [it, fresh] = index.try_emplace(h.rec.tag, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(h.rec);
  }
  return groups;  // insertion order == first-hop time order
}

void format_tag(char (&buf)[24], std::uint64_t tag) {
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, tag);
}

/// One line per sampled message of `hops` (time-ordered) under a header
/// counting them plus the `overwritten` ones.
void write_dump(std::ostream& out, const std::vector<stamped_hop>& hops,
                std::size_t overwritten, std::size_t limit) {
  const std::vector<std::vector<hop_record>> groups = group_by_tag(hops);
  out << "# msglog: " << groups.size() << " sampled messages, "
      << hops.size() << " hops held, " << overwritten
      << " hops overwritten\n";
  std::size_t emitted = 0;
  for (const std::vector<hop_record>& group : groups) {
    if (limit != 0 && emitted++ >= limit) {
      out << "# msglog: ... " << (groups.size() - limit)
          << " more (--msglog-dump FILE writes the whole recording)\n";
      break;
    }
    char tag[24];
    format_tag(tag, group.front().tag);
    out << "# msg " << tag << ' ' << group.front().msg << ' '
        << group.front().from << "->" << group.front().to << ':';
    char cell[64];
    for (const hop_record& h : group) {
      std::snprintf(cell, sizeof(cell), " %s@%.3fs",
                    std::string(to_string(h.kind)).c_str(),
                    sim::to_seconds(h.at));
      out << cell;
      if (h.note != nullptr) out << '(' << h.note << ')';
    }
    out << '\n';
  }
}

}  // namespace

void msglog_start(std::uint64_t sample_one_in, std::size_t ring_capacity) {
  msg_recorder& r = mrec();
  r.enabled.store(false, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.capacity = ring_capacity == 0 ? 1 : ring_capacity;
    for (const auto& ring : r.rings) {
      ring->head = ring->count = ring->dropped = 0;
      ring->next_seq = 0;
      ring->buf.clear();
      ring->buf.shrink_to_fit();
    }
  }
  r.rate.store(sample_one_in == 0 ? 1 : sample_one_in,
               std::memory_order_release);
  r.enabled.store(true, std::memory_order_release);
}

void msglog_stop() noexcept {
  mrec().enabled.store(false, std::memory_order_release);
}

bool msglog_enabled() noexcept {
  return mrec().enabled.load(std::memory_order_relaxed);
}

std::uint64_t msglog_tag(std::uint64_t sender, std::uint64_t ordinal,
                         std::int64_t at) noexcept {
  msg_recorder& r = mrec();
  if (!r.enabled.load(std::memory_order_relaxed)) return 0;
  std::uint64_t x = mix(sender + 0x9E3779B97F4A7C15ULL);
  x = mix(x ^ ordinal);
  x = mix(x ^ static_cast<std::uint64_t>(at));
  const std::uint64_t rate = r.rate.load(std::memory_order_relaxed);
  if (rate > 1 && x % rate != 0) return 0;
  return x | 1;  // 0 is reserved for "unsampled"
}

void msglog_record(const hop_record& rec) noexcept {
  if (rec.tag == 0) return;
  msg_recorder& r = mrec();
  if (!r.enabled.load(std::memory_order_relaxed)) return;
  local_msg_ring().push(rec, r.capacity);
}

msglog_stats msglog_statistics() noexcept {
  msg_recorder& r = mrec();
  const std::lock_guard<std::mutex> lock(r.mutex);
  msglog_stats stats;
  for (const auto& ring : r.rings) {
    if (ring->count == 0 && ring->dropped == 0) continue;
    ++stats.threads;
    stats.recorded += ring->count;
    stats.dropped += ring->dropped;
  }
  return stats;
}

util::json msglog_to_json() {
  const std::vector<stamped_hop> hops = collect_hops();
  util::json doc = util::json::object();
  doc["sample_one_in"] = mrec().rate.load(std::memory_order_relaxed);
  doc["dropped"] = static_cast<std::uint64_t>(msglog_statistics().dropped);
  util::json messages = util::json::array();
  for (const std::vector<hop_record>& group : group_by_tag(hops)) {
    util::json& msg = messages.push_back(util::json::object());
    char tag[24];
    format_tag(tag, group.front().tag);
    msg["tag"] = std::string(tag);
    msg["from"] = group.front().from;
    msg["msg"] = std::string(group.front().msg);
    util::json& out_hops = msg["hops"] = util::json::array();
    for (const hop_record& h : group) {
      util::json& hop = out_hops.push_back(util::json::object());
      hop["t_s"] = sim::to_seconds(h.at);
      hop["hop"] = std::string(to_string(h.kind));
      hop["from"] = h.from;
      hop["to"] = h.to;
      if (h.note != nullptr) hop["note"] = std::string(h.note);
    }
  }
  doc["messages"] = std::move(messages);
  return doc;
}

void msglog_dump(std::ostream& out, std::size_t limit) {
  const std::vector<stamped_hop> hops = collect_hops();
  write_dump(out, hops, msglog_statistics().dropped, limit);
}

std::uint64_t msglog_mark() noexcept {
  const msg_ring* ring = tls_msg_ring;
  return ring == nullptr ? 0 : ring->next_seq;
}

void msglog_dump_since(std::ostream& out, std::uint64_t mark,
                       std::size_t limit) {
  std::vector<stamped_hop> hops;
  std::size_t recorded = 0;  // hops recorded since the mark, held or not
  if (const msg_ring* ring = tls_msg_ring) {
    const std::lock_guard<std::mutex> lock(mrec().mutex);
    for (std::size_t i = 0; i < ring->count; ++i) {
      const stamped_hop& h = ring->buf[(ring->head + i) % ring->buf.size()];
      if (h.seq >= mark) hops.push_back(h);
    }
    if (ring->next_seq > mark) {
      recorded = static_cast<std::size_t>(ring->next_seq - mark);
    }
  }
  sort_by_time(hops);
  write_dump(out, hops, recorded - hops.size(), limit);
}

}  // namespace nylon::obs

#else  // NYLON_OBS == 0: recording compiled out, export stays valid

namespace nylon::obs {

void msglog_start(std::uint64_t, std::size_t) {}
void msglog_stop() noexcept {}
bool msglog_enabled() noexcept { return false; }
std::uint64_t msglog_tag(std::uint64_t, std::uint64_t, std::int64_t) noexcept {
  return 0;
}
void msglog_record(const hop_record&) noexcept {}
msglog_stats msglog_statistics() noexcept { return msglog_stats{}; }

util::json msglog_to_json() {
  util::json doc = util::json::object();
  doc["sample_one_in"] = std::uint64_t{0};
  doc["dropped"] = std::uint64_t{0};
  doc["messages"] = util::json::array();
  return doc;
}

void msglog_dump(std::ostream& out, std::size_t) {
  out << "# msglog: telemetry compiled out (NYLON_OBS=0)\n";
}

std::uint64_t msglog_mark() noexcept { return 0; }

void msglog_dump_since(std::ostream& out, std::uint64_t, std::size_t limit) {
  msglog_dump(out, limit);
}

}  // namespace nylon::obs

#endif  // NYLON_OBS
