#include "sim/shard_channel.h"

#include <algorithm>

namespace nylon::sim {

void shard_channel::drain_into(std::vector<channel_event>& out) {
  out.reserve(out.size() + events_.size());
  for (channel_event& ev : events_) out.push_back(std::move(ev));
  events_.clear();
}

void canonical_merge_segments(std::vector<channel_event>& events,
                              std::vector<std::size_t>& bounds) {
  NYLON_EXPECTS(!bounds.empty() && bounds.front() == 0 &&
                bounds.back() == events.size());
  const auto less = [](const channel_event& a,
                       const channel_event& b) noexcept {
    return canonical_less(a, b);
  };
  const auto begin = events.begin();
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    std::sort(begin + static_cast<std::ptrdiff_t>(bounds[i]),
              begin + static_cast<std::ptrdiff_t>(bounds[i + 1]), less);
  }
  // Pairwise merge rounds: segment starts [0, b2, b4, ...] after each
  // round, log2(k) rounds total. `bounds` doubles as the round's
  // boundary list — no allocation at barrier rates.
  std::vector<std::size_t>& starts = bounds;
  while (starts.size() > 2) {
    std::size_t write = 1;
    for (std::size_t i = 0; i + 2 < starts.size(); i += 2) {
      std::inplace_merge(begin + static_cast<std::ptrdiff_t>(starts[i]),
                         begin + static_cast<std::ptrdiff_t>(starts[i + 1]),
                         begin + static_cast<std::ptrdiff_t>(starts[i + 2]),
                         less);
      starts[write++] = starts[i + 2];
    }
    // An odd trailing segment carries over to the next round untouched.
    if (starts.size() % 2 == 0) starts[write++] = starts.back();
    starts.resize(write);
    starts[0] = 0;
  }
}

}  // namespace nylon::sim
