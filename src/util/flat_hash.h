// Open-addressed hash map with linear probing and backward-shift deletion,
// for the simulator's hot lookup tables (NAT filter rules and sessions,
// public-port ownership, rebound-IP routing). Compared to
// `std::unordered_map` it stores key/value pairs contiguously (one cache
// line per probe, no per-node allocation) and erases without tombstones,
// so long churn runs never degrade.
//
// Determinism note: iteration order depends on hash layout and is NOT
// insertion order. Callers must only iterate for order-independent work
// (counting, expiry sweeps) — see DESIGN.md, "Determinism contract".
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "util/contracts.h"

namespace nylon::util {

/// Multiplicative mixer: spreads consecutive integer keys (ports, packed
/// endpoints, timestamps) across the whole table. One multiply and an
/// xor-fold of the high bits — identity hashes + linear probing would
/// cluster badly, while a full murmur finalizer costs measurably more on
/// the event queue's per-push lookup.
struct mix_hash {
  [[nodiscard]] std::size_t operator()(std::uint64_t key) const noexcept {
    const std::uint64_t h = key * 0xff51afd7ed558ccdULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// Open-addressed map from an integral-like key to a small value.
/// `K` and `V` must be cheap to move; `K` needs `==`.
template <typename K, typename V, typename Hash = mix_hash>
class flat_hash_map {
 public:
  flat_hash_map() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void clear() noexcept {
    for (slot& s : slots_) vacate(s);
    size_ = 0;
  }

  /// Pre-sizes the table for `count` elements. Optional: tables grow on
  /// demand, and capacity never changes what a lookup answers.
  void reserve(std::size_t count) {
    if (count > 0) grow(count);
  }

  /// Pointer to the mapped value, or nullptr when absent. Stable until
  /// the next insert/erase.
  [[nodiscard]] V* find(const K& key) noexcept {
    if (slots_.empty()) return nullptr;
    // `probes` feeds the telemetry counter below; in NYLON_OBS=0 builds
    // obs::count is an empty inline and the increment folds away.
    std::uint64_t probes = 0;
    for (std::size_t i = index_of(key);; i = next(i)) {
      slot& s = slots_[i];
      ++probes;
      if (!s.used) {
        obs::count(obs::counter::hash_probes, probes);
        return nullptr;
      }
      if (s.key == key) {
        obs::count(obs::counter::hash_probes, probes);
        return &s.value;
      }
    }
  }
  [[nodiscard]] const V* find(const K& key) const noexcept {
    return const_cast<flat_hash_map*>(this)->find(key);
  }

  /// Inserts `key` with a default value when absent; returns the mapped
  /// value either way (like `operator[]`).
  V& insert_or_get(const K& key) {
    if (slots_.size() < 8 || (size_ + 1) * 2 > slots_.size()) {
      grow(size_ + 1);
    }
    std::uint64_t probes = 0;
    for (std::size_t i = index_of(key);; i = next(i)) {
      slot& s = slots_[i];
      ++probes;
      if (!s.used) {
        s.used = true;
        s.key = key;
        s.value = V{};
        ++size_;
        obs::count(obs::counter::hash_probes, probes);
        return s.value;
      }
      if (s.key == key) {
        obs::count(obs::counter::hash_probes, probes);
        return s.value;
      }
    }
  }

  /// Removes `key`; returns true when it was present. Backward-shift
  /// deletion keeps probe chains intact without tombstones.
  bool erase(const K& key) noexcept {
    if (slots_.empty()) return false;
    std::size_t i = index_of(key);
    for (;; i = next(i)) {
      if (!slots_[i].used) return false;
      if (slots_[i].key == key) break;
    }
    shift_out(i);
    --size_;
    return true;
  }

  /// Calls `fn(key, value)` for every element, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const slot& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }

  /// Mutable variant: `fn(key, value&)` may update values in place (it
  /// must not change keys).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (slot& s : slots_) {
      if (s.used) fn(std::as_const(s.key), s.value);
    }
  }

  /// Erases every element for which `pred(key, value)` is true; returns
  /// how many were removed. Order of evaluation is unspecified.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    std::size_t removed = 0;
    // After a backward shift the same index holds a new (shifted-in)
    // element, so only advance when nothing moved. Probe chains never
    // wrap more than the table (there is always at least one empty slot).
    for (std::size_t i = 0; i < slots_.size();) {
      slot& s = slots_[i];
      if (s.used && pred(std::as_const(s.key), s.value)) {
        shift_out(i);
        --size_;
        ++removed;
      } else {
        ++i;
      }
    }
    return removed;
  }

 private:
  /// Value-first member order: with an 8-byte-aligned V and a 4-byte key
  /// this packs to 24 bytes instead of 32 (key would otherwise be padded
  /// to V's alignment), which is one slot more per cache line on the
  /// probe path.
  struct slot {
    V value{};
    K key{};
    bool used = false;
  };

  [[nodiscard]] std::size_t index_of(const K& key) const noexcept {
    return Hash{}(static_cast<std::uint64_t>(key)) & (slots_.size() - 1);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & (slots_.size() - 1);
  }

  /// Grows so that load factor stays below 0.5 (power-of-two capacity).
  /// The generous headroom is deliberate: most lookups on the hot paths
  /// (routing tables, NAT rules) are *misses*, whose probe chains degrade
  /// much faster with load than hits do.
  void grow(std::size_t count) {
    std::size_t capacity = 8;
    while (count * 2 > capacity) capacity *= 2;
    if (capacity <= slots_.size()) return;  // already large enough
    if (size_ > 0) obs::count(obs::counter::hash_rehashes);
    std::vector<slot> old = std::move(slots_);
    slots_.assign(capacity, slot{});
    size_ = 0;
    for (slot& s : old) {
      if (s.used) insert_or_get(s.key) = std::move(s.value);
    }
  }

  /// Removes the element at `hole`, back-shifting the probe chain that
  /// follows it so every remaining element stays reachable.
  void shift_out(std::size_t hole) noexcept {
    std::size_t i = hole;          // current hole
    std::size_t j = hole;          // scan cursor
    for (;;) {
      j = next(j);
      slot& candidate = slots_[j];
      if (!candidate.used) break;
      // candidate may fill the hole only when its home slot does not lie
      // cyclically within (i, j] — otherwise moving it would break the
      // probe chain between its home and j.
      const std::size_t home = index_of(candidate.key);
      const bool movable = (j > i) ? (home <= i || home > j)
                                   : (home <= i && home > j);
      if (movable) {
        slots_[i].key = std::move(candidate.key);
        slots_[i].value = std::move(candidate.value);
        i = j;
      }
    }
    vacate(slots_[i]);
  }

  /// Marks `s` empty and drops what its value holds, so a value that owns
  /// something (a payload lease) is released with its entry rather than
  /// when the slot is next reused.
  static void vacate(slot& s) noexcept {
    s.used = false;
    if constexpr (!std::is_trivially_destructible_v<V>) s.value = V{};
  }

  std::vector<slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace nylon::util
