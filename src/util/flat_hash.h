// Open-addressed hash map with linear probing and backward-shift deletion,
// for the simulator's hot lookup tables (routing tables, NAT filter rules
// and sessions, rebound-IP routing). Compared to
// `std::unordered_map` it stores key/value pairs contiguously (no
// per-node allocation) and erases without tombstones, so long churn runs
// never degrade.
//
// Layout: slots hold only a key and its value. Each slot has one control
// byte: 0 = empty, otherwise 0x80 | a 7-bit tag taken from the hash bits
// the slot index does not use. One allocation holds the control bytes,
// then the slots, so a table is still a single block and the map object
// four words. A probe reads control bytes a 64-bit word at a time and a
// slot's key only where a tag matches (a 1-in-128 chance for another
// key), so a miss — most routing and NAT lookups are misses — costs one
// word load for a chain of up to eight slots. That is what lets tables
// fill to ¾ before they double: a 20-byte routing entry takes a 24-byte
// slot plus its control byte, 33 to 67 bytes per stored route between
// doublings.
//
// Determinism note: iteration order depends on hash layout and is NOT
// insertion order. Callers must only iterate for order-independent work
// (counting, expiry sweeps) — see DESIGN.md, "Determinism contract".
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

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
/// `K` and `V` must be cheap to move; `K` needs `==`. Move-only.
template <typename K, typename V, typename Hash = mix_hash>
class flat_hash_map {
 public:
  flat_hash_map() = default;
  flat_hash_map(flat_hash_map&& other) noexcept
      : ctrl_(std::exchange(other.ctrl_, nullptr)),
        slots_(std::exchange(other.slots_, nullptr)),
        mask_(std::exchange(other.mask_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  flat_hash_map& operator=(flat_hash_map&& other) noexcept {
    if (this != &other) {
      release();
      ctrl_ = std::exchange(other.ctrl_, nullptr);
      slots_ = std::exchange(other.slots_, nullptr);
      mask_ = std::exchange(other.mask_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~flat_hash_map() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Bytes the table holds allocated: its slots and control bytes.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return ctrl_ == nullptr ? 0 : allocation_bytes(capacity());
  }

  void clear() noexcept {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (ctrl_[i] != empty_ctrl) vacate(i);
    }
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
    if (ctrl_ == nullptr) return nullptr;
    const probe p = locate(key);
    // In NYLON_OBS=0 builds obs::count is an empty inline and the probe
    // count folds away.
    obs::count(obs::counter::hash_probes, p.probes);
    return p.found ? &slots_[p.index].value : nullptr;
  }
  [[nodiscard]] const V* find(const K& key) const noexcept {
    return const_cast<flat_hash_map*>(this)->find(key);
  }

  /// Inserts `key` with a default value when absent; returns the mapped
  /// value either way (like `operator[]`).
  V& insert_or_get(const K& key) {
    if (ctrl_ == nullptr || over_load(size_ + 1, capacity())) {
      grow(size_ + 1);
    }
    const probe p = locate(key);
    obs::count(obs::counter::hash_probes, p.probes);
    slot& s = slots_[p.index];
    if (!p.found) {
      set_ctrl(p.index, tag_of(hash_of(key)));
      s.key = key;
      s.value = V{};
      ++size_;
    }
    return s.value;
  }

  /// Removes `key`; returns true when it was present. Backward-shift
  /// deletion keeps probe chains intact without tombstones.
  bool erase(const K& key) noexcept {
    if (ctrl_ == nullptr) return false;
    const probe p = locate(key);
    if (!p.found) return false;
    shift_out(p.index);
    --size_;
    return true;
  }

  /// Calls `fn(key, value)` for every element, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (ctrl_[i] != empty_ctrl) fn(slots_[i].key, slots_[i].value);
    }
  }

  /// Mutable variant: `fn(key, value&)` may update values in place (it
  /// must not change keys).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (ctrl_[i] != empty_ctrl) {
        fn(std::as_const(slots_[i].key), slots_[i].value);
      }
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
    for (std::size_t i = 0; i < capacity();) {
      if (ctrl_[i] != empty_ctrl &&
          pred(std::as_const(slots_[i].key), slots_[i].value)) {
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
  /// Control bytes one probe step reads at once (one 64-bit word).
  static constexpr std::size_t window = 8;
  static constexpr std::uint8_t empty_ctrl = 0;
  static constexpr std::uint64_t low_bits = 0x0101010101010101ULL;
  static constexpr std::uint64_t high_bits = 0x8080808080808080ULL;

  /// Only the key and its value: whether a slot is in use lives in its
  /// control byte, so no flag pads the slot.
  struct slot {
    V value{};
    K key{};
  };
  static_assert(alignof(slot) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  [[nodiscard]] static std::size_t hash_of(const K& key) noexcept {
    return Hash{}(static_cast<std::uint64_t>(key));
  }
  /// The top 7 hash bits with the high bit set (never `empty_ctrl`). The
  /// index uses the low bits, so a tag match is independent evidence.
  [[nodiscard]] static std::uint8_t tag_of(std::size_t h) noexcept {
    return static_cast<std::uint8_t>(0x80 | (h >> (8 * sizeof(h) - 7)));
  }
  /// The lane of the lowest flagged byte in a word-wide byte mask.
  [[nodiscard]] static std::size_t lane_of(std::uint64_t bits) noexcept {
    return static_cast<std::size_t>(std::countr_zero(bits)) / 8;
  }

  /// Where `key` is (`found`), or the empty slot that ends its probe
  /// chain, where an insert puts it. `probes` counts the control bytes
  /// the chain spans, up to and including the one that ends it.
  struct probe {
    std::size_t index;
    bool found;
    std::uint64_t probes;
  };
  /// Reads the chain's control bytes eight at a time: one word load
  /// finds the first empty byte and every tag match before it, so only a
  /// tag match reads a slot, and a chain of up to eight bytes costs one
  /// load and no per-byte branch. Precondition: the table is allocated.
  [[nodiscard]] probe locate(const K& key) const noexcept {
    static_assert(std::endian::native == std::endian::little,
                  "control-byte lanes assume little-endian word loads");
    const std::size_t h = hash_of(key);
    std::size_t i = h & mask_;
    // Most hits sit in their home slot: settle those without the word.
    if (ctrl_[i] == tag_of(h) && slots_[i].key == key) return {i, true, 1};
    const std::uint64_t tags = low_bits * tag_of(h);
    for (std::uint64_t probes = 0;; probes += window) {
      std::uint64_t word = 0;
      std::memcpy(&word, ctrl_ + i, sizeof word);
      // Used control bytes have their high bit set; empty ones are 0.
      const std::uint64_t empty = ~word & high_bits;
      // Lanes after the first empty one are not in the chain.
      const std::uint64_t chain =
          empty != 0 ? empty ^ (empty - 1) : ~std::uint64_t{0};
      // The high bit of every zero byte of `diff` (a tag match), plus
      // rare false positives that the key compare rejects.
      const std::uint64_t diff = word ^ tags;
      for (std::uint64_t match = (diff - low_bits) & ~diff & high_bits & chain;
           match != 0; match &= match - 1) {
        const std::size_t lane = lane_of(match);
        const std::size_t at = (i + lane) & mask_;
        if (slots_[at].key == key) return {at, true, probes + lane + 1};
      }
      if (empty != 0) {
        const std::size_t lane = lane_of(empty);
        return {(i + lane) & mask_, false, probes + lane + 1};
      }
      i = (i + window) & mask_;
    }
  }

  /// Load above ¾ (counting `count` elements in `capacity` slots)?
  [[nodiscard]] static bool over_load(std::size_t count,
                                      std::size_t capacity) noexcept {
    return count * 4 > capacity * 3;
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return ctrl_ == nullptr ? 0 : mask_ + 1;
  }
  [[nodiscard]] std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & mask_;
  }

  /// One allocation holds `capacity` control bytes, a copy of the first
  /// `window` of them (so a word load from any index reads the chain's
  /// next eight bytes without wrapping), then the slots.
  [[nodiscard]] static std::size_t slots_offset(std::size_t capacity) noexcept {
    constexpr std::size_t align = alignof(slot);
    return (capacity + window + align - 1) / align * align;
  }
  [[nodiscard]] static std::size_t allocation_bytes(
      std::size_t capacity) noexcept {
    return slots_offset(capacity) + capacity * sizeof(slot);
  }

  /// Writes control byte `i` and, for the first `window` indices, its
  /// copy past the end (the same byte twice for every other index).
  void set_ctrl(std::size_t i, std::uint8_t c) noexcept {
    ctrl_[i] = c;
    ctrl_[((i - window) & mask_) + window] = c;
  }

  /// Grows to the smallest power-of-two capacity (at least `window`)
  /// that holds `count` elements at load ≤ ¾, re-inserting every element
  /// (values move; leases they own move with them). ¾ rather than ½
  /// because of the tag bytes: a miss reads control bytes a word at a
  /// time and a slot only on a tag match, so the longer chains of a
  /// fuller table cost little.
  void grow(std::size_t count) {
    std::size_t capacity = window;
    while (over_load(count, capacity)) capacity *= 2;
    if (capacity <= this->capacity()) return;  // already large enough
    if (size_ > 0) obs::count(obs::counter::hash_rehashes);
    auto* raw = static_cast<std::byte*>(
        ::operator new(allocation_bytes(capacity)));
    std::memset(raw, empty_ctrl, slots_offset(capacity));
    auto* fresh = reinterpret_cast<slot*>(raw + slots_offset(capacity));
    std::uninitialized_value_construct_n(fresh, capacity);
    const std::size_t old_capacity = this->capacity();
    std::uint8_t* const old_ctrl =
        std::exchange(ctrl_, reinterpret_cast<std::uint8_t*>(raw));
    slot* const old_slots = std::exchange(slots_, std::launder(fresh));
    mask_ = capacity - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old_ctrl[i] != empty_ctrl) {
        insert_or_get(old_slots[i].key) = std::move(old_slots[i].value);
      }
    }
    if (old_ctrl != nullptr) {
      std::destroy_n(old_slots, old_capacity);
      ::operator delete(old_ctrl);
    }
  }

  /// Destroys the slots and frees the allocation.
  void release() noexcept {
    if (ctrl_ == nullptr) return;
    std::destroy_n(slots_, capacity());
    ::operator delete(ctrl_);
    ctrl_ = nullptr;
  }

  /// Removes the element at `hole`, back-shifting the probe chain that
  /// follows it so every remaining element stays reachable.
  void shift_out(std::size_t hole) noexcept {
    std::size_t i = hole;          // current hole
    std::size_t j = hole;          // scan cursor
    for (;;) {
      j = next(j);
      if (ctrl_[j] == empty_ctrl) break;
      slot& candidate = slots_[j];
      // candidate may fill the hole only when its home slot does not lie
      // cyclically within (i, j] — otherwise moving it would break the
      // probe chain between its home and j.
      const std::size_t home = hash_of(candidate.key) & mask_;
      const bool movable = (j > i) ? (home <= i || home > j)
                                   : (home <= i && home > j);
      if (movable) {
        set_ctrl(i, ctrl_[j]);
        slots_[i].key = std::move(candidate.key);
        slots_[i].value = std::move(candidate.value);
        i = j;
      }
    }
    vacate(i);
  }

  /// Marks slot `i` empty and drops what its value holds, so a value that
  /// owns something (a payload lease) is released with its entry rather
  /// than when the slot is next reused.
  void vacate(std::size_t i) noexcept {
    set_ctrl(i, empty_ctrl);
    if constexpr (!std::is_trivially_destructible_v<V>) slots_[i].value = V{};
  }

  std::uint8_t* ctrl_ = nullptr;  ///< start of the allocation
  slot* slots_ = nullptr;         ///< inside the same allocation
  std::size_t mask_ = 0;          ///< capacity - 1 while allocated
  std::size_t size_ = 0;
};

}  // namespace nylon::util
