#include "util/flat_hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "net/payload_arena.h"
#include "util/rng.h"

namespace nylon::util {
namespace {

TEST(flat_hash, empty_initially) {
  flat_hash_map<std::uint32_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_FALSE(m.erase(7));
}

TEST(flat_hash, insert_find_erase) {
  flat_hash_map<std::uint32_t, int> m;
  m.insert_or_get(1) = 10;
  m.insert_or_get(2) = 20;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 10);
  EXPECT_EQ(*m.find(2), 20);
  EXPECT_EQ(m.find(3), nullptr);
  EXPECT_TRUE(m.erase(1));
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(*m.find(2), 20);
  EXPECT_EQ(m.size(), 1u);
}

TEST(flat_hash, insert_or_get_returns_existing) {
  flat_hash_map<std::uint64_t, int> m;
  m.insert_or_get(42) = 5;
  EXPECT_EQ(m.insert_or_get(42), 5);
  EXPECT_EQ(m.size(), 1u);
}

TEST(flat_hash, reserve_avoids_rehash_invalidation_count) {
  flat_hash_map<std::uint32_t, int> m;
  m.reserve(100);
  for (std::uint32_t i = 0; i < 100; ++i) m.insert_or_get(i) = int(i);
  EXPECT_EQ(m.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    ASSERT_NE(m.find(i), nullptr);
    EXPECT_EQ(*m.find(i), int(i));
  }
}

TEST(flat_hash, for_each_and_mutable_for_each) {
  flat_hash_map<std::uint32_t, int> m;
  for (std::uint32_t i = 0; i < 10; ++i) m.insert_or_get(i) = 1;
  int sum = 0;
  std::as_const(m).for_each([&](std::uint32_t, int v) { sum += v; });
  EXPECT_EQ(sum, 10);
  m.for_each([](std::uint32_t, int& v) { v = 2; });
  sum = 0;
  std::as_const(m).for_each([&](std::uint32_t, int v) { sum += v; });
  EXPECT_EQ(sum, 20);
}

TEST(flat_hash, erase_if_removes_matching) {
  flat_hash_map<std::uint32_t, int> m;
  for (std::uint32_t i = 0; i < 64; ++i) m.insert_or_get(i) = int(i);
  const std::size_t removed =
      m.erase_if([](std::uint32_t, int v) { return v % 2 == 0; });
  EXPECT_EQ(removed, 32u);
  EXPECT_EQ(m.size(), 32u);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(m.find(i) != nullptr, i % 2 == 1) << i;
  }
}

/// Randomized differential test against std::map: inserts, erases
/// (including backshift-heavy patterns) and erase_if sweeps must agree.
TEST(flat_hash, matches_reference_model_under_random_ops) {
  rng r(2024);
  flat_hash_map<std::uint64_t, std::uint64_t> m;
  std::map<std::uint64_t, std::uint64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    // Small key space forces collisions, reuse and long probe chains.
    const std::uint64_t key = r.uniform(0, 199);
    switch (r.uniform(0, 3)) {
      case 0:
      case 1: {
        const std::uint64_t value = r.uniform(0, 1'000'000);
        m.insert_or_get(key) = value;
        ref[key] = value;
        break;
      }
      case 2: {
        EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
        break;
      }
      case 3: {
        const std::uint64_t* found = m.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
    }
    if (op % 1000 == 999) {  // periodic sweep, like expiry purges
      const std::uint64_t cut = r.uniform(0, 1'000'000);
      m.erase_if([&](std::uint64_t, std::uint64_t v) { return v < cut; });
      std::erase_if(ref, [&](const auto& kv) { return kv.second < cut; });
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.find(k), nullptr);
    EXPECT_EQ(*m.find(k), v);
  }
}

/// Values that own payload leases (the peers' pending-request maps) keep
/// every refcount exact while the table grows, back-shifts on erase and
/// sweeps: an erased entry releases its lease at once, not when its slot
/// is next reused.
TEST(flat_hash, lease_values_keep_refcounts_exact_across_growth_and_erase) {
  using lease = net::arena_ref<const std::uint64_t>;
  struct pending {
    lease sent;
    std::uint64_t payload = 0;
  };
  using table = flat_hash_map<std::uint32_t, pending>;
  constexpr std::uint64_t payloads = 64;
  std::vector<lease> owners;
  for (std::uint64_t i = 0; i < payloads; ++i) {
    owners.push_back(net::make_payload<std::uint64_t>(i));
  }
  std::map<std::uint32_t, std::uint64_t> ref;  // key -> payload index
  const auto refs_of = [&](std::uint64_t i) {
    return net::arena_detail::header_of(owners[i].get())->refs;
  };
  const auto expect_exact = [&](const table& m) {
    ASSERT_EQ(m.size(), ref.size());
    std::vector<std::uint32_t> held(payloads, 1);  // the owners' own refs
    for (const auto& [key, i] : ref) {
      ++held[i];
      const pending* found = m.find(key);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(found->payload, i);
      EXPECT_EQ(found->sent.get(), owners[i].get());
    }
    for (std::uint64_t i = 0; i < payloads; ++i) {
      ASSERT_EQ(refs_of(i), held[i]) << "payload " << i;
    }
  };
  rng r(14);
  const auto insert_some = [&](table& m, int count) {
    for (int n = 0; n < count; ++n) {
      const auto key = static_cast<std::uint32_t>(r.uniform(0, 999));
      const std::uint64_t i = r.uniform(0, payloads - 1);
      m.insert_or_get(key) = pending{owners[i], i};
      ref[key] = i;
    }
  };
  for (int round = 0; round < 4; ++round) {
    {
      // A fresh table each round, so growth (8 -> 512 slots) repeats.
      table m;
      insert_some(m, 200);
      expect_exact(m);
      // Erase most keys one at a time: backward shifts move leases.
      for (std::uint32_t key = 0; key < 1000; ++key) {
        if (r.bernoulli(0.7)) {
          EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
        }
      }
      expect_exact(m);
      // Grow again (to 1024 slots) with the survivors' leases moved.
      insert_some(m, 400);
      expect_exact(m);
      // Sweep by payload, like the pending maps' age-based prune.
      const std::uint64_t cut = r.uniform(0, payloads - 1);
      m.erase_if([&](std::uint32_t, const pending& p) {
        return p.payload < cut;
      });
      std::erase_if(ref, [&](const auto& kv) { return kv.second < cut; });
      expect_exact(m);
      m.clear();
      ref.clear();
      expect_exact(m);
      insert_some(m, 200);
      expect_exact(m);
    }
    ref.clear();  // the table's destructor released the rest
    for (std::uint64_t i = 0; i < payloads; ++i) ASSERT_EQ(refs_of(i), 1u);
  }
}

/// Every key hashes to one home slot and one control tag, so each lookup
/// walks the whole cluster comparing keys behind equal tags, and every
/// erase back-shifts the rest of the cluster.
struct one_slot_hash {
  [[nodiscard]] std::size_t operator()(std::uint64_t) const noexcept {
    return 0x9e3779b97f4a7c15ULL;
  }
};

/// Randomized differential test against std::unordered_map over
/// insert_or_get, erase, erase_if, find and for_each, with values that
/// own payload leases: the arena's live bytes must equal one block per
/// stored value at every checkpoint (no lease leaked by a vacated slot,
/// none dropped by a move). The key space widens as the run goes, so the
/// table grows through several ¾-load thresholds while it churns.
template <typename Hash>
void run_differential(std::uint64_t seed, int ops, std::uint64_t first_keys,
                      std::uint64_t last_keys) {
  using lease = net::arena_ref<const std::uint64_t>;
  struct value {
    lease payload;
    std::uint64_t n = 0;
  };
  const auto& arena = net::arena_detail::local_freelists();
  const std::size_t live_before = arena.live_bytes;
  std::size_t block_bytes = 0;
  {
    const lease probe = net::make_payload<std::uint64_t>(0);
    block_bytes = arena.live_bytes - live_before;
  }
  ASSERT_GT(block_bytes, 0u);

  rng r(seed);
  std::unordered_map<std::uint32_t, std::uint64_t> ref;
  {
    flat_hash_map<std::uint32_t, value, Hash> m;
    std::size_t growths = 0;
    std::size_t bytes = m.bytes();
    const auto check_all = [&](int op) {
      ASSERT_EQ(m.size(), ref.size()) << op;
      ASSERT_EQ(arena.live_bytes - live_before, ref.size() * block_bytes)
          << op;
      std::size_t seen = 0;
      m.for_each([&](std::uint32_t key, const value& v) {
        ++seen;
        const auto it = ref.find(key);
        ASSERT_NE(it, ref.end()) << op << " key " << key;
        EXPECT_EQ(v.n, it->second);
        EXPECT_EQ(*v.payload, it->second);
      });
      ASSERT_EQ(seen, ref.size()) << op;
    };
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t span =
          first_keys + (last_keys - first_keys) * static_cast<std::uint64_t>(
                                                      op) /
                           static_cast<std::uint64_t>(ops);
      const auto key = static_cast<std::uint32_t>(r.uniform(0, span - 1));
      switch (r.uniform(0, 9)) {
        case 0:
        case 1:
        case 2:
        case 3: {
          const std::uint64_t n = r.uniform(0, 1'000'000);
          m.insert_or_get(key) = value{net::make_payload<std::uint64_t>(n), n};
          ref[key] = n;
          break;
        }
        case 4:
        case 5:
          ASSERT_EQ(m.erase(key), ref.erase(key) > 0) << op;
          break;
        case 6: {  // the present value, or a fresh default one
          value& v = m.insert_or_get(key);
          const auto it = ref.find(key);
          if (it != ref.end()) {
            EXPECT_EQ(v.n, it->second) << op;
          } else {
            EXPECT_EQ(v.payload.get(), nullptr) << op;
            EXPECT_EQ(v.n, 0u) << op;
            v = value{net::make_payload<std::uint64_t>(0), 0};
            ref[key] = 0;
          }
          break;
        }
        default: {
          const value* found = m.find(key);
          const auto it = ref.find(key);
          ASSERT_EQ(found != nullptr, it != ref.end()) << op;
          if (found != nullptr) {
            EXPECT_EQ(found->n, it->second);
            EXPECT_EQ(*found->payload, it->second);
          }
          break;
        }
      }
      if (op % 997 == 996) {  // periodic sweep, like expiry purges
        const std::uint64_t cut = r.uniform(0, 400'000);
        const std::size_t expected = std::erase_if(
            ref, [&](const auto& kv) { return kv.second < cut; });
        EXPECT_EQ(m.erase_if([&](std::uint32_t, const value& v) {
                    return v.n < cut;
                  }),
                  expected)
            << op;
      }
      ASSERT_EQ(m.size(), ref.size()) << op;
      if (m.bytes() != bytes) {
        ++growths;
        bytes = m.bytes();
      }
      if (op % 4'999 == 0) check_all(op);
    }
    check_all(ops);
    // A run that never crossed several growth thresholds proves little.
    EXPECT_GE(growths, 5u);
    m.clear();
    ref.clear();
    check_all(ops);
  }
  EXPECT_EQ(arena.live_bytes, live_before);
}

TEST(flat_hash, matches_unordered_map_through_growth_with_lease_values) {
  run_differential<mix_hash>(2026, 120'000, 64, 6'000);
}

TEST(flat_hash, matches_unordered_map_when_every_key_shares_slot_and_tag) {
  run_differential<one_slot_hash>(2027, 100'000, 8, 240);
}

/// The growth threshold is ¾ of the slots: six keys fit the first eight
/// slots, the seventh doubles the table, and so on. A route-sized value
/// (20 bytes) with a 4-byte key costs a 24-byte slot plus one control
/// byte; the table adds one word of control-byte copies.
TEST(flat_hash, grows_at_three_quarters_load_with_one_control_byte_a_slot) {
  struct route_sized {
    std::uint32_t words[5] = {};
  };
  flat_hash_map<std::uint32_t, route_sized> m;
  const auto bytes_at = [](std::size_t capacity) {
    return capacity * (24 + 1) + 8;
  };
  EXPECT_EQ(m.bytes(), 0u);
  for (std::uint32_t k = 0; k < 6; ++k) m.insert_or_get(k);
  EXPECT_EQ(m.bytes(), bytes_at(8));
  m.insert_or_get(6);
  EXPECT_EQ(m.bytes(), bytes_at(16));
  for (std::uint32_t k = 7; k < 12; ++k) m.insert_or_get(k);
  EXPECT_EQ(m.bytes(), bytes_at(16));
  m.insert_or_get(12);
  EXPECT_EQ(m.bytes(), bytes_at(32));
  m.reserve(48);
  EXPECT_EQ(m.bytes(), bytes_at(64));
  m.reserve(49);
  EXPECT_EQ(m.bytes(), bytes_at(128));
  for (std::uint32_t k = 0; k < 13; ++k) ASSERT_NE(m.find(k), nullptr) << k;
}

/// A moved-from table is empty and reusable, and the moved-to one keeps
/// every element.
TEST(flat_hash, move_transfers_the_table) {
  flat_hash_map<std::uint32_t, int> a;
  for (std::uint32_t k = 0; k < 100; ++k) a.insert_or_get(k) = int(k);
  flat_hash_map<std::uint32_t, int> b(std::move(a));
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.bytes(), 0u);
  EXPECT_EQ(a.find(5), nullptr);
  a.insert_or_get(7) = 70;
  b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(*b.find(7), 70);
  EXPECT_EQ(b.find(5), nullptr);
}

}  // namespace
}  // namespace nylon::util
