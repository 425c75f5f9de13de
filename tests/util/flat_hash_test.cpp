#include "util/flat_hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
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

}  // namespace
}  // namespace nylon::util
