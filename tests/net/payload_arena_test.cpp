// Payload arena ownership: a block goes back onto the freelist of the
// thread that allocated it; one released on another thread (the main
// thread tearing down a sharded universe) returns to the system, so the
// releasing thread's freelist does not grow with every universe a
// process builds. A thread can also hand its whole freelist back.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <thread>

#include "net/payload_arena.h"

namespace nylon::net {
namespace {

using block = arena_ref<const std::uint64_t>;

std::size_t recycled_blocks() {
  std::size_t n = 0;
  for (const auto& bucket : arena_detail::local_freelists().buckets) {
    n += bucket.size();
  }
  return n;
}

TEST(payload_arena, own_blocks_recycle_onto_the_local_freelist) {
  block own = make_payload<std::uint64_t>(1);
  const std::size_t held = recycled_blocks();
  own = nullptr;
  EXPECT_EQ(recycled_blocks(), held + 1);
}

TEST(payload_arena, foreign_blocks_return_to_the_system) {
  const auto& lists = arena_detail::local_freelists();
  block foreign;
  std::thread([&foreign] {
    foreign = make_payload<std::uint64_t>(2);
  }).join();
  ASSERT_EQ(*foreign, 2u);
  const std::size_t held = recycled_blocks();
  const std::size_t live = lists.live_bytes;
  foreign = nullptr;
  EXPECT_EQ(recycled_blocks(), held);
  EXPECT_EQ(lists.live_bytes, live);
}

TEST(payload_arena, release_hands_recycled_blocks_back) {
  // A spec worker releases between universes, so one universe's recycled
  // blocks never stay pinned while the next one builds its world.
  block a = make_payload<std::uint64_t>(3);
  block b = make_payload<std::uint64_t>(4);
  a = nullptr;
  b = nullptr;
  ASSERT_GE(recycled_blocks(), 2u);
  const std::size_t live = arena_detail::local_freelists().live_bytes;
  release_thread_payloads();
  EXPECT_EQ(recycled_blocks(), 0u);
  EXPECT_EQ(arena_detail::local_freelists().live_bytes, live);
  // The arena keeps working afterwards.
  block c = make_payload<std::uint64_t>(5);
  EXPECT_EQ(*c, 5u);
}

}  // namespace
}  // namespace nylon::net
