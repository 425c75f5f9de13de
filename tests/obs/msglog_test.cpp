// Message lifecycle flight recorder: deterministic tag sampling,
// per-message hop grouping in the JSON export, ring-overwrite drop
// accounting, and the human-readable dump naming drop reasons. Every
// entry point still links in NYLON_OBS=0 builds — there the recorder
// never enables, no message is tagged, and the export is a valid empty
// document.
#include "obs/msglog.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "util/json.h"

namespace nylon::obs {
namespace {

TEST(obs_msglog, disabled_by_default_and_tags_are_zero) {
  msglog_stop();
  EXPECT_FALSE(msglog_enabled());
  EXPECT_EQ(msglog_tag(7, 3, 1000), 0u);
  // Recording while off is a no-op, not a crash.
  msglog_record(hop_record{1, 0, 0, 0, hop_kind::send, "PING", nullptr});
}

TEST(obs_msglog, names_are_stable) {
  EXPECT_EQ(to_string(hop_kind::send), "send");
  EXPECT_EQ(to_string(hop_kind::nat_translate), "nat_translate");
  EXPECT_EQ(to_string(hop_kind::drop), "drop");
  EXPECT_EQ(to_string(hop_kind::deliver), "deliver");
}

TEST(obs_msglog, sampling_is_a_pure_function_of_send_facts) {
  msglog_start(/*sample_one_in=*/1);
  if (!msglog_enabled()) return;  // NYLON_OBS=0
  const std::uint64_t tag = msglog_tag(42, 17, 5000);
  EXPECT_NE(tag, 0u);
  EXPECT_EQ(tag & 1u, 1u);  // 0 is reserved for "unsampled"
  // Same facts, same tag — the property that lets serial and sharded
  // engines sample the identical message set.
  EXPECT_EQ(msglog_tag(42, 17, 5000), tag);
  EXPECT_NE(msglog_tag(42, 18, 5000), tag);
  // At a coarse rate most messages are unsampled, and the decision for
  // one message never changes across calls.
  msglog_start(/*sample_one_in=*/1000);
  std::size_t sampled = 0;
  for (std::uint64_t ordinal = 0; ordinal < 2000; ++ordinal) {
    const std::uint64_t t = msglog_tag(42, ordinal, 5000);
    if (t != 0) ++sampled;
    EXPECT_EQ(msglog_tag(42, ordinal, 5000), t);
  }
  EXPECT_LT(sampled, 30u);  // ~2 expected from 2000 at 1-in-1000
  msglog_stop();
}

TEST(obs_msglog, hops_group_per_message_ordered_by_first_hop_time) {
  msglog_start(/*sample_one_in=*/1);
  if (!msglog_enabled()) return;  // NYLON_OBS=0
  // Two sampled messages, hops interleaved in time: the late message's
  // punch PING dies in a symmetric NAT's filter.
  msglog_record({0xA1, 1000, 3, 9, hop_kind::send, "REQUEST", nullptr});
  msglog_record({0xB3, 1200, 5, 8, hop_kind::nat_translate, "PING", nullptr});
  msglog_record({0xB3, 1200, 5, 8, hop_kind::send, "PING", nullptr});
  msglog_record({0xA1, 1050, 3, 9, hop_kind::deliver, "REQUEST", nullptr});
  msglog_record({0xB3, 1250, 5, 8, hop_kind::drop, "PING", "nat_filtered"});
  msglog_stop();

  const util::json doc = msglog_to_json();
  ASSERT_EQ(doc.at("messages").size(), 2u);
  const util::json& request = doc.at("messages").at(0);  // earlier first hop
  EXPECT_EQ(request.at("msg").as_string(), "REQUEST");
  EXPECT_EQ(request.at("from").as_int(), 3);
  ASSERT_EQ(request.at("hops").size(), 2u);
  EXPECT_EQ(request.at("hops").at(0).at("hop").as_string(), "send");
  EXPECT_EQ(request.at("hops").at(1).at("hop").as_string(), "deliver");

  const util::json& ping = doc.at("messages").at(1);
  EXPECT_EQ(ping.at("msg").as_string(), "PING");
  ASSERT_EQ(ping.at("hops").size(), 3u);
  // Same-millisecond hops keep recording order (translate before send).
  EXPECT_EQ(ping.at("hops").at(0).at("hop").as_string(), "nat_translate");
  EXPECT_EQ(ping.at("hops").at(1).at("hop").as_string(), "send");
  const util::json& last = ping.at("hops").at(2);
  EXPECT_EQ(last.at("hop").as_string(), "drop");
  EXPECT_EQ(last.at("note").as_string(), "nat_filtered");
}

TEST(obs_msglog, full_ring_overwrites_oldest_and_counts_drops) {
  msglog_start(/*sample_one_in=*/1, /*ring_capacity=*/4);
  if (!msglog_enabled()) return;  // NYLON_OBS=0
  for (std::int64_t i = 0; i < 10; ++i) {
    msglog_record({0xC0DE, i, 1, 2, hop_kind::send, "PING", nullptr});
  }
  msglog_stop();
  const msglog_stats stats = msglog_statistics();
  EXPECT_EQ(stats.recorded, 4u);
  EXPECT_EQ(stats.dropped, 6u);
  EXPECT_EQ(stats.threads, 1u);
  // The survivors are the newest four hops (t 6..9 ms), and the export
  // reports the eviction count.
  const util::json doc = msglog_to_json();
  EXPECT_EQ(doc.at("dropped").as_int(), 6);
  ASSERT_EQ(doc.at("messages").size(), 1u);
  for (const util::json& hop :
       doc.at("messages").at(0).at("hops").array_items()) {
    EXPECT_GE(hop.at("t_s").as_double(), 0.006 - 1e-9);
  }
}

TEST(obs_msglog, restart_clears_previous_recording) {
  msglog_start(/*sample_one_in=*/1);
  if (!msglog_enabled()) return;  // NYLON_OBS=0
  msglog_record({0xD1, 0, 1, 2, hop_kind::send, "PING", nullptr});
  msglog_start(/*sample_one_in=*/1);  // restart: old hops must not leak
  msglog_record({0xD2, 0, 3, 4, hop_kind::send, "PONG", nullptr});
  msglog_stop();
  const util::json doc = msglog_to_json();
  ASSERT_EQ(doc.at("messages").size(), 1u);
  EXPECT_EQ(doc.at("messages").at(0).at("msg").as_string(), "PONG");
  EXPECT_EQ(msglog_statistics().dropped, 0u);
}

TEST(obs_msglog, dump_names_the_drop_reason) {
  msglog_start(/*sample_one_in=*/1);
  std::ostringstream out;
  if (!msglog_enabled()) {  // NYLON_OBS=0: dump still writes a header
    msglog_dump(out);
    EXPECT_NE(out.str().find("msglog"), std::string::npos);
    return;
  }
  msglog_record({0xE5, 2000, 11, 4, hop_kind::send, "PING", nullptr});
  msglog_record({0xE5, 2050, 11, 4, hop_kind::drop, "PING", "nat_filtered"});
  msglog_stop();
  msglog_dump(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("PING"), std::string::npos);
  EXPECT_NE(text.find("drop@"), std::string::npos);
  EXPECT_NE(text.find("(nat_filtered)"), std::string::npos);
}

TEST(obs_msglog, truncated_dump_points_at_the_full_recording) {
  msglog_start(/*sample_one_in=*/1);
  if (!msglog_enabled()) return;  // NYLON_OBS=0
  msglog_record({0xF1, 1000, 1, 2, hop_kind::send, "PING", nullptr});
  msglog_record({0xF3, 2000, 3, 4, hop_kind::send, "PONG", nullptr});
  msglog_stop();
  std::ostringstream out;
  msglog_dump(out, /*limit=*/1);
  const std::string text = out.str();
  EXPECT_NE(text.find("PING"), std::string::npos);
  EXPECT_EQ(text.find("PONG"), std::string::npos);
  EXPECT_NE(text.find("# msglog: ... 1 more (--msglog-dump FILE writes the "
                      "whole recording)\n"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace nylon::obs
