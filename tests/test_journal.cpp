// Durable subscription journal tests: round-trip recovery, torn/corrupt
// tail truncation (a crash mid-append costs records, never a failed load),
// CRC forgery detection, compaction via atomic replace, the schema-first
// protocol, and replay into a fresh broker.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "ens/broker.hpp"
#include "ens/composite.hpp"
#include "ens/journal.hpp"
#include "profile/parser.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir();
    if (path_.empty() || path_.back() != '/') path_ += '/';
    path_ += "genas_journal_";
    path_ += ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ += '_';
    path_ += std::to_string(::getpid());
    path_ += ".journal";
    std::remove(path_.c_str());
    schema_ = testutil::example1_schema();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<std::uint8_t> file_bytes() const {
    std::ifstream in(path_, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
  }
  void write_file(const std::vector<std::uint8_t>& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// A populated journal: schema, three subscribes (one later retracted),
  /// one composite (plus one retracted composite).
  void populate() {
    SubscriptionJournal journal;
    journal.open(path_);
    journal.record_schema(*schema_);
    journal.record_subscribe(1, parse_profile(schema_, "temperature >= 35"));
    journal.record_subscribe(2, parse_profile(schema_, "humidity >= 90"));
    journal.record_subscribe(3, parse_profile(schema_, "radiation >= 50"));
    journal.record_unsubscribe(2);
    journal.record_composite_subscribe(
        10, *parse_composite(schema_,
                             "seq({temperature >= 35}, {humidity >= 90}, "
                             "w=10)"));
    journal.record_composite_subscribe(
        11, *parse_composite(schema_, "disj({radiation >= 90}, "
                                      "{temperature <= -20})"));
    journal.record_composite_unsubscribe(11);
    journal.sync();
  }

  std::string path_;
  SchemaPtr schema_;
};

TEST_F(JournalTest, RoundTripRecoversLiveState) {
  populate();

  SubscriptionJournal journal;
  SubscriptionJournal::LoadStats stats;
  const SubscriptionJournal::State& state = journal.open(path_, &stats);

  EXPECT_EQ(stats.records, 8u);
  EXPECT_EQ(stats.bytes_dropped, 0u);
  ASSERT_NE(state.schema, nullptr);
  EXPECT_EQ(state.schema->attribute_count(), schema_->attribute_count());
  EXPECT_EQ(state.subscriptions.size(), 2u);
  EXPECT_TRUE(state.subscriptions.count(1));
  EXPECT_TRUE(state.subscriptions.count(3));
  EXPECT_FALSE(state.subscriptions.count(2));
  EXPECT_EQ(state.composites.size(), 1u);
  EXPECT_TRUE(state.composites.count(10));
}

TEST_F(JournalTest, ReplayRegistersEverythingWithAFreshBroker) {
  populate();

  SubscriptionJournal journal;
  const SubscriptionJournal::State& state = journal.open(path_);
  Broker broker(state.schema);

  std::vector<std::uint64_t> delivered;
  std::vector<std::uint64_t> fired;
  const JournalReplayResult handles = replay_journal(
      state, broker,
      [&](std::uint64_t key) {
        return [&delivered, key](const Notification&) {
          delivered.push_back(key);
        };
      },
      [&](std::uint64_t key) {
        return [&fired, key](const CompositeFiring&) { fired.push_back(key); };
      });

  EXPECT_EQ(handles.subscriptions.size(), 2u);
  EXPECT_EQ(handles.composites.size(), 1u);

  broker.publish(Event::from_pairs(
      state.schema, {{"temperature", 40}, {"humidity", 10}, {"radiation", 1}},
      1));
  broker.publish(Event::from_pairs(
      state.schema, {{"temperature", 0}, {"humidity", 95}, {"radiation", 60}},
      2));
  broker.flush_composites();

  // Event 1 matches sub 1; event 2 matches sub 3 (retracted sub 2 must be
  // gone) and completes the seq composite.
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{10}));
}

TEST_F(JournalTest, ReplayRejectsABrokerWithADifferentSchemaInstance) {
  populate();
  SubscriptionJournal journal;
  const SubscriptionJournal::State& state = journal.open(path_);
  Broker broker(schema_);  // structurally equal, different instance
  try {
    replay_journal(
        state, broker, [](std::uint64_t) { return [](const Notification&) {}; },
        [](std::uint64_t) { return [](const CompositeFiring&) {}; });
    FAIL() << "expected Error{kInvalidArgument}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

TEST_F(JournalTest, TornTailIsTruncatedNotFatal) {
  populate();
  std::vector<std::uint8_t> bytes = file_bytes();
  const std::size_t full = bytes.size();

  // Simulate a crash mid-append: half of the last record made it to disk.
  bytes.resize(full - 7);
  write_file(bytes);

  SubscriptionJournal journal;
  SubscriptionJournal::LoadStats stats;
  const SubscriptionJournal::State& state = journal.open(path_, &stats);
  EXPECT_EQ(stats.records, 7u);  // the torn composite-unsubscribe is gone
  EXPECT_GT(stats.bytes_dropped, 0u);
  // The retraction was the torn record, so composite 11 is live again.
  EXPECT_EQ(state.composites.size(), 2u);
  journal.close();

  // The bad tail was truncated in place: a second load is clean.
  SubscriptionJournal again;
  SubscriptionJournal::LoadStats stats2;
  again.open(path_, &stats2);
  EXPECT_EQ(stats2.records, 7u);
  EXPECT_EQ(stats2.bytes_dropped, 0u);
}

TEST_F(JournalTest, GarbageTailIsTruncated) {
  populate();
  std::vector<std::uint8_t> bytes = file_bytes();
  for (int i = 0; i < 40; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(0xA5 ^ i));
  }
  write_file(bytes);

  SubscriptionJournal journal;
  SubscriptionJournal::LoadStats stats;
  journal.open(path_, &stats);
  EXPECT_EQ(stats.records, 8u);
  EXPECT_EQ(stats.bytes_dropped, 40u);
}

TEST_F(JournalTest, CrcMismatchDropsTheRecordAndItsSuffix) {
  populate();
  std::vector<std::uint8_t> bytes = file_bytes();

  // Flip one payload byte in the middle of the file: the CRC of that
  // record no longer matches, so it and everything after it are dropped.
  bytes[bytes.size() / 2] ^= 0x01;
  write_file(bytes);

  SubscriptionJournal journal;
  SubscriptionJournal::LoadStats stats;
  journal.open(path_, &stats);
  EXPECT_LT(stats.records, 8u);
  EXPECT_GT(stats.bytes_dropped, 0u);
}

TEST_F(JournalTest, Crc32MatchesTheIeeeReferenceVector) {
  const char* text = "123456789";
  const std::uint32_t crc = SubscriptionJournal::crc32(std::span(
      reinterpret_cast<const std::uint8_t*>(text), 9));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST_F(JournalTest, CompactionDropsChurnAndSurvivesReload) {
  SubscriptionJournal journal;
  journal.open(path_);
  journal.record_schema(*schema_);
  const Profile keeper = parse_profile(schema_, "temperature >= 35");
  journal.record_subscribe(1, keeper);
  for (std::uint64_t k = 100; k < 140; ++k) {
    journal.record_subscribe(k, parse_profile(schema_, "humidity >= 90"));
    journal.record_unsubscribe(k);
  }
  journal.sync();
  const std::uint64_t before = journal.size_bytes();

  journal.compact();
  EXPECT_LT(journal.size_bytes(), before);
  EXPECT_EQ(journal.state().subscriptions.size(), 1u);

  // The journal stays open on the new file: appends still work.
  journal.record_subscribe(2, parse_profile(schema_, "radiation >= 50"));
  journal.sync();
  journal.close();

  SubscriptionJournal reloaded;
  SubscriptionJournal::LoadStats stats;
  const SubscriptionJournal::State& state = reloaded.open(path_, &stats);
  EXPECT_EQ(stats.bytes_dropped, 0u);
  EXPECT_EQ(state.subscriptions.size(), 2u);
  EXPECT_TRUE(state.subscriptions.count(1));
  EXPECT_TRUE(state.subscriptions.count(2));
}

TEST_F(JournalTest, SchemaRecordIsRequiredFirstAndUnique) {
  SubscriptionJournal journal;
  journal.open(path_);
  EXPECT_THROW(
      journal.record_subscribe(1, parse_profile(schema_, "humidity >= 90")),
      Error);
  journal.record_schema(*schema_);
  EXPECT_THROW(journal.record_schema(*schema_), Error);
  EXPECT_THROW(SubscriptionJournal().record_schema(*schema_), Error);
}

TEST_F(JournalTest, ReopeningAnEmptyJournalIsCleanAndWritable) {
  {
    SubscriptionJournal journal;
    SubscriptionJournal::LoadStats stats;
    const SubscriptionJournal::State& state = journal.open(path_, &stats);
    EXPECT_EQ(state.schema, nullptr);
    EXPECT_EQ(stats.records, 0u);
  }
  populate();  // reuses the now-existing empty file
  SubscriptionJournal journal;
  const SubscriptionJournal::State& state = journal.open(path_);
  EXPECT_EQ(state.subscriptions.size(), 2u);
}

// A journal recorded at wire version 1 before type codes 2, 3 and 9 were
// retired: schema, subscribe(1, temperature >= 35), subscribe(2, humidity
// >= 90), composite-subscribe(10, seq({temperature >= 35}, {humidity >= 90},
// w=10)), unsubscribe(2). A change to the frame header, the wire version or these
// payloads would make open() truncate persisted state; this pins the bytes.
TEST_F(JournalTest, PinnedJournalBytesStillLoad) {
  const std::vector<std::uint8_t> pinned = {
    0x91, 0x2f, 0x6a, 0xd2, 0x57, 0x47, 0x01, 0x01, 0x5f, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00, 0x74, 0x65, 0x6d, 0x70,
    0x65, 0x72, 0x61, 0x74, 0x75, 0x72, 0x65, 0x00, 0xe2, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0x32, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x08, 0x00, 0x00, 0x00, 0x68, 0x75, 0x6d, 0x69, 0x64, 0x69, 0x74, 0x79,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x64, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x72, 0x61, 0x64,
    0x69, 0x61, 0x74, 0x69, 0x6f, 0x6e, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x76,
    0x5d, 0xaa, 0xa3, 0x57, 0x47, 0x01, 0x04, 0x25, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x05, 0x01, 0x00, 0x00, 0x00, 0x41, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x50, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xbc, 0xba, 0x3b, 0xe1, 0x57, 0x47, 0x01, 0x04, 0x25, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x05, 0x01, 0x00, 0x00, 0x00, 0x5a, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x56, 0x0e, 0x19, 0x6e, 0x57, 0x47, 0x01, 0x06, 0x4d, 0x00, 0x00,
    0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x0a, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x05, 0x01, 0x00, 0x00, 0x00, 0x41, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x50, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x05, 0x01, 0x00,
    0x00, 0x00, 0x5a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x64, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc5, 0x2c, 0xe8, 0x4c, 0x57, 0x47,
    0x01, 0x05, 0x08, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00};
  write_file(pinned);

  SubscriptionJournal journal;
  SubscriptionJournal::LoadStats stats;
  const SubscriptionJournal::State& state = journal.open(path_, &stats);

  EXPECT_EQ(stats.records, 5u);
  EXPECT_EQ(stats.bytes_dropped, 0u);
  EXPECT_EQ(journal.size_bytes(), pinned.size());
  EXPECT_EQ(file_bytes(), pinned);

  ASSERT_NE(state.schema, nullptr);
  EXPECT_EQ(state.schema->to_string(), schema_->to_string());
  ASSERT_EQ(state.subscriptions.size(), 1u);
  ASSERT_TRUE(state.subscriptions.count(1));
  EXPECT_EQ(state.subscriptions.at(1).to_string(),
            parse_profile(state.schema, "temperature >= 35").to_string());
  ASSERT_EQ(state.composites.size(), 1u);
  ASSERT_TRUE(state.composites.count(10));
  EXPECT_EQ(state.composites.at(10)->to_string(),
            parse_composite(state.schema,
                            "seq({temperature >= 35}, {humidity >= 90}, w=10)")
                ->to_string());
}

}  // namespace
}  // namespace genas
