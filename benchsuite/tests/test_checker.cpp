// Self-test of the benchmark's delivery checker: a clean delivery stream
// passes, and a missing, a duplicated and a misrouted delivery — or a
// missing or extra composite firing — each raise failed_frac.
#include <gtest/gtest.h>

#include "checker.hpp"
#include "profile/profile.hpp"

namespace gb {
namespace {

using namespace genas;

class CheckerTest : public ::testing::Test {
 protected:
  CheckerTest()
      : schema_(SchemaBuilder().add_integer("a", 0, 9).add_integer("b", 0, 9).build()) {
    // Profile 0: a = 1; profile 1: a >= 5; profile 2: b = 2 (a don't-care).
    profiles_.push_back(ProfileBuilder(schema_).where("a", Op::kEq, Value(1)).build());
    profiles_.push_back(ProfileBuilder(schema_).where("a", Op::kGe, Value(5)).build());
    profiles_.push_back(ProfileBuilder(schema_).where("b", Op::kEq, Value(2)).build());
    for (std::int64_t i = 0; i < 8; ++i) {
      pool_.push_back(Event::from_indices(
          schema_, {static_cast<DomainIndex>(i), static_cast<DomainIndex>(i % 3)}, i));
    }
  }

  /// Records exactly the reference's deliveries of sequence numbers
  /// [0, count) into `ledger`.
  void deliver_all(const Reference& ref, DeliveryLedger& ledger, std::uint64_t count) {
    for (std::uint64_t seq = 0; seq < count; ++seq) {
      for (const std::uint32_t k : ref.matches(seq % ref.pool_size())) ledger.record(seq, k);
    }
  }

  SchemaPtr schema_;
  std::vector<Profile> profiles_;
  std::vector<Event> pool_;
};

TEST_F(CheckerTest, ReferenceFollowsThePredicates) {
  const Reference ref(schema_, profiles_, pool_);
  // Event 1 = (a=1, b=1): profile 0. Event 2 = (a=2, b=2): profile 2.
  // Event 5 = (a=5, b=2): profiles 1 and 2.
  EXPECT_EQ(std::vector<std::uint32_t>(ref.matches(1).begin(), ref.matches(1).end()),
            (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(std::vector<std::uint32_t>(ref.matches(2).begin(), ref.matches(2).end()),
            (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(std::vector<std::uint32_t>(ref.matches(5).begin(), ref.matches(5).end()),
            (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(ref.cross_check(profiles_, pool_, pool_.size()), 0u);
}

TEST_F(CheckerTest, CleanStreamHasNoFailures) {
  const Reference ref(schema_, profiles_, pool_);
  DeliveryLedger ledger(16);
  deliver_all(ref, ledger, 16);
  const Tally tally = ledger.verify(0, 16, ref);
  EXPECT_GT(tally.expected, 0u);
  EXPECT_EQ(tally.failed, 0u);
  EXPECT_EQ(tally.failed_frac(), 0.0);
}

TEST_F(CheckerTest, MissingDeliveryFails) {
  const Reference ref(schema_, profiles_, pool_);
  DeliveryLedger ledger(8);
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    for (const std::uint32_t k : ref.matches(seq)) {
      if (seq == 5 && k == 1) continue;  // drop one of event 5's two
      ledger.record(seq, k);
    }
  }
  const Tally tally = ledger.verify(0, 8, ref);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_GT(tally.failed_frac(), 0.0);
}

TEST_F(CheckerTest, DuplicatedDeliveryFails) {
  const Reference ref(schema_, profiles_, pool_);
  DeliveryLedger ledger(8);
  deliver_all(ref, ledger, 8);
  ledger.record(1, 0);  // profile 0 notified twice for event 1
  const Tally tally = ledger.verify(0, 8, ref);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_GT(tally.failed_frac(), 0.0);
}

TEST_F(CheckerTest, MisroutedDeliveryFails) {
  const Reference ref(schema_, profiles_, pool_);
  DeliveryLedger ledger(8);
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    for (const std::uint32_t k : ref.matches(seq)) {
      ledger.record(seq, seq == 2 ? 1 : k);  // event 2 reaches profile 1, not 2
    }
  }
  const Tally tally = ledger.verify(0, 8, ref);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_GT(tally.failed_frac(), 0.0);
}

TEST_F(CheckerTest, DeliveryAtTheWrongGroupFails) {
  // Profiles 0 and 2 live in group 0, profile 1 in group 1 (mesh nodes).
  const Reference ref(schema_, profiles_, pool_, {0, 1, 0});
  DeliveryLedger group0(8);
  DeliveryLedger group1(8);
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    for (const std::uint32_t k : ref.matches(seq)) (k == 1 ? group1 : group0).record(seq, k);
  }
  EXPECT_EQ(group0.verify(0, 8, ref, 0).failed, 0u);
  EXPECT_EQ(group1.verify(0, 8, ref, 1).failed, 0u);

  // The same deliveries, but event 5's profile-1 delivery lands in group 0.
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    for (const std::uint32_t k : ref.matches(seq)) {
      const bool wrong = seq == 5 && k == 1;
      (k == 1 && !wrong ? group1 : group0).record(seq, k);
    }
  }
  EXPECT_GT(group0.verify(0, 8, ref, 0).failed + group1.verify(0, 8, ref, 1).failed, 0u);
}

TEST_F(CheckerTest, VerifyClearsItsSlots) {
  const Reference ref(schema_, profiles_, pool_);
  DeliveryLedger ledger(8);
  deliver_all(ref, ledger, 8);
  EXPECT_EQ(ledger.verify(0, 8, ref).failed, 0u);
  // Sequence numbers 8..15 reuse the ring's slots and the pool's events.
  for (std::uint64_t seq = 8; seq < 16; ++seq) {
    for (const std::uint32_t k : ref.matches(seq % 8)) ledger.record(seq, k);
  }
  EXPECT_EQ(ledger.verify(8, 16, ref).failed, 0u);
}

TEST(FiringCheck, MissingOrExtraFiringFails) {
  FiringSummary expected;
  FiringSummary observed;
  for (std::int64_t t = 0; t < 5; ++t) {
    expected.add(3, t);
    observed.add(3, t);
  }
  EXPECT_EQ(compare_firings(expected, observed).failed, 0u);
  EXPECT_EQ(compare_firings(expected, observed).expected, 5u);

  FiringSummary missing = observed;
  missing.count -= 1;
  missing.hash -= mix((std::uint64_t{3} << 40) ^ 4u);
  EXPECT_EQ(compare_firings(expected, missing).failed, 1u);

  FiringSummary extra = observed;
  extra.add(3, 4);
  EXPECT_EQ(compare_firings(expected, extra).failed, 1u);

  FiringSummary wrong_time = expected;
  wrong_time.hash = 0;
  for (std::int64_t t = 1; t < 6; ++t) {
    FiringSummary one;
    one.add(3, t);
    wrong_time.hash += one.hash;
  }
  EXPECT_EQ(compare_firings(expected, wrong_time).failed, 1u);
}

}  // namespace
}  // namespace gb
