// Tests for the FilterEngine facade.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/filter_engine.hpp"
#include "dist/sampler.hpp"
#include "dist/shapes.hpp"
#include "reference_tree.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

class FilterEngineTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = testutil::example1_schema();

  Event make_event(std::int64_t t, std::int64_t h, std::int64_t r) {
    return Event::from_pairs(
        schema_, {{"temperature", t}, {"humidity", h}, {"radiation", r}});
  }
};

TEST_F(FilterEngineTest, SubscribeMatchUnsubscribe) {
  FilterEngine engine(schema_);
  const ProfileId hot = engine.subscribe("temperature >= 35");
  const ProfileId wet = engine.subscribe("humidity >= 90");

  EngineMatch match = engine.match(make_event(40, 95, 1));
  EXPECT_EQ(testutil::sorted(match.matched),
            (std::vector<ProfileId>{hot, wet}));
  EXPECT_GT(match.operations, 0u);

  engine.unsubscribe(hot);
  match = engine.match(make_event(40, 95, 1));
  EXPECT_EQ(match.matched, (std::vector<ProfileId>{wet}));
}

TEST_F(FilterEngineTest, LazyRebuildOnSubscriptionChange) {
  FilterEngine engine(schema_);
  engine.subscribe("temperature >= 35");
  (void)engine.tree();
  const std::uint64_t builds = engine.rebuild_count();
  // No change: tree() must not rebuild again.
  (void)engine.tree();
  EXPECT_EQ(engine.rebuild_count(), builds);
  // Subscription change invalidates.
  engine.subscribe("humidity >= 90");
  (void)engine.tree();
  EXPECT_EQ(engine.rebuild_count(), builds + 1);
}

TEST_F(FilterEngineTest, PolicyChangeTriggersRebuildWithNewShape) {
  EngineOptions options;
  options.prior = JointDistribution::independent(
      schema_, {shapes::equal(81), shapes::equal(101), shapes::equal(100)});
  FilterEngine engine(schema_, options);
  engine.subscribe("temperature >= 35 && humidity >= 90");
  engine.subscribe("humidity <= 5");

  (void)engine.tree();
  OrderingPolicy policy;
  policy.attribute_measure = AttributeMeasure::kA1;
  policy.direction = OrderDirection::kDescending;
  engine.set_policy(policy);
  const ProfileTree& tree = engine.tree();
  // Humidity has the larger zero-subdomain: it must now be the root.
  EXPECT_EQ(tree.nodes().back().attribute, schema_->id_of("humidity"));
}

TEST_F(FilterEngineTest, EffectiveDistributionFallsBackToUniformThenPrior) {
  FilterEngine plain(schema_);
  const JointDistribution uniform = plain.effective_distribution();
  EXPECT_NEAR(uniform.marginal(0).pmf(0), 1.0 / 81.0, 1e-12);

  EngineOptions options;
  options.prior = JointDistribution::independent(
      schema_, {shapes::percent_peak(81, 0.9, true, 0.1),
                shapes::equal(101), shapes::equal(100)});
  FilterEngine with_prior(schema_, options);
  EXPECT_GT(with_prior.effective_distribution().marginal(0).mass(
                Interval{73, 80}),
            0.8);
}

TEST_F(FilterEngineTest, AdaptiveLoopRebuildsOnDrift) {
  EngineOptions options;
  options.policy.value_order = ValueOrder::kEventProbability;
  AdaptiveOptions adaptive;
  adaptive.min_observations = 300;
  adaptive.rebuild_cooldown = 300;
  adaptive.drift_threshold = 0.4;
  adaptive.decay = 0.995;
  options.adaptive = adaptive;
  FilterEngine engine(schema_, options);
  engine.subscribe("temperature >= 35");
  engine.subscribe("temperature <= -20");

  const auto low_joint = JointDistribution::independent(
      schema_, {shapes::percent_peak(81, 0.95, false, 0.1),
                shapes::equal(101), shapes::equal(100)});
  const auto high_joint = JointDistribution::independent(
      schema_, {shapes::percent_peak(81, 0.95, true, 0.1),
                shapes::equal(101), shapes::equal(100)});

  std::uint64_t rebuilds_seen = 0;
  EventSampler low(low_joint, 1);
  for (int i = 0; i < 600; ++i) {
    if (engine.match(low.sample()).rebuilt) ++rebuilds_seen;
  }
  EXPECT_GE(rebuilds_seen, 1u);  // first adaptive optimization

  EventSampler high(high_joint, 2);
  std::uint64_t drift_rebuilds = 0;
  for (int i = 0; i < 2000; ++i) {
    if (engine.match(high.sample()).rebuilt) ++drift_rebuilds;
  }
  EXPECT_GE(drift_rebuilds, 1u) << "regime change must trigger a rebuild";
  ASSERT_NE(engine.adaptive(), nullptr);
  EXPECT_GE(engine.adaptive()->rebuilds(), 2u);
}

TEST_F(FilterEngineTest, SnapshotIsImmutableAcrossMutations) {
  FilterEngine engine(schema_);
  const ProfileId hot = engine.subscribe("temperature >= 35");
  const std::shared_ptr<const MatchSnapshot> snapshot = engine.snapshot();
  ASSERT_NE(snapshot, nullptr);
  ASSERT_NE(snapshot->tree, nullptr);
  ASSERT_NE(snapshot->flat, nullptr);
  EXPECT_EQ(snapshot->flat->source_version(),
            snapshot->tree->source_version());

  // Mutate and rebuild: the old snapshot must keep matching the old set.
  engine.subscribe("humidity >= 90");
  const std::shared_ptr<const MatchSnapshot> fresh = engine.snapshot();
  EXPECT_NE(fresh, snapshot);

  const Event wet = make_event(0, 95, 1);
  EXPECT_EQ(snapshot->flat->match(wet).matched_count, 0u);  // old: hot only
  ASSERT_EQ(fresh->flat->match(wet).matched_count, 1u);

  const Event both = make_event(40, 95, 1);
  const FlatMatch old_match = snapshot->flat->match(both);
  ASSERT_EQ(old_match.matched_count, 1u);
  EXPECT_EQ(old_match.matched[0], hot);
  EXPECT_EQ(fresh->flat->match(both).matched_count, 2u);
}

TEST_F(FilterEngineTest, MatchBatchAgreesWithSingleMatches) {
  FilterEngine engine(schema_);
  engine.subscribe("temperature >= 35");
  engine.subscribe("humidity >= 90");
  engine.subscribe("radiation >= 50");

  const std::vector<Event> events = {
      make_event(40, 95, 1),  make_event(0, 0, 99), make_event(-30, 0, 1),
      make_event(36, 91, 77), make_event(35, 90, 50)};

  std::vector<ProfileId> matched;
  std::vector<std::size_t> offsets;
  const EngineBatchMatch batch = engine.match_batch(events, matched, offsets);

  ASSERT_EQ(offsets.size(), events.size() + 1);
  std::uint64_t single_operations = 0;
  std::size_t single_matched_events = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const EngineMatch single = engine.match(events[i]);
    single_operations += single.operations;
    if (!single.matched.empty()) ++single_matched_events;
    const std::vector<ProfileId> slice(matched.begin() + offsets[i],
                                       matched.begin() + offsets[i + 1]);
    EXPECT_EQ(slice, single.matched) << "event " << i;
  }
  EXPECT_EQ(batch.operations, single_operations);
  EXPECT_EQ(batch.matched_events, single_matched_events);
  EXPECT_FALSE(batch.rebuilt);

  // Buffer reuse: a second batch clears and refills the same vectors.
  const std::size_t capacity = matched.capacity();
  engine.match_batch(events, matched, offsets);
  EXPECT_EQ(offsets.size(), events.size() + 1);
  EXPECT_GE(matched.capacity(), capacity);
}

TEST_F(FilterEngineTest, MatchBatchFeedsAdaptiveLoop) {
  EngineOptions options;
  AdaptiveOptions adaptive;
  adaptive.min_observations = 100;
  adaptive.rebuild_cooldown = 100;
  adaptive.drift_threshold = 0.4;
  adaptive.decay = 0.995;
  options.adaptive = adaptive;
  FilterEngine engine(schema_, options);
  engine.subscribe("temperature >= 35");

  const std::vector<Event> low =
      testutil::event_stream(testutil::peak_joint(schema_, false), 256, 3);
  std::vector<ProfileId> matched;
  std::vector<std::size_t> offsets;
  bool rebuilt = false;
  for (int round = 0; round < 4; ++round) {
    rebuilt |= engine.match_batch(low, matched, offsets).rebuilt;
  }
  EXPECT_TRUE(rebuilt);  // batch observations drive the first optimization
  ASSERT_NE(engine.adaptive(), nullptr);
  EXPECT_EQ(engine.adaptive()->observations(), 4u * 256u);
}

// --- Rank-only versus full rebuilds ------------------------------------

/// Two-attribute system whose event stream flips between two regimes.
class RebuildPathTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = SchemaBuilder()
                          .add_integer("x", 0, 49)
                          .add_integer("y", 0, 49)
                          .build();

  static EngineOptions adaptive_options(ValueOrder order) {
    EngineOptions options;
    options.policy.value_order = order;
    options.policy.attribute_measure = AttributeMeasure::kA2;
    AdaptiveOptions adaptive;
    adaptive.min_observations = 200;
    adaptive.rebuild_cooldown = 200;
    adaptive.drift_threshold = 0.3;
    adaptive.decay = 0.99;
    options.adaptive = adaptive;
    return options;
  }

  /// Profiles on x, y in [15, 34]; with `dont_cares`, every third profile
  /// ignores x and every third (offset) ignores y, so D_0 = ∅ on both.
  void subscribe_profiles(FilterEngine& engine, bool dont_cares) {
    Rng rng(17);
    for (int i = 0; i < 60; ++i) {
      ProfileBuilder builder(schema_);
      const std::int64_t lo = 15 + static_cast<std::int64_t>(rng.below(15));
      const std::int64_t hi = lo + static_cast<std::int64_t>(rng.below(35 - lo));
      if (!dont_cares || i % 3 != 0) builder.between("x", lo, hi);
      if (!dont_cares || i % 3 != 1) builder.between("y", 34 - (hi - 15), 34 - (lo - 15));
      engine.subscribe(builder.build());
    }
  }

  /// Regime `phase`: one attribute sits in the unreferenced low band, the
  /// other in the referenced middle; the next phase swaps them.
  std::vector<Event> regime_events(int phase, std::size_t count) const {
    const DiscreteDistribution outside = shapes::percent_peak(50, 0.95, false, 0.2);
    const DiscreteDistribution inside = shapes::gauss(50, 0.5, 0.08);
    const auto joint = phase % 2 == 0
                           ? JointDistribution::independent(schema_, {outside, inside})
                           : JointDistribution::independent(schema_, {inside, outside});
    return testutil::event_stream(joint, count, 100 + static_cast<std::uint64_t>(phase));
  }

  struct Rebuilds {
    std::size_t rank_only = 0;
    std::size_t full = 0;
    std::size_t full_with_new_order = 0;
  };

  /// Matches `events`; after every adaptive rebuild checks the live tree
  /// against a fresh build under the distribution the engine rebuilt for,
  /// and tallies whether the rebuild was rank-only or full.
  static Rebuilds drive(FilterEngine& engine, const std::vector<Event>& events) {
    Rebuilds seen;
    std::vector<AttributeId> order = engine.tree().config().attribute_order;
    for (const Event& event : events) {
      const std::uint64_t full_before = engine.full_build_count();
      if (!engine.match(event).rebuilt) continue;
      const bool rank_only = engine.full_build_count() == full_before;
      // A rank-only snapshot carries no node form; a full build's does.
      EXPECT_EQ(engine.snapshot()->tree == nullptr, rank_only);
      const ProfileTree& tree = engine.tree();
      testutil::expect_same_tree(
          tree, build_tree(engine.profiles(), engine.policy(),
                           engine.adaptive()->estimate()));
      // The slab the snapshot serves holds the fresh build's costs.
      const FlatProfileTree& flat = *engine.snapshot()->flat;
      EXPECT_EQ(flat.node_count(), tree.nodes().size());
      for (std::size_t n = 0; n < flat.node_count(); ++n) {
        EXPECT_TRUE(std::ranges::equal(flat.cell_costs(n), tree.nodes()[n].cost))
            << "node " << n;
      }
      const bool reordered = tree.config().attribute_order != order;
      if (rank_only) {
        ++seen.rank_only;
        EXPECT_FALSE(reordered) << "a rank-only rebuild kept a stale order";
      } else {
        ++seen.full;
        if (reordered) ++seen.full_with_new_order;
      }
      order = tree.config().attribute_order;
    }
    return seen;
  }
};

TEST_F(RebuildPathTest, ShapePreservingDriftRebuildsRankOnly) {
  FilterEngine engine(schema_, adaptive_options(ValueOrder::kEventProbability));
  subscribe_profiles(engine, true);
  engine.rebuild();
  const std::uint64_t full_at_start = engine.full_build_count();
  Rebuilds seen;
  for (int phase = 0; phase < 4; ++phase) {
    const Rebuilds part = drive(engine, regime_events(phase, 1500));
    seen.rank_only += part.rank_only;
    seen.full += part.full;
  }
  EXPECT_GE(seen.rank_only, 4u);
  EXPECT_EQ(seen.full, 0u);
  EXPECT_EQ(engine.full_build_count(), full_at_start);
  EXPECT_EQ(engine.rebuild_count(), full_at_start + seen.rank_only);
}

TEST_F(RebuildPathTest, SnapshotHeldAcrossRankOnlySwapKeepsItsCosts) {
  FilterEngine engine(schema_, adaptive_options(ValueOrder::kEventProbability));
  subscribe_profiles(engine, true);
  engine.rebuild();
  const std::shared_ptr<const MatchSnapshot> held = engine.snapshot();
  const std::vector<Event> probe = regime_events(1, 200);
  std::vector<std::uint64_t> held_ops;
  for (const Event& event : probe) held_ops.push_back(held->flat->match(event).operations);

  // Drift until a rank-only rebuild replaces the snapshot.
  const std::uint64_t full_before = engine.full_build_count();
  const std::uint64_t rebuilds_before = engine.rebuild_count();
  for (const Event& event : regime_events(0, 1500)) (void)engine.match(event);
  ASSERT_GT(engine.rebuild_count(), rebuilds_before);
  ASSERT_EQ(engine.full_build_count(), full_before);
  const std::shared_ptr<const MatchSnapshot> swapped = engine.snapshot();
  ASSERT_NE(swapped, held);
  EXPECT_EQ(swapped->tree, nullptr);
  EXPECT_EQ(swapped->flat->nodes().data(), held->flat->nodes().data())
      << "a rank-only rebuild must share the shape";

  bool costs_moved = false;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const FlatMatch old_match = held->flat->match(probe[i]);
    const FlatMatch new_match = swapped->flat->match(probe[i]);
    EXPECT_EQ(old_match.operations, held_ops[i]) << "held snapshot changed";
    EXPECT_TRUE(std::ranges::equal(old_match.span(), new_match.span()));
    costs_moved |= old_match.operations != new_match.operations;
  }
  EXPECT_TRUE(costs_moved) << "the swap re-planned no cost the probe reads";
}

TEST_F(RebuildPathTest, AttributeReorderTakesTheFullPath) {
  // Without don't-cares D_0 is the unreferenced band on both attributes,
  // and A2 follows the event mass there from x to y and back.
  FilterEngine engine(schema_, adaptive_options(ValueOrder::kEventProbability));
  subscribe_profiles(engine, false);
  Rebuilds seen;
  for (int phase = 0; phase < 4; ++phase) {
    const Rebuilds part = drive(engine, regime_events(phase, 1500));
    seen.rank_only += part.rank_only;
    seen.full += part.full;
    seen.full_with_new_order += part.full_with_new_order;
  }
  EXPECT_GE(seen.full_with_new_order, 2u);
  EXPECT_EQ(seen.full, seen.full_with_new_order)
      << "a full rebuild with unchanged order and profiles";
}

TEST_F(RebuildPathTest, CombinedOrderAlwaysBuildsAfresh) {
  FilterEngine engine(schema_, adaptive_options(ValueOrder::kCombinedProbability));
  subscribe_profiles(engine, true);
  Rebuilds seen;
  for (int phase = 0; phase < 3; ++phase) {
    const Rebuilds part = drive(engine, regime_events(phase, 1500));
    seen.rank_only += part.rank_only;
    seen.full += part.full;
  }
  EXPECT_GE(seen.full, 3u);
  EXPECT_EQ(seen.rank_only, 0u);
}

TEST_F(RebuildPathTest, SubscribeForcesTheFullPath) {
  FilterEngine engine(schema_, adaptive_options(ValueOrder::kEventProbability));
  subscribe_profiles(engine, true);
  const Rebuilds warm = drive(engine, regime_events(0, 1500));
  EXPECT_GE(warm.rank_only, 1u);

  // An explicit rebuild right after a subscribe sees a live tree from the
  // old profile set: it must build afresh and include the new profile.
  const ProfileId added = engine.subscribe("x = 3");
  const std::uint64_t full_before = engine.full_build_count();
  engine.rebuild();
  EXPECT_EQ(engine.full_build_count(), full_before + 1);
  testutil::expect_same_tree(
      engine.tree(), build_tree(engine.profiles(), engine.policy(),
                                engine.effective_distribution()));
  EXPECT_EQ(engine.match(Event::from_indices(schema_, {3, 0})).matched,
            (std::vector<ProfileId>{added}));

  const Rebuilds after = drive(engine, regime_events(1, 1500));
  EXPECT_GE(after.rank_only, 1u);
  EXPECT_EQ(after.full, 0u);
}

TEST_F(FilterEngineTest, Validation) {
  EXPECT_THROW(FilterEngine(nullptr), Error);
  FilterEngine engine(schema_);
  const SchemaPtr other = testutil::example1_schema();
  EXPECT_THROW(engine.match(Event::from_indices(other, {0, 0, 0})), Error);
  EXPECT_THROW(engine.unsubscribe(42), Error);

  EngineOptions bad;
  bad.prior = JointDistribution::independent(
      other, {shapes::equal(81), shapes::equal(101), shapes::equal(100)});
  EXPECT_THROW(FilterEngine(schema_, bad), Error);
}

}  // namespace
}  // namespace genas
