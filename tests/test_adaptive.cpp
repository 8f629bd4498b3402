// Tests for the adaptive controller: drift detection, cooldown, rebuilds.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/adaptive_filter.hpp"
#include "dist/sampler.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

SchemaPtr schema2() {
  return SchemaBuilder()
      .add_integer("x", 0, 19)
      .add_integer("y", 0, 19)
      .build();
}

using testutil::event_stream;
using testutil::peak_joint;

TEST(AdaptiveController, NoRebuildBeforeMinObservations) {
  const SchemaPtr schema = schema2();
  AdaptiveOptions options;
  options.min_observations = 100;
  AdaptiveController controller(schema, options);
  const auto stream = event_stream(peak_joint(schema, false), 100, 1);
  for (int i = 0; i < 99; ++i) controller.observe(stream[i]);
  EXPECT_FALSE(controller.should_rebuild());
  controller.observe(stream[99]);
  EXPECT_TRUE(controller.should_rebuild());  // no baseline yet
}

TEST(AdaptiveController, DriftTriggersRebuildAfterRegimeChange) {
  const SchemaPtr schema = schema2();
  AdaptiveOptions options;
  options.min_observations = 200;
  options.rebuild_cooldown = 200;
  options.drift_threshold = 0.5;
  options.decay = 0.995;  // forget the old regime
  AdaptiveController controller(schema, options);

  for (const Event& e : event_stream(peak_joint(schema, false), 500, 1)) {
    controller.observe(e);
  }
  controller.mark_rebuilt(controller.estimate());
  EXPECT_LT(controller.drift(), 0.2);
  EXPECT_FALSE(controller.should_rebuild());

  // Regime change: mass moves to the other end of x.
  for (const Event& e : event_stream(peak_joint(schema, true), 1500, 2)) {
    controller.observe(e);
  }
  EXPECT_GT(controller.drift(), 0.5);
  EXPECT_TRUE(controller.should_rebuild());

  controller.mark_rebuilt(controller.estimate());
  EXPECT_EQ(controller.rebuilds(), 2u);
  EXPECT_FALSE(controller.should_rebuild());  // cooldown + low drift
}

TEST(AdaptiveController, DriftEqualsL1OfTheMaterializedEstimateExactly) {
  // drift() folds the estimate into the L1 sum without building it; it must
  // agree to the last bit with the materialized form, or rebuild points
  // (and so ops/event) would move. decay 0.95 over 6,000 events also crosses
  // the histogram's lazy renormalization.
  const SchemaPtr schema = schema2();
  AdaptiveOptions options;
  options.decay = 0.95;
  options.smoothing = 0.3;
  AdaptiveController controller(schema, options);
  const auto reference_drift = [&](const JointDistribution& baseline) {
    const JointDistribution estimate = controller.estimate();
    double worst = 0.0;
    for (AttributeId id = 0; id < schema->attribute_count(); ++id) {
      worst = std::max(worst, DiscreteDistribution::l1_distance(
                                  estimate.marginal(id), baseline.marginal(id)));
    }
    return worst;
  };

  // A mixture baseline: its marginals are re-normalized mixtures.
  std::vector<DiscreteDistribution> low;
  std::vector<DiscreteDistribution> high;
  for (AttributeId id = 0; id < schema->attribute_count(); ++id) {
    low.push_back(peak_joint(schema, false).marginal(id));
    high.push_back(peak_joint(schema, true).marginal(id));
  }
  JointDistribution baseline =
      JointDistribution::mixture(schema, {low, high}, {0.3, 0.7});
  controller.mark_rebuilt(baseline);
  std::vector<Event> stream = event_stream(peak_joint(schema, false), 3000, 5);
  const std::vector<Event> second = event_stream(peak_joint(schema, true), 3000, 6);
  stream.insert(stream.end(), second.begin(), second.end());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    controller.observe(stream[i]);
    if (i == 2000) {
      baseline = controller.estimate();
      controller.mark_rebuilt(baseline);
    }
    ASSERT_EQ(controller.drift(), reference_drift(baseline)) << "event " << i;
  }
}

TEST(AdaptiveController, CooldownSuppressesThrashing) {
  const SchemaPtr schema = schema2();
  AdaptiveOptions options;
  options.min_observations = 10;
  options.rebuild_cooldown = 1000;
  options.drift_threshold = 0.0;  // always "drifted"
  AdaptiveController controller(schema, options);
  const auto stream = event_stream(peak_joint(schema, false), 550, 3);
  for (int i = 0; i < 50; ++i) controller.observe(stream[i]);
  controller.mark_rebuilt(controller.estimate());
  for (int i = 50; i < 550; ++i) controller.observe(stream[i]);
  EXPECT_FALSE(controller.should_rebuild()) << "cooldown must hold";
}

TEST(AdaptiveController, EstimateTracksObservedMarginals) {
  const SchemaPtr schema = schema2();
  AdaptiveController controller(schema, {});
  for (const Event& e : event_stream(peak_joint(schema, true), 3000, 4)) {
    controller.observe(e);
  }
  const JointDistribution estimate = controller.estimate();
  EXPECT_GT(estimate.marginal(0).mass(Interval{16, 19}), 0.8);
  EXPECT_EQ(controller.observations(), 3000u);
}

}  // namespace
}  // namespace genas
