// Tests for the ENS broker: subscriptions, delivery, counters, statistics,
// drain hooks, and the adaptive-vs-static delivery oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/sampler.hpp"
#include "ens/broker.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

class BrokerTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = testutil::example1_schema();
  Broker broker_{schema_};
};

TEST_F(BrokerTest, DeliversToMatchingSubscribers) {
  std::vector<SubscriptionId> fired;
  const SubscriptionId hot = broker_.subscribe(
      "temperature >= 35",
      [&](const Notification& n) { fired.push_back(n.subscription); });
  const SubscriptionId wet = broker_.subscribe(
      "humidity >= 90",
      [&](const Notification& n) { fired.push_back(n.subscription); });
  broker_.subscribe("humidity <= 5", [&](const Notification& n) {
    fired.push_back(n.subscription);
  });

  const PublishResult result =
      broker_.publish("temperature = 40; humidity = 95; radiation = 1");
  EXPECT_EQ(result.notified, 2u);
  EXPECT_EQ(testutil::sorted(std::vector<ProfileId>(
                {static_cast<ProfileId>(fired[0]),
                 static_cast<ProfileId>(fired[1])})),
            testutil::sorted({static_cast<ProfileId>(hot),
                              static_cast<ProfileId>(wet)}));
}

TEST_F(BrokerTest, NotificationCarriesTheEvent) {
  Value seen_temp(0);
  broker_.subscribe("temperature >= 35", [&](const Notification& n) {
    seen_temp = n.event.value("temperature");
  });
  broker_.publish("temperature = 42; humidity = 1; radiation = 1");
  EXPECT_EQ(seen_temp.as_int(), 42);
}

TEST_F(BrokerTest, UnsubscribeStopsDelivery) {
  int fired = 0;
  const SubscriptionId id = broker_.subscribe(
      "temperature >= 35", [&](const Notification&) { ++fired; });
  broker_.publish("temperature = 40; humidity = 0; radiation = 1");
  broker_.unsubscribe(id);
  broker_.publish("temperature = 40; humidity = 0; radiation = 1");
  EXPECT_EQ(fired, 1);
  EXPECT_THROW(broker_.unsubscribe(id), Error);
  EXPECT_EQ(broker_.subscription_count(), 0u);
}

TEST_F(BrokerTest, CountersAggregate) {
  broker_.subscribe("temperature >= 35", [](const Notification&) {});
  broker_.publish("temperature = 40; humidity = 0; radiation = 1");
  broker_.publish("temperature = 0; humidity = 0; radiation = 1");  // miss
  const ServiceCounters counters = broker_.counters();
  EXPECT_EQ(counters.events_published, 2u);
  EXPECT_EQ(counters.events_matched, 1u);
  EXPECT_EQ(counters.notifications, 1u);
  EXPECT_GT(counters.operations, 0u);
  EXPECT_DOUBLE_EQ(counters.match_rate(), 0.5);
  EXPECT_GT(counters.ops_per_event(), 0.0);
}

TEST_F(BrokerTest, CallbacksMayResubscribe) {
  // Callbacks run outside the broker lock: re-entrant subscribe is legal.
  int fired = 0;
  broker_.subscribe("temperature >= 35", [&](const Notification&) {
    ++fired;
    if (fired == 1) {
      broker_.subscribe("humidity >= 90", [&](const Notification&) {});
    }
  });
  EXPECT_NO_THROW(
      broker_.publish("temperature = 40; humidity = 0; radiation = 1"));
  EXPECT_EQ(broker_.subscription_count(), 2u);
}

TEST_F(BrokerTest, ProfileStatisticsReflectSubscriptions) {
  broker_.subscribe("humidity >= 99", [](const Notification&) {});
  broker_.subscribe("humidity >= 99", [](const Notification&) {});
  const ProfileStatistics stats = broker_.profile_statistics();
  EXPECT_EQ(stats.constrained_profiles(schema_->id_of("humidity")), 2u);
  EXPECT_DOUBLE_EQ(stats.reference_count(schema_->id_of("humidity"), 99), 2.0);
  EXPECT_DOUBLE_EQ(stats.reference_count(schema_->id_of("humidity"), 42), 0.0);
  EXPECT_EQ(stats.operator_count(Op::kGe), 2u);
}

TEST_F(BrokerTest, ConcurrentPublishersAreSerialized) {
  std::atomic<int> fired{0};
  broker_.subscribe("temperature >= 0", [&](const Notification&) { ++fired; });
  constexpr int kPerThread = 200;
  const auto worker = [&] {
    for (int i = 0; i < kPerThread; ++i) {
      broker_.publish("temperature = 10; humidity = 5; radiation = 1");
    }
  };
  std::thread t1(worker);
  std::thread t2(worker);
  t1.join();
  t2.join();
  EXPECT_EQ(fired.load(), 2 * kPerThread);
  EXPECT_EQ(broker_.counters().events_published,
            static_cast<std::uint64_t>(2 * kPerThread));
}

TEST_F(BrokerTest, Validation) {
  EXPECT_THROW(broker_.subscribe("temperature >= 35", nullptr), Error);
  EXPECT_THROW(Broker(nullptr), Error);
}

TEST_F(BrokerTest, PublishBatchMatchesSinglePublishes) {
  Broker single(schema_);
  std::vector<std::pair<SubscriptionId, Timestamp>> batch_seen, single_seen;
  for (Broker* broker : {&broker_, &single}) {
    auto* seen = broker == &broker_ ? &batch_seen : &single_seen;
    broker->subscribe("temperature >= 35", [seen](const Notification& n) {
      seen->emplace_back(n.subscription, n.event.time());
    });
    broker->subscribe("humidity >= 90", [seen](const Notification& n) {
      seen->emplace_back(n.subscription, n.event.time());
    });
  }

  std::vector<Event> events;
  for (Timestamp t = 0; t < 8; ++t) {
    events.push_back(Event::from_pairs(
        schema_,
        {{"temperature", 30 + 2 * t}, {"humidity", 88 + t}, {"radiation", 1}},
        t));
  }

  const BatchPublishResult batch = broker_.publish_batch(events);
  std::size_t single_notified = 0;
  std::uint64_t single_operations = 0;
  std::size_t single_matched_events = 0;
  for (const Event& event : events) {
    const PublishResult result = single.publish(event);
    single_notified += result.notified;
    single_operations += result.operations;
    if (result.notified > 0) ++single_matched_events;
  }

  EXPECT_EQ(batch.events, events.size());
  EXPECT_EQ(batch.notified, single_notified);
  EXPECT_EQ(batch.operations, single_operations);
  EXPECT_EQ(batch.matched_events, single_matched_events);
  EXPECT_EQ(batch_seen, single_seen);

  const ServiceCounters counters = broker_.counters();
  EXPECT_EQ(counters.events_published, events.size());
  EXPECT_EQ(counters.notifications, batch.notified);
  EXPECT_EQ(counters.operations, batch.operations);

  EXPECT_EQ(broker_.publish_batch({}).events, 0u);
}

TEST_F(BrokerTest, PublishBatchDrainsNotificationsOutsideLock) {
  // A callback fired from a batch may re-enter the broker (subscribe or
  // even publish another batch) without deadlocking.
  int fired = 0;
  broker_.subscribe("temperature >= 35", [&](const Notification&) {
    if (++fired == 1) {
      broker_.subscribe("humidity >= 90", [](const Notification&) {});
      broker_.publish("temperature = 36; humidity = 0; radiation = 1");
    }
  });
  std::vector<Event> events = {
      Event::from_pairs(schema_, {{"temperature", 40},
                                  {"humidity", 0},
                                  {"radiation", 1}})};
  const BatchPublishResult result = broker_.publish_batch(events);
  EXPECT_EQ(result.notified, 1u);
  EXPECT_EQ(fired, 2);  // re-entrant publish delivered too
  EXPECT_EQ(broker_.subscription_count(), 2u);
}

TEST_F(BrokerTest, PublishBatchWithAdaptiveEngineStillDelivers) {
  EngineOptions options;
  AdaptiveOptions adaptive;
  adaptive.min_observations = 4;
  adaptive.rebuild_cooldown = 4;
  options.adaptive = adaptive;
  Broker broker(schema_, options);
  int fired = 0;
  broker.subscribe("temperature >= 35", [&](const Notification&) { ++fired; });

  std::vector<Event> events;
  for (int i = 0; i < 16; ++i) {
    events.push_back(Event::from_pairs(
        schema_,
        {{"temperature", 40}, {"humidity", i % 100}, {"radiation", 1}}));
  }
  const BatchPublishResult result = broker.publish_batch(events);
  EXPECT_EQ(result.notified, 16u);
  EXPECT_EQ(fired, 16);
  EXPECT_EQ(broker.counters().events_published, 16u);
}

// --- drain hooks ------------------------------------------------------------

TEST_F(BrokerTest, DrainHookRunsOncePerPublishAfterEveryCallback) {
  // The hook is the broker-wide end-of-publish boundary: exactly one call
  // per publish/publish_batch, after the last callback of that call, even
  // when nothing matched — on the static and the adaptive match path alike.
  EngineOptions adaptive_options;
  adaptive_options.adaptive = AdaptiveOptions{};
  Broker adaptive(schema_, adaptive_options);
  for (Broker* broker : {&broker_, &adaptive}) {
    std::vector<std::string> log;
    broker->subscribe("temperature >= 35",
                      [&](const Notification&) { log.push_back("hot"); });
    broker->subscribe("humidity >= 90",
                      [&](const Notification&) { log.push_back("wet"); });
    broker->add_drain_hook([&] { log.push_back("drain"); });

    broker->publish("temperature = 40; humidity = 95; radiation = 1");
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log.back(), "drain");

    log.clear();
    broker->publish("temperature = 0; humidity = 0; radiation = 1");  // miss
    EXPECT_EQ(log, (std::vector<std::string>{"drain"}));

    log.clear();
    Event event = parse_event(schema_, "temperature = 40; humidity = 95; "
                                       "radiation = 1");
    broker->publish(event, 7);  // tokened publish: same contract
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log.back(), "drain");

    log.clear();
    const std::vector<Event> events(3, event);
    broker->publish_batch(events);
    ASSERT_EQ(log.size(), 7u);  // six callbacks, then one drain
    EXPECT_EQ(std::count(log.begin(), log.end(), "drain"), 1);
    EXPECT_EQ(log.back(), "drain");
  }
}

TEST_F(BrokerTest, DrainHookMayReenterPublish) {
  int delivered = 0;
  int drains = 0;
  broker_.subscribe("temperature >= 35",
                    [&](const Notification&) { ++delivered; });
  broker_.add_drain_hook([&] {
    if (++drains == 1) {
      broker_.publish("temperature = 41; humidity = 0; radiation = 1");
    }
  });
  broker_.publish("temperature = 40; humidity = 0; radiation = 1");
  EXPECT_EQ(delivered, 2);  // the re-entrant publish delivered too
  EXPECT_EQ(drains, 2);     // and ran the hook for itself
}

TEST_F(BrokerTest, DrainHookValidation) {
  const DrainHookId id = broker_.add_drain_hook([] {});
  broker_.remove_drain_hook(id);
  try {
    broker_.remove_drain_hook(id);
    FAIL() << "removing an unknown drain hook must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound) << e.what();
  }
  try {
    broker_.add_drain_hook(nullptr);
    FAIL() << "a null drain hook must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
  }
}

// --- adaptive vs static oracle ----------------------------------------------

namespace {

/// Adaptive options that rebuild within a few hundred events of a drift.
EngineOptions drifting_adaptive_options() {
  EngineOptions options;
  options.policy.value_order = ValueOrder::kEventProbability;
  AdaptiveOptions adaptive;
  adaptive.min_observations = 64;
  adaptive.rebuild_cooldown = 64;
  adaptive.decay = 0.98;
  options.adaptive = adaptive;
  return options;
}

/// A seeded stream whose temperature distribution flips between a high and
/// a low peak every `phase` events; event i carries time i.
std::vector<Event> flipping_stream(const SchemaPtr& schema, std::size_t count,
                                   std::size_t phase, std::uint64_t seed) {
  EventSampler high(testutil::peak_joint(schema, true), seed);
  EventSampler low(testutil::peak_joint(schema, false), seed + 1);
  std::vector<Event> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Event event = (i / phase) % 2 == 0 ? high.sample() : low.sample();
    event.set_time(static_cast<Timestamp>(i));
    events.push_back(std::move(event));
  }
  return events;
}

using DeliveryLog = std::vector<std::pair<SubscriptionId, Timestamp>>;

}  // namespace

TEST_F(BrokerTest, AdaptiveBrokerDeliversExactlyLikeStaticUnderChurn) {
  // The adaptive and static brokers share one publish body and differ only
  // in how they match; the paper's invariant is that restructuring the tree
  // changes the cost, never the result. Identical subscribe/unsubscribe
  // churn, a self-unsubscribing callback, and a mix of single and batch
  // publishes must produce identical delivery sequences.
  Broker adaptive(schema_, drifting_adaptive_options());
  Broker& reference = broker_;
  const std::vector<Event> stream = flipping_stream(schema_, 3000, 250, 5);

  std::vector<DeliveryLog> logs(2);
  std::vector<Broker*> brokers{&adaptive, &reference};
  const auto recorder = [](DeliveryLog* log) {
    return [log](const Notification& n) {
      log->emplace_back(n.subscription, n.event.time());
    };
  };
  std::vector<std::shared_ptr<SubscriptionId>> self_ids;
  for (std::size_t b = 0; b < brokers.size(); ++b) {
    // Delivered to once per remaining delivery of the call that matched
    // it first, then gone: it unsubscribes itself mid-drain.
    auto self = std::make_shared<SubscriptionId>(0);
    Broker* broker = brokers[b];
    DeliveryLog* log = &logs[b];
    *self = broker->subscribe(
        "temperature >= 45", [broker, log, self](const Notification& n) {
          log->emplace_back(n.subscription, n.event.time());
          if (*self != 0) {
            broker->unsubscribe(*self);
            *self = 0;
          }
        });
    self_ids.push_back(self);
  }

  Rng rng(23);
  std::vector<SubscriptionId> live;
  std::size_t next = 0;
  while (next < stream.size()) {
    if (live.size() < 6 || rng.chance(0.4)) {
      const std::string expression =
          rng.chance(0.5)
              ? "temperature >= " + std::to_string(rng.range(-30, 50))
              : "temperature <= " + std::to_string(rng.range(-30, 50)) +
                    " && humidity >= " + std::to_string(rng.range(0, 100));
      SubscriptionId id = 0;
      for (std::size_t b = 0; b < brokers.size(); ++b) {
        id = brokers[b]->subscribe(expression, recorder(&logs[b]));
      }
      live.push_back(id);
    } else if (rng.chance(0.3)) {
      const std::size_t pick = rng.below(live.size());
      for (Broker* broker : brokers) broker->unsubscribe(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    const std::size_t n =
        std::min<std::size_t>(rng.chance(0.5) ? 1 : 1 + rng.below(40),
                              stream.size() - next);
    const std::span<const Event> chunk(stream.data() + next, n);
    for (Broker* broker : brokers) {
      if (n == 1) {
        broker->publish(chunk[0]);
      } else {
        broker->publish_batch(chunk);
      }
    }
    next += n;
  }

  EXPECT_EQ(*self_ids[0], 0u);  // the self-unsubscriber fired and left
  EXPECT_GT(adaptive.metrics().snapshot().value(
                "genas_broker_adaptive_rebuilds_total"),
            1);
  ASSERT_FALSE(logs[1].empty());
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(adaptive.counters().notifications,
            reference.counters().notifications);
  EXPECT_EQ(adaptive.counters().events_matched,
            reference.counters().events_matched);
}

TEST_F(BrokerTest, ConcurrentAdaptivePublishersMatchStaticReference) {
  // Three publisher threads drive one adaptive broker (matching lock-free,
  // observing serialized) across drift rebuilds; the delivery multiset must
  // equal a static broker's over the same events, and every rebuild after
  // the first snapshot must be a rank-only cost-slab swap.
  Broker adaptive(schema_, drifting_adaptive_options());
  const std::vector<Event> stream = flipping_stream(schema_, 6000, 300, 9);
  const std::vector<std::string> expressions{
      "temperature >= 35", "temperature <= -10", "humidity >= 90",
      "temperature >= 0 && humidity <= 20", "radiation >= 50"};

  std::mutex mutex;
  DeliveryLog concurrent;
  DeliveryLog expected;
  for (const std::string& expression : expressions) {
    adaptive.subscribe(expression, [&](const Notification& n) {
      const std::scoped_lock lock(mutex);
      concurrent.emplace_back(n.subscription, n.event.time());
    });
    broker_.subscribe(expression, [&](const Notification& n) {
      expected.emplace_back(n.subscription, n.event.time());
    });
  }
  broker_.publish_batch(stream);

  // Warm-up: the first publish builds the tree; this event matches nothing.
  adaptive.publish(Event::from_pairs(
      schema_, {{"temperature", 20}, {"humidity", 50}, {"radiation", 10}}));
  const auto value = [&](std::string_view name) {
    return adaptive.metrics().snapshot().value(name);
  };
  const std::int64_t full_builds = value("genas_broker_full_tree_builds_total");
  EXPECT_EQ(full_builds, 1);

  constexpr std::size_t kThreads = 3;
  std::vector<std::thread> publishers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    publishers.emplace_back([&, t] {
      // Thread t owns events t, t + 3, ...; odd threads batch them.
      std::vector<Event> mine;
      for (std::size_t i = t; i < stream.size(); i += kThreads) {
        mine.push_back(stream[i]);
      }
      for (std::size_t i = 0; i < mine.size(); i += 16) {
        const std::size_t n = std::min<std::size_t>(16, mine.size() - i);
        if (t % 2 == 1) {
          adaptive.publish_batch(std::span<const Event>(mine).subspan(i, n));
        } else {
          for (std::size_t k = i; k < i + n; ++k) adaptive.publish(mine[k]);
        }
      }
    });
  }
  for (std::thread& publisher : publishers) publisher.join();

  EXPECT_GT(value("genas_broker_adaptive_rebuilds_total"), 1);
  EXPECT_EQ(value("genas_broker_full_tree_builds_total"), full_builds)
      << "a drift rebuild took the full path";
  ASSERT_FALSE(expected.empty());
  std::sort(concurrent.begin(), concurrent.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(concurrent, expected);
}

TEST_F(BrokerTest, AdaptiveTreeDumpAfterDriftEqualsFreshBuild) {
  // A rank-only rebuild publishes only a cost slab; tree_dump() must still
  // show the node form a fresh build under the rebuild's distribution has.
  // A FilterEngine with the same options, fed the same events, rebuilds at
  // the same points and exposes that distribution.
  Broker adaptive(schema_, drifting_adaptive_options());
  FilterEngine mirror(schema_, drifting_adaptive_options());
  for (const std::string expression :
       {"temperature >= 35", "temperature <= -10 && humidity >= 50",
        "humidity >= 90", "radiation <= 20"}) {
    adaptive.subscribe(expression, [](const Notification&) {});
    mirror.subscribe(expression);
  }

  // The first publish builds the broker's first snapshot (reported as a
  // rebuild); the mirror builds lazily. Both observe the event.
  const std::vector<Event> stream = flipping_stream(schema_, 2000, 250, 31);
  adaptive.publish(stream[0]);
  mirror.match(stream[0]);
  std::size_t compared = 0;
  for (const Event& event : std::span<const Event>(stream).subspan(1)) {
    const bool rebuilt = adaptive.publish(event).rebuilt;
    ASSERT_EQ(mirror.match(event).rebuilt, rebuilt) << event.to_string();
    if (!rebuilt) continue;
    ++compared;
    EXPECT_EQ(adaptive.tree_dump(),
              build_tree(mirror.profiles(), mirror.policy(),
                         mirror.adaptive()->estimate())
                  .dump());
  }
  EXPECT_GE(compared, 2u);
  EXPECT_EQ(adaptive.metrics().snapshot().value(
                "genas_broker_full_tree_builds_total"),
            1);
}

TEST_F(BrokerTest, BatchSurvivesReentrantSubscribeAndPublishMidDrain) {
  // Regression: publish_batch used to scope its snapshot handle inside the
  // matching block while the drain dereferenced raw pointers into it — a
  // callback that subscribes (bumping the version) and then publishes
  // (refreshing the thread-local cache, the only other owner) freed the
  // snapshot under the remaining deliveries.
  int follower_fired = 0;
  bool reentered = false;
  broker_.subscribe("temperature >= 35", [&](const Notification&) {
    if (reentered) return;
    reentered = true;
    broker_.subscribe("humidity <= 100", [](const Notification&) {});
    broker_.publish("temperature = 10; humidity = 1; radiation = 1");
  });
  broker_.subscribe("temperature >= 30",
                    [&](const Notification&) { ++follower_fired; });

  std::vector<Event> events;
  events.push_back(Event::from_pairs(
      schema_, {{"temperature", 40}, {"humidity", 0}, {"radiation", 1}}));
  const BatchPublishResult result = broker_.publish_batch(events);
  EXPECT_EQ(result.notified, 2u);
  EXPECT_EQ(follower_fired, 1);
  EXPECT_EQ(broker_.subscription_count(), 3u);
}

TEST_F(BrokerTest, OuterBatchKeepsItsSnapshotAcrossNestedPublishes) {
  // The outermost publish borrows the thread's cached snapshot. A callback
  // that subscribes (bumping the version) and then publishes re-entrantly
  // — into this broker and into more brokers than the thread caches — must
  // leave that snapshot alone: the rest of the outer batch is still
  // delivered from it, and the next publish sees the new subscription.
  std::vector<std::unique_ptr<Broker>> others;
  int others_fired = 0;
  for (int i = 0; i < 12; ++i) {
    others.push_back(std::make_unique<Broker>(schema_));
    others.back()->subscribe("temperature >= 0",
                             [&](const Notification&) { ++others_fired; });
  }
  std::vector<std::int64_t> hot_temperatures;
  int late_fired = 0;
  int nested_publishes = 0;
  broker_.subscribe("temperature >= 35", [&](const Notification& n) {
    hot_temperatures.push_back(n.event.value("temperature").as_int());
    if (hot_temperatures.size() != 1) return;
    broker_.subscribe("humidity >= 0", [&](const Notification&) { ++late_fired; });
    broker_.publish("temperature = 10; humidity = 1; radiation = 1");
    for (const auto& other : others) {
      other->publish("temperature = 20; humidity = 1; radiation = 1");
    }
    ++nested_publishes;
  });
  int drains = 0;
  broker_.add_drain_hook([&] { ++drains; });

  std::vector<Event> events;
  for (const std::int64_t t : {40, 10, 45, 50}) {
    events.push_back(Event::from_pairs(
        schema_, {{"temperature", t}, {"humidity", 0}, {"radiation", 1}}));
  }
  const BatchPublishResult result = broker_.publish_batch(events);
  EXPECT_EQ(nested_publishes, 1);
  EXPECT_EQ(result.notified, 3u);  // the snapshot taken before subscribing
  EXPECT_EQ(hot_temperatures, (std::vector<std::int64_t>{40, 45, 50}));
  EXPECT_EQ(late_fired, 1);        // only the nested publish saw it
  EXPECT_EQ(others_fired, 12);
  EXPECT_EQ(drains, 2);            // nested, then outer

  const PublishResult next =
      broker_.publish("temperature = 40; humidity = 1; radiation = 1");
  EXPECT_EQ(next.notified, 2u);
  EXPECT_EQ(late_fired, 2);
  EXPECT_EQ(drains, 3);
}

}  // namespace
}  // namespace genas
