// Tests for the observability layer: registry counter/gauge/histogram
// oracles (multi-threaded totals equal a serial recount), trace-sampled
// event-path latencies bounded by the wall-clock envelope, the
// kStatsRequest/kStatsSnapshot wire frames (round trip plus the same
// truncation/byte-flip hostility every other frame gets), the Prometheus
// exposition shape, and the end-to-end scrape path: BrokerServer serves a
// snapshot to RemoteBrokerClient::stats() with broker, composite, and
// socket metrics in it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ens/broker.hpp"
#include "mesh/mesh.hpp"
#include "net/broker_server.hpp"
#include "net/remote_client.hpp"
#include "net/socket_channel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "profile/parser.hpp"
#include "test_util.hpp"
#include "wire/codec.hpp"

namespace genas {
namespace {

using Frame = std::vector<std::uint8_t>;

bool eventually(const std::function<bool()>& condition,
                std::chrono::milliseconds budget =
                    std::chrono::milliseconds{5000}) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  return condition();
}

void expect_parse_failure(const Frame& frame, const std::string& context) {
  try {
    wire::decode_message(frame, nullptr);
    FAIL() << context << ": malformed frame decoded without error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse) << context << ": " << e.what();
  }
}

// ---------------------------------------------------------------------------
// Registry oracle: concurrent totals equal the serial recount.

TEST(ObsRegistry, ConcurrentCountersAndHistogramsMatchSerialRecount) {
  obs::Registry registry;
  obs::Counter counter = registry.counter("ops_total");
  obs::Gauge gauge = registry.gauge("depth");
  const std::uint64_t bounds[] = {10, 100, 1000};
  obs::Histogram histogram = registry.histogram("latency", bounds);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        counter.add(1 + (i % 3));          // serial recount: sum of 1,2,3,...
        histogram.observe((t * 131 + i * 7) % 2000);
        gauge.update_max(static_cast<std::int64_t>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Serial recount of exactly the same sequence of operations.
  std::uint64_t expected_count = 0;
  std::uint64_t expected_sum = 0;
  std::uint64_t expected_buckets[4] = {0, 0, 0, 0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      expected_count += 1 + (i % 3);
      const std::uint64_t v = (t * 131 + i * 7) % 2000;
      expected_sum += v;
      if (v <= 10) ++expected_buckets[0];
      else if (v <= 100) ++expected_buckets[1];
      else if (v <= 1000) ++expected_buckets[2];
      else ++expected_buckets[3];
    }
  }

  EXPECT_EQ(counter.value(), expected_count);
  EXPECT_EQ(gauge.value(),
            static_cast<std::int64_t>(kPerThread - 1));

  const obs::StatsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.value("ops_total"),
            static_cast<std::int64_t>(expected_count));
  const obs::MetricSnapshot* hist = snapshot.find("latency");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->counts.size(), 4u);  // 3 bounds + the implicit +Inf
  EXPECT_EQ(hist->count(), kThreads * kPerThread);
  EXPECT_EQ(hist->sum, expected_sum);
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(hist->counts[b], expected_buckets[b]) << "bucket " << b;
  }
}

TEST(ObsRegistry, KindAndBucketMismatchesThrow) {
  obs::Registry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), Error);
  const std::uint64_t bounds[] = {1, 2};
  EXPECT_THROW(registry.histogram("x", bounds), Error);

  registry.histogram("h", bounds);
  const std::uint64_t other[] = {1, 3};
  EXPECT_THROW(registry.histogram("h", other), Error);
  EXPECT_NO_THROW(registry.histogram("h", bounds));  // identical re-register

  const std::uint64_t unsorted[] = {5, 3};
  EXPECT_THROW(registry.histogram("bad", unsorted), Error);
  const std::uint64_t duplicate[] = {3, 3};
  EXPECT_THROW(registry.histogram("dup", duplicate), Error);
  EXPECT_THROW(registry.histogram("empty", {}), Error);
  std::vector<std::uint64_t> too_many(obs::kMaxHistogramBuckets + 1);
  for (std::size_t i = 0; i < too_many.size(); ++i) too_many[i] = i + 1;
  EXPECT_THROW(registry.histogram("wide", too_many), Error);
}

TEST(ObsRegistry, LabelsDecorateAndMergeAcrossRegistries) {
  obs::Registry node0("node=\"0\"");
  obs::Registry node1("node=\"1\"");
  node0.counter("genas_x_total").add(3);
  node1.counter("genas_x_total").add(5);
  // A name that already carries labels gets the registry labels prepended.
  node0.counter("genas_y_total{peer=\"7\"}").add(11);

  obs::StatsSnapshot merged = node0.snapshot();
  merged.merge(node1.snapshot());
  EXPECT_EQ(merged.value("genas_x_total{node=\"0\"}"), 3);
  EXPECT_EQ(merged.value("genas_x_total{node=\"1\"}"), 5);
  EXPECT_EQ(merged.value("genas_y_total{node=\"0\",peer=\"7\"}"), 11);
}

TEST(ObsRegistry, QuantileInterpolatesWithinBuckets) {
  obs::Registry registry;
  const std::uint64_t bounds[] = {100, 200, 400};
  obs::Histogram histogram = registry.histogram("q", bounds);
  for (int i = 0; i < 100; ++i) histogram.observe(50);    // (0, 100]
  for (int i = 0; i < 100; ++i) histogram.observe(150);   // (100, 200]
  const obs::StatsSnapshot snapshot = registry.snapshot();
  const obs::MetricSnapshot* snap = snapshot.find("q");
  ASSERT_NE(snap, nullptr);
  // p25 sits mid-first-bucket, p75 mid-second; p100 at the top of the
  // highest occupied bucket.
  EXPECT_NEAR(obs::quantile(*snap, 0.25), 50.0, 1.0);
  EXPECT_NEAR(obs::quantile(*snap, 0.75), 150.0, 1.0);
  EXPECT_NEAR(obs::quantile(*snap, 1.0), 200.0, 1.0);
  EXPECT_EQ(obs::quantile(obs::MetricSnapshot{}, 0.5), 0.0);
}

TEST(ObsTrace, SamplerHonorsPeriod) {
  obs::TraceSampler off(0);
  std::uint32_t countdown = 0;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(off.sample(countdown));

  obs::TraceSampler every(1);
  countdown = 0;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(every.sample(countdown));

  obs::TraceSampler fourth(4);
  countdown = 0;
  int sampled = 0;
  for (int i = 0; i < 400; ++i) sampled += fourth.sample(countdown) ? 1 : 0;
  EXPECT_EQ(sampled, 100);
}

// ---------------------------------------------------------------------------
// Broker instrumentation: counters agree with the service counters, and
// trace-sampled latencies fit inside the wall-clock envelope of the run.

TEST(ObsBroker, MetricsAgreeWithServiceCounters) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  std::atomic<int> notified{0};
  broker.subscribe("temperature >= 35",
                   [&](const Notification&) { ++notified; });

  for (int i = 0; i < 50; ++i) {
    broker.publish("temperature = " + std::to_string(i % 50) +
                   "; humidity = 50; radiation = 1");
  }

  const ServiceCounters counters = broker.counters();
  const obs::StatsSnapshot snapshot = broker.metrics().snapshot();
  EXPECT_EQ(snapshot.value("genas_broker_events_published_total"), 50);
  EXPECT_EQ(
      static_cast<std::uint64_t>(
          snapshot.value("genas_broker_events_published_total")),
      counters.events_published);
  EXPECT_EQ(static_cast<std::uint64_t>(
                snapshot.value("genas_broker_notifications_total")),
            counters.notifications);
  EXPECT_EQ(snapshot.value("genas_broker_notifications_total"),
            notified.load());
  EXPECT_GT(snapshot.value("genas_broker_filter_operations_total"), 0);
}

TEST(ObsBroker, SampledLatenciesFitTheWallClockEnvelope) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  broker.set_trace_period(1);  // trace every publish
  broker.subscribe("temperature >= 0", [](const Notification&) {});

  const std::uint64_t start = obs::now_ns();
  constexpr int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) {
    broker.publish("temperature = 10; humidity = 1; radiation = 1");
  }
  const std::uint64_t elapsed = obs::now_ns() - start;

  const obs::StatsSnapshot snapshot = broker.metrics().snapshot();
  const obs::MetricSnapshot* match =
      snapshot.find("genas_broker_match_latency_ns");
  const obs::MetricSnapshot* delivery =
      snapshot.find("genas_broker_delivery_latency_ns");
  ASSERT_NE(match, nullptr);
  ASSERT_NE(delivery, nullptr);
  EXPECT_EQ(match->count(), static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(delivery->count(), static_cast<std::uint64_t>(kEvents));
  // Each sampled interval is a disjoint slice of the publish loop, so the
  // sums cannot exceed the loop's wall-clock envelope.
  EXPECT_LE(match->sum, elapsed);
  EXPECT_LE(delivery->sum, elapsed);
  EXPECT_GE(delivery->sum, match->sum);  // delivery spans match
}

TEST(ObsBroker, AdaptiveRebuildPausesAndFullBuildsAreExported) {
  // Every rebuild, snapshot or adaptive, records one pause; only a build
  // from scratch counts as a full tree build. V1 in schema order keeps the
  // tree's shape, so drift rebuilds re-rank until a subscribe changes the
  // profile set.
  const SchemaPtr schema = testutil::example1_schema();
  EngineOptions options;
  options.policy.value_order = ValueOrder::kEventProbability;
  AdaptiveOptions adaptive;
  adaptive.min_observations = 64;
  adaptive.rebuild_cooldown = 64;
  adaptive.decay = 0.98;
  options.adaptive = adaptive;
  Broker broker(schema, options);
  broker.subscribe("temperature >= 35", [](const Notification&) {});
  broker.subscribe("temperature <= -10 && humidity >= 50",
                   [](const Notification&) {});

  const auto publish_drift = [&](std::uint64_t seed) {
    for (const bool high : {true, false, true, false}) {
      for (const Event& event :
           testutil::event_stream(testutil::peak_joint(schema, high), 400, seed++)) {
        broker.publish(event);
      }
    }
  };
  const auto value = [&](std::string_view name) {
    return broker.metrics().snapshot().value(name);
  };
  const auto pauses = [&] {
    const obs::StatsSnapshot snapshot = broker.metrics().snapshot();
    const obs::MetricSnapshot* pause = snapshot.find("genas_broker_rebuild_pause_ns");
    return pause == nullptr ? std::uint64_t{0} : pause->count();
  };

  publish_drift(1);
  const std::int64_t drift_rebuilds = value("genas_broker_adaptive_rebuilds_total");
  EXPECT_GE(drift_rebuilds, 3);
  EXPECT_EQ(pauses(), static_cast<std::uint64_t>(
                          value("genas_broker_snapshot_rebuilds_total") + drift_rebuilds));
  EXPECT_EQ(value("genas_broker_full_tree_builds_total"), 1);  // the first snapshot

  broker.subscribe("humidity >= 90", [](const Notification&) {});
  publish_drift(11);
  EXPECT_GT(value("genas_broker_adaptive_rebuilds_total"), drift_rebuilds);
  EXPECT_EQ(pauses(), static_cast<std::uint64_t>(
                          value("genas_broker_snapshot_rebuilds_total") +
                          value("genas_broker_adaptive_rebuilds_total")));
  EXPECT_EQ(value("genas_broker_full_tree_builds_total"), 2);
}

TEST(ObsBroker, CompositeMetricsTrackDetection) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  broker.set_trace_period(1);
  broker.set_composite_skew(10);
  std::atomic<int> fired{0};
  broker.subscribe_composite(
      "seq({temperature >= 40}, {humidity >= 90}, w=100)",
      [&](const CompositeFiring&) { ++fired; });

  const std::uint64_t start = obs::now_ns();
  broker.publish("temperature = 45; humidity = 10; radiation = 1", 10);
  broker.publish("temperature = 0; humidity = 95; radiation = 1", 20);
  broker.flush_composites();
  const std::uint64_t elapsed = obs::now_ns() - start;
  ASSERT_EQ(fired.load(), 1);

  const obs::StatsSnapshot snapshot = broker.metrics().snapshot();
  EXPECT_EQ(snapshot.value("genas_composite_firings_total"), 1);
  const obs::MetricSnapshot* latency =
      snapshot.find("genas_composite_firing_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->count(), 1u);
  EXPECT_LE(latency->sum, elapsed);

  // The reorder gauge saw the buffered instants; after the flush it is 0.
  EXPECT_EQ(snapshot.value("genas_composite_reorder_depth"), 0);
}

// ---------------------------------------------------------------------------
// Wire frames: kStatsRequest / kStatsSnapshot round trips and hostility.

obs::StatsSnapshot sample_snapshot() {
  obs::Registry registry("node=\"2\"");
  registry.counter("genas_a_total").add(12345678901ULL);
  registry.gauge("genas_depth").set(-42);
  const std::uint64_t bounds[] = {512, 1024, 4096};
  obs::Histogram h = registry.histogram("genas_lat_ns", bounds);
  for (std::uint64_t v : {100ULL, 600ULL, 600ULL, 2000ULL, 1000000ULL}) {
    h.observe(v);
  }
  return registry.snapshot();
}

TEST(ObsWire, StatsRequestRoundTrip) {
  const Frame frame = wire::frame_stats_request();
  wire::Message decoded = wire::decode_message(frame, nullptr);
  EXPECT_TRUE(std::holds_alternative<wire::StatsRequestMsg>(decoded));
}

TEST(ObsWire, StatsSnapshotRoundTripPreservesEveryMetric) {
  const obs::StatsSnapshot original = sample_snapshot();
  const Frame frame = wire::frame_stats_snapshot(original);
  wire::Message decoded = wire::decode_message(frame, nullptr);
  auto* msg = std::get_if<wire::StatsSnapshotMsg>(&decoded);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->stats, original);

  // The empty snapshot survives too.
  const Frame empty = wire::frame_stats_snapshot(obs::StatsSnapshot{});
  wire::Message decoded_empty = wire::decode_message(empty, nullptr);
  auto* empty_msg = std::get_if<wire::StatsSnapshotMsg>(&decoded_empty);
  ASSERT_NE(empty_msg, nullptr);
  EXPECT_TRUE(empty_msg->stats.metrics.empty());
}

TEST(ObsWire, TruncatedStatsSnapshotIsRejected) {
  const Frame frame = wire::frame_stats_snapshot(sample_snapshot());
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const Frame truncated(frame.begin(),
                          frame.begin() + static_cast<std::ptrdiff_t>(cut));
    expect_parse_failure(truncated, "truncated at " + std::to_string(cut));
  }
  Frame trailing = frame;
  trailing.push_back(0);
  expect_parse_failure(trailing, "trailing garbage");
}

TEST(ObsWire, ByteFlippedStatsSnapshotNeverCrashes) {
  const Frame frame = wire::frame_stats_snapshot(sample_snapshot());
  Rng rng(20260808);
  for (int round = 0; round < 2000; ++round) {
    Frame corrupted = frame;
    const std::size_t at = rng.below(corrupted.size());
    corrupted[at] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    try {
      (void)wire::decode_message(corrupted, nullptr);
      // Some flips only change values; decoding successfully is fine.
    } catch (const Error&) {
      // Rejection is fine too — anything but a crash or hang.
    }
  }
}

TEST(ObsWire, HostileBucketShapesAreRejected) {
  // Hand-build a snapshot whose counts do not match bounds + 1: the
  // encoder refuses it, so a frame with that shape can only come from a
  // hostile peer — and the decoder's shape checks reject mutations of a
  // valid frame (covered by the byte-flip sweep above). Here: encoder
  // guard.
  obs::StatsSnapshot bad;
  obs::MetricSnapshot m;
  m.name = "h";
  m.kind = obs::MetricKind::kHistogram;
  m.bounds = {1, 2, 3};
  m.counts = {1, 1};  // must be bounds.size() + 1 == 4
  bad.metrics.push_back(std::move(m));
  EXPECT_THROW(wire::frame_stats_snapshot(bad), Error);
}

// ---------------------------------------------------------------------------
// Prometheus exposition: parseable shape, one # TYPE per base name,
// histogram expansion with merged le labels.

TEST(ObsRender, PrometheusExpositionIsWellFormed) {
  const std::string text = obs::render_prometheus(sample_snapshot());
  std::istringstream lines(text);
  std::string line;
  std::size_t type_lines = 0;
  std::size_t sample_lines = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE ", 0) == 0) {
      ++type_lines;
      std::istringstream fields(line);
      std::string hash, type, name, kind;
      fields >> hash >> type >> name >> kind;
      EXPECT_TRUE(kind == "counter" || kind == "gauge" ||
                  kind == "histogram")
          << line;
      continue;
    }
    // Sample line: <name>[{labels}] <integer value>.
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(name.empty()) << line;
    EXPECT_NO_THROW((void)std::stoll(value)) << line;
    ++sample_lines;
  }
  EXPECT_EQ(type_lines, 3u);  // one per base name
  // counter + gauge + (4 buckets + sum + count) histogram lines.
  EXPECT_EQ(sample_lines, 8u);
  EXPECT_NE(text.find("genas_lat_ns_bucket{node=\"2\",le=\"+Inf\"} 5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("genas_a_total{node=\"2\"} 12345678901"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Mesh snapshot: per-node broker registries merge without collisions, and
// the worker counters surface as labeled metrics.

TEST(ObsMesh, StatsSnapshotMergesNodesAndLinks) {
  const SchemaPtr schema = testutil::example1_schema();
  mesh::MeshOptions options;
  options.trace_period = 1;
  mesh::MeshNetwork net(schema, options);
  const net::NodeId a = net.add_node();
  const net::NodeId b = net.add_node();
  net.connect(a, b);
  net.start();

  std::atomic<int> delivered{0};
  net.subscribe(b, "temperature >= 0",
                [&](net::NodeId, SubscriptionId, const Event&) {
                  ++delivered;
                });
  net.wait_idle();
  for (int i = 0; i < 10; ++i) {
    net.publish(a, parse_event(schema,
                               "temperature = 10; humidity = 1; radiation = 1",
                               i));
  }
  net.wait_idle();
  ASSERT_EQ(delivered.load(), 10);

  const obs::StatsSnapshot snapshot = net.stats_snapshot();
  EXPECT_EQ(snapshot.value("genas_mesh_events_published_total{node=\"0\"}"),
            10);
  EXPECT_EQ(snapshot.value(
                "genas_mesh_link_event_messages_total{node=\"0\",peer=\"1\"}"),
            10);
  // Per-node broker registries carry the node label.
  EXPECT_EQ(
      snapshot.value("genas_broker_events_published_total{node=\"0\"}"), 10);
  EXPECT_EQ(snapshot.value("genas_broker_notifications_total{node=\"1\"}"),
            10);
  // The ingress mailbox saw at least one queued message.
  EXPECT_GE(snapshot.value("genas_mesh_mailbox_depth_highwater{node=\"0\"}"),
            1);
  // Trace period 1: every publish was stamped and timed across the hop.
  const obs::MetricSnapshot* wait =
      snapshot.find("genas_mesh_ingress_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count(), 10u);
  const obs::MetricSnapshot* route =
      snapshot.find("genas_mesh_publish_to_route_ns");
  ASSERT_NE(route, nullptr);
  EXPECT_GE(route->count(), 1u);
  net.shutdown();
  EXPECT_EQ(net.first_error(), "");
}

// ---------------------------------------------------------------------------
// Server: per-category error counters, and the remote scrape end to end.

TEST(ObsServer, CorruptClientIncrementsParseErrorExactlyOnce) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  net::BrokerServer server(broker);
  server.start();

  net::SocketChannel raw =
      net::SocketChannel::connect_to("127.0.0.1", server.port());
  std::optional<Frame> handshake = raw.read_frame();
  ASSERT_TRUE(handshake.has_value());

  const std::vector<std::uint8_t> garbage(32, 0xFF);
  raw.write_bytes(garbage);

  const auto parse_errors = [&] {
    return server.metrics().snapshot().value(
        "genas_server_errors_total{category=\"parse\"}");
  };
  ASSERT_TRUE(eventually([&] { return parse_errors() == 1; }));
  ASSERT_TRUE(eventually([&] { return server.active_connections() == 0; }));
  EXPECT_EQ(parse_errors(), 1);  // exactly once per dropped connection
  EXPECT_EQ(server.metrics().snapshot().value(
                "genas_server_errors_total{category=\"protocol\"}"),
            0);
  EXPECT_NE(server.first_error(), "");
  server.stop();
}

TEST(ObsServer, RemoteStatsScrapeSeesBrokerCompositeAndSocketMetrics) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  broker.set_composite_skew(10);
  net::BrokerServer server(broker);
  server.start();

  net::RemoteBrokerClient client("127.0.0.1", server.port());
  std::atomic<int> delivered{0};
  client.subscribe("temperature >= 35",
                   [&](const Notification&) { ++delivered; });
  std::atomic<int> fired{0};
  client.subscribe_composite(
      "seq({temperature >= 40}, {humidity >= 90}, w=100)",
      [&](const CompositeFiring&) { ++fired; });
  client.publish("temperature = 45; humidity = 10; radiation = 1", 10);
  client.publish("temperature = 20; humidity = 95; radiation = 1", 20);
  client.flush();
  ASSERT_EQ(delivered.load(), 1);
  ASSERT_EQ(fired.load(), 1);

  const obs::StatsSnapshot snapshot = client.stats();
  // Broker metrics.
  EXPECT_EQ(snapshot.value("genas_broker_events_published_total"), 2);
  // 1 plain delivery + 2 composite leaf matches feeding the detector.
  EXPECT_EQ(snapshot.value("genas_broker_notifications_total"), 3);
  // Composite metrics.
  EXPECT_EQ(snapshot.value("genas_composite_firings_total"), 1);
  // Socket/server metrics.
  EXPECT_EQ(snapshot.value("genas_server_connections_total"), 1);
  EXPECT_EQ(snapshot.value("genas_server_active_connections"), 1);
  EXPECT_GT(snapshot.value("genas_server_frames_read_total"), 0);
  EXPECT_GT(snapshot.value("genas_server_bytes_written_total"), 0);
  const obs::MetricSnapshot* flush_latency =
      snapshot.find("genas_server_flush_barrier_ns");
  ASSERT_NE(flush_latency, nullptr);
  EXPECT_EQ(flush_latency->count(), 1u);

  // A second scrape still works (request/reply pairing holds up).
  const obs::StatsSnapshot again = client.stats();
  EXPECT_GE(again.value("genas_server_frames_read_total"),
            snapshot.value("genas_server_frames_read_total"));

  client.close();
  server.stop();
  EXPECT_EQ(server.first_error(), "");
}

}  // namespace
}  // namespace genas
