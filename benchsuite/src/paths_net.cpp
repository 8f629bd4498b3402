// Socket path: one RemoteBrokerClient connection to a BrokerServer serving a
// Broker, with plain and composite subscriptions. As the socket_ladder
// workload it reports end-to-end values; as a probe (other workloads'
// traced runs) it reports the net.* layer values.
#include <thread>

#include "net/broker_server.hpp"
#include "net/remote_client.hpp"
#include "paths.hpp"
#include "registry.hpp"
#include "spans.hpp"

namespace gb {
namespace {

using namespace genas;

constexpr std::size_t kRing = 1 << 18;  // ledger slots: one ladder rung

/// Written by the client's reader thread only (callbacks run there).
struct ClientSink {
  ClientSink() : ledger(kRing) {}
  std::atomic<std::uint64_t> delivered{0};
  DeliveryLedger ledger;
  FiringSummary firings;
  // Open-loop schedule of the current rung: event seq0 + i was due at
  // t0 + i * period_ns.
  std::atomic<std::uint64_t> seq0{0};
  std::atomic<std::uint64_t> seq_end{0};
  std::atomic<std::uint64_t> t0{0};
  std::atomic<std::uint64_t> period_ns{1};
  LatencyHistogram latency;  ///< the current rung's deliveries
};

NotificationCallback make_net_callback(ClientSink* sink, std::uint32_t k) {
  return [sink, k](const Notification& n) {
    const auto seq = static_cast<std::uint64_t>(n.event.time());
    const spans::Span span(spans::Name::kNetDeliver, seq, seq % 64 == 0);
    sink->ledger.record(seq, k);
    const std::uint64_t seq0 = sink->seq0.load(std::memory_order_relaxed);
    if (seq0 != 0 && seq >= seq0 &&
        seq < sink->seq_end.load(std::memory_order_relaxed)) {
      const std::uint64_t i = seq - seq0;
      const std::uint64_t due = sink->t0.load(std::memory_order_relaxed) +
                                i * sink->period_ns.load(std::memory_order_relaxed);
      const std::uint64_t now = now_ns();
      sink->latency.record(now > due ? now - due : 0);
    }
    sink->delivered.fetch_add(1, std::memory_order_release);
  };
}

/// The reference composite detector: the same expressions over reference
/// indices, fed the reference matches of every published event in order.
struct ReferenceComposites {
  ReferenceComposites(const Inputs& inputs, const Reference& ref) : ref(ref) {
    for (std::size_t c = 0; c < inputs.composites.size(); ++c) {
      const CompositeSpec& spec = inputs.composites[c];
      CompositeExprPtr left = primitive(ProfileId{spec.left});
      CompositeExprPtr right = primitive(ProfileId{spec.right});
      detector.add(spec.sequence ? seq(left, right, spec.window)
                                 : conj(left, right, spec.window),
                   [this, c](const CompositeFiring& f) {
                     expected.add(static_cast<std::uint32_t>(c), f.time);
                   });
    }
  }
  void published(std::uint64_t seq) {
    const auto matched = ref.matches(seq % kPool);
    if (!matched.empty()) detector.on_event(matched, static_cast<Timestamp>(seq));
  }

  const Reference& ref;
  CompositeDetector detector;
  FiringSummary expected;
};

/// One served broker, its server and one connected client.
struct NetRig {
  ClientSink sink;  // declared first: outlives the client's reader
  std::unique_ptr<Broker> broker;
  std::unique_ptr<net::BrokerServer> server;
  std::unique_ptr<net::RemoteBrokerClient> client;
  std::unique_ptr<ReferenceComposites> composites;
  std::vector<Event> pool;
  std::uint64_t seq = 0;       ///< next sequence number to publish
  std::uint64_t verified = 0;  ///< deliveries below it are verified
  /// (sequence number, broker operations) after flushes at pool-pass
  /// boundaries: ops/event over whole passes repeats exactly.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pass_marks;

  ~NetRig() { teardown(); }
  void teardown() {
    if (client) client->close();
    client.reset();
    if (server) server->stop();
    server.reset();
    broker.reset();
  }
};

struct SetupSample {
  double total_s = 0;
  double connect_ms = 0;
  double subscribe_us = 0;
};

/// Publishes `count` events one call each from rig.seq on.
void publish_run(NetRig& rig, std::size_t count, bool traced) {
  for (std::size_t i = 0; i < count; ++i, ++rig.seq) {
    Event& event = rig.pool[rig.seq % kPool];
    event.set_time(static_cast<Timestamp>(rig.seq));
    {
      const spans::Span span(spans::Name::kNetPublish, rig.seq, traced);
      rig.client->publish(event);
    }
    rig.composites->published(rig.seq);
  }
}

void flush(NetRig& rig, bool traced) {
  {
    const spans::Span span(spans::Name::kNetFlush, rig.seq, traced, 0);
    rig.client->flush();
  }
  if (rig.seq % kPool == 0) {
    rig.pass_marks.emplace_back(rig.seq, rig.broker->counters().operations);
  }
}

/// After a flush: verifies the deliveries of everything published since the
/// last verification, and the firings so far, then clears the firing
/// summaries.
void verify(Run& run, NetRig& rig, const Reference& ref) {
  const spans::Span span(spans::Name::kBenchCheck, rig.verified, true, rig.seq - rig.verified);
  run.tally.add(rig.sink.ledger.verify(rig.verified, rig.seq, ref));
  run.tally.add(compare_firings(rig.composites->expected, rig.sink.firings));
  rig.composites->expected = FiringSummary{};
  rig.sink.firings = FiringSummary{};
  rig.verified = rig.seq;
}

SetupSample build_rig(Run& run, NetRig& rig, const Inputs& inputs,
                      const Reference& ref) {
  rig.teardown();
  rig.sink.ledger = DeliveryLedger(kRing);
  rig.sink.firings = FiringSummary{};
  rig.sink.delivered.store(0);
  rig.sink.latency.clear();
  rig.pass_marks.clear();
  rig.composites = std::make_unique<ReferenceComposites>(inputs, ref);

  SetupSample sample;
  const auto start = Clock::now();
  rig.broker = std::make_unique<Broker>(inputs.schema, inputs.engine);
  rig.broker->set_composite_skew(inputs.composite_skew);
  rig.server = std::make_unique<net::BrokerServer>(*rig.broker);
  rig.server->start();
  const auto connect_start = Clock::now();
  rig.client = std::make_unique<net::RemoteBrokerClient>("127.0.0.1", rig.server->port());
  sample.connect_ms = 1e3 * seconds_since(connect_start);
  const double until_connected = seconds_since(start);

  // Harness preparation, not timed: the inputs on the client's schema.
  const Inputs client = rebase(inputs, rig.client->schema());
  rig.pool = client.pool;

  const auto subscribe_start = Clock::now();
  for (std::size_t k = 0; k < client.profiles.size(); ++k) {
    rig.client->subscribe(client.profiles[k],
                          make_net_callback(&rig.sink, static_cast<std::uint32_t>(k)));
  }
  ClientSink* sink = &rig.sink;
  for (std::size_t c = 0; c < client.composites.size(); ++c) {
    rig.client->subscribe_composite(
        composite_expression(client, client.composites[c]),
        [sink, c](const CompositeFiring& f) {
          sink->firings.add(static_cast<std::uint32_t>(c), f.time);
        });
  }
  rig.client->flush();
  sample.subscribe_us =
      1e6 * seconds_since(subscribe_start) /
      static_cast<double>(std::max<std::size_t>(
          1, client.profiles.size() + client.composites.size()));
  rig.seq = 0;
  rig.verified = 0;
  publish_run(rig, kBatch, false);
  rig.client->flush();
  sample.total_s = until_connected + seconds_since(subscribe_start);
  verify(run, rig, ref);
  return sample;
}

/// Closed loop: chunks of `chunk` publishes, each followed by flush().
LoopResult closed_loop(Run& run, NetRig& rig, const Reference& ref,
                       const LoopPlan& plan, std::size_t chunk) {
  LoopResult result;
  const auto step = [&](bool traced) {
    publish_run(rig, chunk, traced);
    flush(rig, traced);
    if (rig.seq - rig.verified >= kBatch) verify(run, rig, ref);
  };
  const auto warm = Clock::now();
  while (seconds_since(warm) < plan.warmup_s) step(false);
  for (std::size_t w = 0; w < plan.windows; ++w) {
    const bool alternate = plan.alternate(w);
    spans::set_active(plan.alternate_trace && alternate);
    const std::uint64_t first = rig.seq;
    const auto start = Clock::now();
    while (seconds_since(start) < plan.window_s) step(true);
    const double rate = static_cast<double>(rig.seq - first) / seconds_since(start);
    (alternate ? result.alt_rates : result.rates).push_back(rate);
    result.events += rig.seq - first;
  }
  spans::set_active(false);
  verify(run, rig, ref);
  return result;
}

struct Rung {
  double rate = 0;         ///< scheduled events/s
  double achieved = 0;     ///< events/s actually sent
  double p99_us = 0;
  double drain_ms = 0;  ///< last scheduled send to last delivery
};

/// One open-loop rung: `rate` events/s for `seconds`, one publish per
/// event, every delivery timed from its scheduled send time into
/// `latency`; verified after a flush.
Rung ladder_rung(Run& run, NetRig& rig, const Reference& ref, double rate,
                 double seconds, LatencyHistogram& latency, LatencyHistogram& lag) {
  const auto period = static_cast<std::uint64_t>(1e9 / rate);
  const std::uint64_t count = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(rate * seconds), 1, kRing - kBatch);
  const std::uint64_t first = rig.seq;
  std::uint64_t expected = rig.sink.delivered.load();
  for (std::uint64_t s = first; s < first + count; ++s) expected += ref.count(s % kPool);

  const std::uint64_t t0 = now_ns() + 1'000'000;
  rig.sink.period_ns.store(period, std::memory_order_relaxed);
  rig.sink.t0.store(t0, std::memory_order_relaxed);
  rig.sink.seq_end.store(first + count, std::memory_order_relaxed);
  rig.sink.seq0.store(first, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t due = t0 + i * period;
    wait_until_ns(due);
    lag.record(now_ns() - due);
    publish_run(rig, 1, false);
  }
  Rung rung;
  rung.rate = rate;
  rung.achieved = static_cast<double>(count) /
                  (static_cast<double>(std::max<std::uint64_t>(1, now_ns() - t0)) / 1e9);
  const std::uint64_t last_due = t0 + (count - 1) * period;
  const auto drain_start = Clock::now();
  while (rig.sink.delivered.load(std::memory_order_acquire) < expected &&
         seconds_since(drain_start) < 2.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  rung.drain_ms = static_cast<double>(now_ns() - last_due) / 1e6;
  flush(rig, false);
  rig.sink.seq0.store(0, std::memory_order_relaxed);
  latency.merge(rig.sink.latency);
  rig.sink.latency.clear();
  rung.p99_us = latency.quantile(0.99) / 1e3;
  verify(run, rig, ref);
  return rung;
}

/// Harness cost of one client delivery callback, invoked directly.
double net_callback_ns(const Inputs& inputs, const Reference& ref) {
  ClientSink scratch;
  std::vector<std::pair<NotificationCallback, Notification>> calls;
  for (std::size_t i = 0; i < ref.pool_size() && calls.size() < 4096; ++i) {
    for (const std::uint32_t k : ref.matches(i)) {
      calls.emplace_back(make_net_callback(&scratch, k), Notification{k, inputs.pool[i]});
    }
  }
  return ns_per_item(0.1, calls.size(), [&] {
    for (const auto& [callback, notification] : calls) callback(notification);
  });
}

}  // namespace

void run_net_path(Run& run, const Inputs& inputs, const NetPlan& plan,
                  bool as_workload) {
  const Reference ref(inputs.schema, inputs.profiles, inputs.pool);
  NetRig rig;
  std::vector<double> setup_s;
  std::vector<double> connect_ms;
  std::vector<double> subscribe_us;
  double spent = 0;
  for (std::size_t rep = 0; rep == 0 || (plan.repeat_setup && run.another_setup(rep, spent));
       ++rep) {
    const SetupSample sample = build_rig(run, rig, inputs, ref);
    setup_s.push_back(sample.total_s);
    spent += sample.total_s;
    connect_ms.push_back(sample.connect_ms);
    subscribe_us.push_back(sample.subscribe_us);
  }

  // Rounds of one closed-loop, one single-event and one latency-rung window.
  LoopResult closed;
  LoopResult single;
  std::vector<LatencyHistogram> latency_windows;
  LatencyHistogram latency_rung;
  LatencyHistogram lag;
  Rung rung_at_latency_rate;
  obs::MetricSnapshot flush_barrier;
  std::int64_t frames_written = 0;  ///< over the closed-loop calls
  std::int64_t bytes_written = 0;
  std::uint64_t closed_published = 0;
  spans::Aggregate publish_spans;
  spans::Aggregate flush_spans;
  double traced_total = 0;
  for (std::size_t r = 0; r < plan.rounds; ++r) {
    LoopPlan closed_plan = plan.closed;
    closed_plan.window_offset = r;
    if (r > 0) closed_plan.warmup_s = 0.05;
    const obs::StatsSnapshot before = rig.server->stats_snapshot();
    const std::uint64_t seq_before = rig.seq;
    closed.absorb(closed_loop(run, rig, ref, closed_plan, kBatch));
    closed_published += rig.seq - seq_before;
    const obs::StatsSnapshot after = rig.server->stats_snapshot();
    frames_written += metric_sum(after, "genas_server_frames_written_total") -
                      metric_sum(before, "genas_server_frames_written_total");
    bytes_written += metric_sum(after, "genas_server_bytes_written_total") -
                     metric_sum(before, "genas_server_bytes_written_total");
    accumulate(flush_barrier, histogram_delta(before, after, "genas_server_flush_barrier_ns"));
    const spans::Aggregate publish = spans::aggregate(spans::Name::kNetPublish);
    const spans::Aggregate flushes = spans::aggregate(spans::Name::kNetFlush);
    traced_total += publish.total_ns + flushes.total_ns +
                    spans::aggregate(spans::Name::kBenchCheck).total_ns;
    publish_spans.weight += publish.weight;
    publish_spans.durations.merge(publish.durations);
    flush_spans.durations.merge(flushes.durations);
    spans::reset_aggregates();

    LoopPlan single_plan = plan.single;
    single_plan.window_offset = r;
    if (r > 0) single_plan.warmup_s = 0.05;
    single.absorb(closed_loop(run, rig, ref, single_plan, 1));
    spans::reset_aggregates();

    LatencyHistogram window;
    const Rung rung = ladder_rung(run, rig, ref, plan.latency_rate, plan.latency_window_s,
                                  window, lag);
    rung_at_latency_rate.drain_ms = std::max(rung_at_latency_rate.drain_ms, rung.drain_ms);
    rung_at_latency_rate.achieved = rung.achieved;
    latency_rung.merge(window);
    latency_windows.push_back(std::move(window));
  }
  rung_at_latency_rate.rate = plan.latency_rate;
  rung_at_latency_rate.p99_us = latency_rung.quantile(0.99) / 1e3;

  // The rest of the ladder (per-layer net.sustained_eps, traced runs only).
  std::vector<Rung> rungs = {rung_at_latency_rate};
  if (plan.trace) {
    for (const double rate : plan.ladder) {
      LatencyHistogram histogram;
      LatencyHistogram ignored_lag;
      rungs.push_back(ladder_rung(run, rig, ref, rate, plan.ladder_s, histogram, ignored_lag));
    }
  }
  std::sort(rungs.begin(), rungs.end(),
            [](const Rung& a, const Rung& b) { return a.rate < b.rate; });

  if (!rig.server->first_error().empty()) {
    run.fail("broker server error: " + rig.server->first_error());
  }
  // Ops/event over the whole pool passes between the first and last marks.
  double ops_per_event = 0;
  if (rig.pass_marks.size() >= 2) {
    const auto& [seq_a, ops_a] = rig.pass_marks.front();
    const auto& [seq_b, ops_b] = rig.pass_marks.back();
    ops_per_event = static_cast<double>(ops_b - ops_a) / static_cast<double>(seq_b - seq_a);
  } else {
    ops_per_event = static_cast<double>(rig.broker->counters().operations) /
                    static_cast<double>(std::max<std::uint64_t>(1, rig.seq));
  }
  rig.teardown();

  Report& rep = run.report;
  if (as_workload) {
    rep.e2e("setup_s", summarize(setup_s));
    rep.e2e("throughput_eps", summarize(closed.rates));
    rep.e2e("throughput_1t_eps", summarize(single.rates));
    report_latency(run, latency_windows);
    rep.e2e("ops_per_event", ops_per_event);
    if (plan.trace) {
      report_trace_overhead(run, closed);
      report_closure(run, closed,
                     traced_total /
                         static_cast<double>(std::max<std::uint64_t>(1, publish_spans.weight)));
    }
  }
  if (!plan.trace) return;

  const double events = static_cast<double>(std::max<std::uint64_t>(1, closed_published));
  rep.layer("net.publish_us_p50", publish_spans.durations.quantile(0.5) / 1e3);
  rep.layer("net.publish_us_p99", publish_spans.durations.quantile(0.99) / 1e3);
  rep.layer("net.flush_rtt_us_p50", flush_spans.durations.quantile(0.5) / 1e3);
  rep.layer("net.flush_rtt_us_p99", flush_spans.durations.quantile(0.99) / 1e3);
  // The rate achieved on the highest rung meeting the latency limit, with
  // every delivery in shortly after the rung's last scheduled send (no
  // growing backlog).
  double sustained = 0;
  for (const Rung& rung : rungs) {
    if (rung.p99_us <= 2000 && rung.drain_ms <= 50) sustained = rung.achieved;
    rep.note("net.rung_" + std::to_string(static_cast<int>(rung.rate)),
             "p99_us=" + std::to_string(rung.p99_us) +
                 " drain_ms=" + std::to_string(rung.drain_ms));
  }
  rep.layer("net.sustained_eps", sustained);
  rep.layer("net.frames_written_per_event", static_cast<double>(frames_written) / events);
  rep.layer("net.bytes_written_per_event", static_cast<double>(bytes_written) / events);
  rep.layer("net.flush_barrier_ns_p99", obs::quantile(flush_barrier, 0.99));
  rep.layer("net.connect_ms", median_of(connect_ms));
  rep.layer("net.subscribe_us", median_of(subscribe_us));
  rep.layer("net.callback_ns", net_callback_ns(inputs, ref));
  rep.layer_default("bench.generator_lag_us_p99", lag.quantile(0.99) / 1e3);
}

void run_socket_ladder(Run& run, const Inputs& inputs, const Reference& ref) {
  NetPlan plan;
  plan.repeat_setup = true;
  plan.trace = run.options.trace;
  plan.rounds = run.rounds();
  const double rounds = static_cast<double>(plan.rounds);
  plan.closed.warmup_s = run.options.quick ? 0.05 : 0.3;
  plan.closed.windows = 1;
  plan.closed.window_s = run.share(0.3) / rounds;
  plan.closed.alternate_trace = plan.trace;
  plan.single = plan.closed;
  plan.single.window_s = run.share(0.15) / rounds;
  plan.latency_window_s = run.share(0.3) / rounds;
  plan.ladder_s = run.share(0.05);
  run_net_path(run, inputs, plan, true);
  if (run.options.trace) run_layer_probes(run, inputs, ref, nullptr);
}

}  // namespace gb
