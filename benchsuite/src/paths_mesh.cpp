// Mesh path: a 3-node line (0 - 1 - 2) with covered routing, profiles
// round-robin over the nodes, every event published at node 0. As the
// mesh_line3 workload it reports end-to-end values; as a probe (other
// workloads' traced runs) it reports the mesh.* layer values.
#include <deque>
#include <thread>

#include "mesh/mesh.hpp"
#include "paths.hpp"
#include "registry.hpp"
#include "spans.hpp"

namespace gb {
namespace {

using namespace genas;
using mesh::MeshCallback;
using mesh::MeshNetwork;
using mesh::NodeId;
using mesh::OverlayStats;
using mesh::RoutingMode;

constexpr std::size_t kNodes = 3;
constexpr std::size_t kOpenChunk = 64;     // events per open-loop publish
constexpr std::size_t kRing = 2 * kPool;  // ledger slots per node

/// Open-loop schedule, read by the workers to time deliveries: events
/// [seq0, seq_end) were due at t0 + ((seq - seq0) / kOpenChunk) * chunk_ns.
struct OpenClock {
  std::atomic<std::uint64_t> t0{0};
  std::atomic<std::uint64_t> seq0{0};
  std::atomic<std::uint64_t> seq_end{0};
  std::atomic<std::uint64_t> chunk_ns{1};
};

/// Written by one node's worker thread only.
struct alignas(64) NodeSink {
  NodeSink() : ledger(kRing) {}
  std::atomic<std::uint64_t> delivered{0};
  DeliveryLedger ledger;
  LatencyHistogram latency;  ///< open-loop deliveries of the current window
};

MeshCallback make_mesh_callback(NodeSink* sink, const OpenClock* clock,
                                std::uint32_t k) {
  return [sink, clock, k](NodeId, SubscriptionId, const Event& event) {
    const auto seq = static_cast<std::uint64_t>(event.time());
    const spans::Span span(spans::Name::kMeshDeliver, seq, seq % 64 == 0);
    sink->ledger.record(seq, k);
    const std::uint64_t seq0 = clock->seq0.load(std::memory_order_relaxed);
    if (seq0 != 0 && seq >= seq0 &&
        seq < clock->seq_end.load(std::memory_order_relaxed)) {
      const std::uint64_t due =
          clock->t0.load(std::memory_order_relaxed) +
          (seq - seq0) / kOpenChunk * clock->chunk_ns.load(std::memory_order_relaxed);
      const std::uint64_t now = now_ns();
      sink->latency.record(now > due ? now - due : 0);
    }
    sink->delivered.fetch_add(1, std::memory_order_release);
  };
}

/// Keeps the per-node ledgers from being overrun: the generator checkpoints
/// the expected cumulative deliveries every kPool published events, and
/// before publishing past the ledger ring it waits for the oldest
/// checkpoint's deliveries and verifies that range.
class PassGate {
 public:
  PassGate(Run& run, const Reference& ref, std::vector<std::unique_ptr<NodeSink>>& sinks,
           std::uint64_t first_seq)
      : run_(run), ref_(ref), sinks_(sinks), verified_(first_seq),
        checkpoint_seq_(first_seq), expected_(kNodes, 0) {
    for (std::size_t g = 0; g < kNodes; ++g) {
      expected_[g] = sinks_[g]->delivered.load(std::memory_order_acquire);
    }
  }

  /// Call before publishing sequence numbers below `next_end`.
  void ensure_room(std::uint64_t next_end) {
    while (next_end - verified_ > kRing && !checkpoints_.empty()) {
      const Checkpoint cp = checkpoints_.front();
      checkpoints_.pop_front();
      const spans::Span span(spans::Name::kBenchWait, cp.seq, true, 0);
      wait_for(cp.expected);
      verify(cp.seq);
    }
  }

  void published(std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t seq = begin; seq < end; ++seq) {
      const std::size_t index = seq % kPool;
      for (std::size_t g = 0; g < kNodes; ++g) expected_[g] += ref_.count(index, g);
    }
    if (end - checkpoint_seq_ >= kPool) {
      checkpoints_.push_back(Checkpoint{end, expected_});
      checkpoint_seq_ = end;
    }
  }

  /// After wait_idle(): verifies everything published so far.
  void drain(std::uint64_t published_end) {
    wait_for(expected_);
    verify(published_end);
    checkpoints_.clear();
    checkpoint_seq_ = published_end;
  }

 private:
  struct Checkpoint {
    std::uint64_t seq;
    std::vector<std::uint64_t> expected;
  };

  void wait_for(const std::vector<std::uint64_t>& expected) {
    const auto start = Clock::now();
    for (std::size_t g = 0; g < kNodes; ++g) {
      while (sinks_[g]->delivered.load(std::memory_order_acquire) < expected[g]) {
        if (seconds_since(start) > 30) {
          run_.fail("mesh deliveries stalled at node " + std::to_string(g));
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

  void verify(std::uint64_t end) {
    const spans::Span span(spans::Name::kBenchCheck, verified_, true, end - verified_);
    for (std::size_t g = 0; g < kNodes; ++g) {
      run_.tally.add(sinks_[g]->ledger.verify(verified_, end, ref_, g));
    }
    verified_ = end;
  }

  Run& run_;
  const Reference& ref_;
  std::vector<std::unique_ptr<NodeSink>>& sinks_;
  std::uint64_t verified_;
  std::uint64_t checkpoint_seq_;
  std::vector<std::uint64_t> expected_;
  std::deque<Checkpoint> checkpoints_;
};

/// One mesh instance with its harness state.
struct MeshRig {
  std::unique_ptr<MeshNetwork> net;
  std::vector<std::unique_ptr<NodeSink>> sinks;
  OpenClock clock;
  std::vector<Event>* pool = nullptr;  // run.pools[0]
  std::uint64_t seq = 0;
};

std::vector<std::uint32_t> node_of(std::size_t profiles) {
  std::vector<std::uint32_t> groups(profiles);
  for (std::size_t k = 0; k < profiles; ++k) {
    groups[k] = static_cast<std::uint32_t>(k % kNodes);
  }
  return groups;
}

/// Builds, starts and subscribes a mesh, then primes it with one chunk at
/// every node (link tables build lazily on first use). Returns seconds.
double build_mesh(Run& run, MeshRig& rig, const Inputs& inputs,
                  const Reference& ref) {
  rig.sinks.clear();
  for (std::size_t g = 0; g < kNodes; ++g) rig.sinks.push_back(std::make_unique<NodeSink>());
  rig.pool = &run.pools[0];
  const auto start = Clock::now();
  mesh::MeshOptions options;
  options.mode = RoutingMode::kRoutingCovered;
  options.policy = inputs.engine.policy;
  options.event_distribution =
      inputs.engine.prior ? inputs.engine.prior : inputs.event_distribution;
  // A short ingress queue (64 messages of up to 256 events) keeps the
  // closed loop's published rate within milliseconds of the delivered rate.
  options.mailbox_capacity = 64;
  rig.net = std::make_unique<MeshNetwork>(inputs.schema, options);
  for (std::size_t g = 0; g < kNodes; ++g) rig.net->add_node();
  rig.net->connect(0, 1);
  rig.net->connect(1, 2);
  rig.net->start();
  for (std::size_t k = 0; k < inputs.profiles.size(); ++k) {
    const NodeId node = k % kNodes;
    rig.net->subscribe(node, inputs.profiles[k],
                       make_mesh_callback(rig.sinks[node].get(), &rig.clock,
                                          static_cast<std::uint32_t>(k)));
  }
  rig.net->wait_idle();
  for (std::size_t g = 0; g < kNodes; ++g) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      (*rig.pool)[g * kBatch + i].set_time(static_cast<Timestamp>(g * kBatch + i));
    }
    rig.net->publish_batch(g, std::vector<Event>(
                                  rig.pool->begin() + static_cast<std::ptrdiff_t>(g * kBatch),
                                  rig.pool->begin() + static_cast<std::ptrdiff_t>((g + 1) * kBatch)));
  }
  rig.net->wait_idle();
  const double elapsed = seconds_since(start);
  rig.seq = kNodes * kBatch;
  for (std::size_t g = 0; g < kNodes; ++g) {
    run.tally.add(rig.sinks[g]->ledger.verify(0, rig.seq, ref, g));
  }
  return elapsed;
}

/// Copies `count` pool events starting at `seq`, stamped with their
/// sequence numbers, into the vector the mesh call takes.
std::vector<Event> chunk_of(MeshRig& rig, std::uint64_t seq, std::size_t count) {
  const spans::Span span(spans::Name::kBenchCopy, seq, false, count);
  const std::size_t base = seq % kPool;
  for (std::size_t i = 0; i < count; ++i) {
    (*rig.pool)[base + i].set_time(static_cast<Timestamp>(seq + i));
  }
  return std::vector<Event>(rig.pool->begin() + static_cast<std::ptrdiff_t>(base),
                            rig.pool->begin() + static_cast<std::ptrdiff_t>(base + count));
}

/// Closed loop at node 0: batches of `batch` events (publish_batch when
/// batch > 1, publish otherwise), windows per `plan`, then drained; the
/// final wait_idle() is timed into `wait_idle_ms` when given.
LoopResult closed_loop(Run& run, MeshRig& rig, const Reference& ref,
                       const LoopPlan& plan, std::size_t batch,
                       double* wait_idle_ms = nullptr) {
  LoopResult result;
  rig.seq = (rig.seq + batch - 1) / batch * batch;
  PassGate gate(run, ref, rig.sinks, rig.seq);
  const auto step = [&] {
    const std::uint64_t seq = rig.seq;
    gate.ensure_room(seq + batch);
    const bool sampled = batch > 1 || seq % 64 == 0;
    if (batch > 1) {
      const spans::Span span(spans::Name::kMeshPublishBatch, seq, sampled, batch);
      std::vector<Event> events = chunk_of(rig, seq, batch);
      rig.net->publish_batch(0, std::move(events));
    } else {
      const spans::Span span(spans::Name::kMeshPublish, seq, sampled, 1);
      Event& event = (*rig.pool)[seq % kPool];
      event.set_time(static_cast<Timestamp>(seq));
      rig.net->publish(0, event);
    }
    rig.seq += batch;
    gate.published(seq, rig.seq);
  };
  const auto warm = Clock::now();
  while (seconds_since(warm) < plan.warmup_s) step();
  for (std::size_t w = 0; w < plan.windows; ++w) {
    const bool alternate = plan.alternate(w);
    spans::set_active(plan.alternate_trace && alternate);
    const std::uint64_t first = rig.seq;
    const auto start = Clock::now();
    while (seconds_since(start) < plan.window_s) step();
    const double rate = static_cast<double>(rig.seq - first) / seconds_since(start);
    (alternate ? result.alt_rates : result.rates).push_back(rate);
    result.events += rig.seq - first;
  }
  spans::set_active(false);
  const auto idle_start = Clock::now();
  rig.net->wait_idle();
  if (wait_idle_ms != nullptr) *wait_idle_ms = 1e3 * seconds_since(idle_start);
  gate.drain(rig.seq);
  return result;
}

/// Open loop at node 0 for `window_s`: `rate` events/s in kOpenChunk-event
/// chunks, every delivery timed from its chunk's scheduled send time into
/// the nodes' latency histograms.
void open_loop(Run& run, MeshRig& rig, const Reference& ref, double rate,
               double window_s, LatencyHistogram& lag, bool traced) {
  // Chunks must not straddle the pool's end: start on a batch boundary
  // (the skipped sequence numbers are never published).
  const std::uint64_t seq0 = (rig.seq + kBatch - 1) / kBatch * kBatch;
  rig.seq = seq0;
  PassGate gate(run, ref, rig.sinks, rig.seq);
  const auto chunk_ns = static_cast<std::uint64_t>(1e9 * kOpenChunk / rate);
  const std::uint64_t total = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(window_s * rate / kOpenChunk));
  const std::uint64_t t0 = now_ns() + 1'000'000;
  rig.clock.chunk_ns.store(chunk_ns, std::memory_order_relaxed);
  rig.clock.t0.store(t0, std::memory_order_relaxed);
  rig.clock.seq_end.store(seq0 + total * kOpenChunk, std::memory_order_relaxed);
  rig.clock.seq0.store(seq0, std::memory_order_relaxed);
  spans::set_active(traced);
  for (std::uint64_t c = 0; c < total; ++c) {
    const std::uint64_t seq = rig.seq;
    gate.ensure_room(seq + kOpenChunk);
    std::vector<Event> events = chunk_of(rig, seq, kOpenChunk);
    const std::uint64_t due = t0 + c * chunk_ns;
    wait_until_ns(due);
    lag.record(now_ns() - due);
    {
      const spans::Span span(spans::Name::kMeshPublishBatch, seq, true, kOpenChunk);
      rig.net->publish_batch(0, std::move(events));
    }
    rig.seq += kOpenChunk;
    gate.published(seq, rig.seq);
  }
  spans::set_active(false);
  rig.net->wait_idle();
  gate.drain(rig.seq);
  rig.clock.seq0.store(0, std::memory_order_relaxed);
}

/// Harness cost of one mesh delivery callback, invoked directly.
double mesh_callback_ns(const Inputs& inputs, const Reference& ref) {
  NodeSink scratch;
  OpenClock clock;
  std::vector<std::pair<MeshCallback, Event>> calls;
  for (std::size_t i = 0; i < ref.pool_size() && calls.size() < 4096; ++i) {
    for (const std::uint32_t k : ref.matches(i)) {
      calls.emplace_back(make_mesh_callback(&scratch, &clock, k), inputs.pool[i]);
    }
  }
  return ns_per_item(0.1, calls.size(), [&] {
    for (const auto& [callback, event] : calls) callback(0, 0, event);
  });
}

/// Registry deltas and span totals over the closed-loop windows.
struct MeshTotals {
  obs::MetricSnapshot ingress_wait;
  obs::MetricSnapshot per_frame;
  obs::MetricSnapshot to_route;  ///< over the open-loop windows
  std::int64_t link_events = 0;
  std::uint64_t published = 0;
  std::uint64_t filter_operations = 0;
  std::vector<double> wait_idle_ms;
  double publish_self = 0;
  std::uint64_t publish_calls = 0;
  double traced_total = 0;  ///< publish + copy + checks + waits
  std::uint64_t traced_events = 0;
};

}  // namespace

void run_mesh_path(Run& run, const Inputs& inputs, const MeshPlan& plan,
                   bool as_workload) {
  const Reference ref(inputs.schema, inputs.profiles, inputs.pool,
                      node_of(inputs.profiles.size()));
  MeshRig rig;
  std::vector<double> setup_s;
  double spent = 0;
  for (std::size_t rep = 0; rep == 0 || (plan.repeat_setup && run.another_setup(rep, spent));
       ++rep) {
    if (rig.net) rig.net->shutdown();
    rig.net.reset();
    setup_s.push_back(build_mesh(run, rig, inputs, ref));
    spent += setup_s.back();
  }

  // Warm-up and ops/event: exactly one pool pass at node 0, drained.
  const std::uint64_t ops_before = rig.net->stats().filter_operations;
  {
    PassGate gate(run, ref, rig.sinks, rig.seq);
    for (std::size_t i = 0; i < kPool / kBatch; ++i) {
      const std::uint64_t seq = rig.seq;
      gate.ensure_room(seq + kBatch);
      rig.net->publish_batch(0, chunk_of(rig, seq, kBatch));
      rig.seq += kBatch;
      gate.published(seq, rig.seq);
    }
    rig.net->wait_idle();
    gate.drain(rig.seq);
  }
  const double ops_per_event =
      static_cast<double>(rig.net->stats().filter_operations - ops_before) / kPool;

  // Rounds of one closed-loop, one single-event and one open-loop window.
  LoopResult closed;
  LoopResult single;
  std::vector<LatencyHistogram> open_windows;
  LatencyHistogram lag;
  MeshTotals totals;
  for (std::size_t r = 0; r < plan.rounds; ++r) {
    LoopPlan closed_plan = plan.closed;
    closed_plan.window_offset = r;
    if (r > 0) closed_plan.warmup_s = 0.05;
    const obs::StatsSnapshot before = rig.net->stats_snapshot();
    const OverlayStats stats_before = rig.net->stats();
    double wait_idle_ms = 0;
    closed.absorb(closed_loop(run, rig, ref, closed_plan, kBatch, &wait_idle_ms));
    const obs::StatsSnapshot after = rig.net->stats_snapshot();
    const OverlayStats stats_after = rig.net->stats();
    totals.wait_idle_ms.push_back(wait_idle_ms);
    accumulate(totals.ingress_wait,
                  histogram_delta(before, after, "genas_mesh_ingress_wait_ns"));
    accumulate(totals.per_frame,
                  histogram_delta(before, after, "genas_mesh_link_events_per_frame"));
    totals.link_events += metric_sum(after, "genas_mesh_link_event_messages_total") -
                          metric_sum(before, "genas_mesh_link_event_messages_total");
    totals.published += stats_after.events_published - stats_before.events_published;
    totals.filter_operations += stats_after.filter_operations - stats_before.filter_operations;
    const spans::Aggregate publish = spans::aggregate(spans::Name::kMeshPublishBatch);
    totals.publish_self += publish.self_ns;
    totals.publish_calls += publish.count;
    totals.traced_events += publish.weight;
    totals.traced_total += publish.total_ns +
                           spans::aggregate(spans::Name::kBenchCheck).total_ns +
                           spans::aggregate(spans::Name::kBenchWait).total_ns;
    spans::reset_aggregates();

    LoopPlan single_plan = plan.single;
    single_plan.window_offset = r;
    if (r > 0) single_plan.warmup_s = 0.05;
    single.absorb(closed_loop(run, rig, ref, single_plan, 1));
    spans::reset_aggregates();

    const obs::StatsSnapshot before_open = rig.net->stats_snapshot();
    open_loop(run, rig, ref, plan.open_rate, plan.open_window_s, lag,
              plan.trace && r % 2 == 1);
    accumulate(totals.to_route, histogram_delta(before_open, rig.net->stats_snapshot(),
                                                   "genas_mesh_publish_to_route_ns"));
    spans::reset_aggregates();
    LatencyHistogram& window = open_windows.emplace_back();
    for (const auto& sink : rig.sinks) {
      window.merge(sink->latency);
      sink->latency.clear();
    }
  }

  Report& r = run.report;
  if (as_workload) {
    r.e2e("setup_s", summarize(setup_s));
    r.e2e("throughput_eps", summarize(closed.rates));
    r.e2e("throughput_1t_eps", summarize(single.rates));
    report_latency(run, open_windows);
    r.e2e("ops_per_event", ops_per_event);
    if (plan.trace) {
      report_trace_overhead(run, closed);
      report_closure(run, closed,
                     totals.traced_total /
                         static_cast<double>(std::max<std::uint64_t>(1, totals.traced_events)));
    }
  }
  if (plan.trace) {
    const double published = std::max(1.0, static_cast<double>(totals.published));
    r.layer("mesh.publish_batch_us",
            totals.publish_calls == 0
                ? 0.0
                : totals.publish_self / static_cast<double>(totals.publish_calls) / 1e3);
    r.layer("mesh.wait_idle_ms", median_of(totals.wait_idle_ms));
    r.layer("mesh.ingress_wait_ns_p99", obs::quantile(totals.ingress_wait, 0.99));
    r.layer("mesh.publish_to_route_ns_p50", obs::quantile(totals.to_route, 0.5));
    r.layer("mesh.publish_to_route_ns_p99", obs::quantile(totals.to_route, 0.99));
    r.layer("mesh.link_events_per_frame",
            totals.per_frame.count() == 0
                ? 0.0
                : static_cast<double>(totals.per_frame.sum) /
                      static_cast<double>(totals.per_frame.count()));
    r.layer("mesh.link_events_per_event", static_cast<double>(totals.link_events) / published);
    r.layer("mesh.filter_ops_per_event",
            static_cast<double>(totals.filter_operations) / published);
    std::size_t entries = 0;
    for (std::size_t g = 0; g < kNodes; ++g) entries += rig.net->routing_entries(g);
    r.layer("mesh.routing_entries", static_cast<double>(entries));
    r.layer("mesh.callback_ns", mesh_callback_ns(inputs, ref));
    std::vector<double> scrape_ms;
    for (int i = 0; i < 5; ++i) {
      const auto start = Clock::now();
      const std::string text = obs::render_prometheus(rig.net->stats_snapshot());
      if (text.empty()) run.fail("empty Prometheus exposition");
      scrape_ms.push_back(1e3 * seconds_since(start));
    }
    r.layer("obs.scrape_ms", median_of(scrape_ms));
    if (as_workload) r.layer("bench.generator_lag_us_p99", lag.quantile(0.99) / 1e3);
  }

  rig.net->shutdown();
  if (!rig.net->first_error().empty()) run.fail("mesh worker error: " + rig.net->first_error());
}

void run_mesh_line3(Run& run, const Inputs& inputs, const Reference& ref) {
  MeshPlan plan;
  plan.repeat_setup = true;
  plan.trace = run.options.trace;
  plan.rounds = run.rounds();
  const double rounds = static_cast<double>(plan.rounds);
  plan.closed.warmup_s = run.options.quick ? 0.05 : 0.3;
  plan.closed.windows = 1;
  plan.closed.window_s = run.share(0.4) / rounds;
  plan.closed.alternate_trace = plan.trace;
  plan.single = plan.closed;
  plan.single.window_s = run.share(0.2) / rounds;
  plan.open_window_s = run.share(0.35) / rounds;
  run_mesh_path(run, inputs, plan, true);
  if (run.options.trace) run_layer_probes(run, inputs, ref, nullptr);
}

}  // namespace gb
