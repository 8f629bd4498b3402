// In-process broker path: filter_static, filter_drift and fanout_local, and
// the loops the probes reuse on other workloads' inputs.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "obs/trace.hpp"
#include "paths.hpp"
#include "spans.hpp"

namespace gb {
namespace {

using namespace genas;

/// Per-publishing-thread delivery record. The harness callbacks are
/// stateless apart from their reference index and write to the calling
/// thread's sink, so concurrent publishers share no harness state.
struct LocalSink {
  explicit LocalSink(std::size_t capacity = kBatch) : ledger(capacity) {}
  DeliveryLedger ledger;
  std::uint64_t deliveries = 0;
};

thread_local LocalSink* tl_sink = nullptr;

NotificationCallback make_callback(std::uint32_t k) {
  return [k](const Notification& n) {
    LocalSink& sink = *tl_sink;
    sink.ledger.record(static_cast<std::uint64_t>(n.event.time()), k);
    ++sink.deliveries;
  };
}

/// Thread t of a multi-threaded loop publishes sequence numbers
/// t * kThreadSeqStride + j, so each thread walks the pool in order with
/// its own contiguous, never-overlapping sequence range.
constexpr std::uint64_t kThreadSeqStride = 1ULL << 40;

void stamp(std::vector<Event>& pool, std::uint64_t seq, std::size_t count) {
  const std::size_t base = seq % kPool;
  for (std::size_t i = 0; i < count; ++i) {
    pool[base + i].set_time(static_cast<Timestamp>(seq + i));
  }
}

/// Moves the loop's span aggregates into `result` and clears them for the
/// next loop (publishers have stopped, so no thread is recording).
void take_span_totals(LoopResult& result, spans::Name publish) {
  const spans::Aggregate published = spans::aggregate(publish);
  const spans::Aggregate checked = spans::aggregate(spans::Name::kBenchCheck);
  result.publish_self_sum += published.self_ns;
  result.publish_events += published.weight;
  result.check_sum += checked.total_ns;
  result.check_events += checked.weight;
  spans::reset_aggregates();
}

/// Per-phase drift bookkeeping of the batch loop (cycle windows).
struct DriftTracker {
  std::vector<double> block_ops;  // ops/event per 1,024-event block, this phase
  std::uint64_t block_events = 0;
  std::uint64_t block_operations = 0;

  void add(std::uint64_t events, std::uint64_t operations,
           LoopResult& result) {
    block_events += events;
    block_operations += operations;
    if (block_events < 1024) return;
    block_ops.push_back(static_cast<double>(block_operations) /
                        static_cast<double>(block_events));
    block_events = 0;
    block_operations = 0;
    if (block_ops.size() * 1024 >= kPhase) {
      // Settled = the phase's last four blocks; recovery = events until
      // the first block within 10% of it.
      const std::size_t n = block_ops.size();
      double settled = 0;
      for (std::size_t b = n - 4; b < n; ++b) settled += block_ops[b] / 4.0;
      std::size_t first = n;
      for (std::size_t b = 0; b < n; ++b) {
        if (std::fabs(block_ops[b] - settled) <= 0.1 * settled) {
          first = b;
          break;
        }
      }
      result.recovery_events.push_back(static_cast<double>(first * 1024));
      ++result.phases;
      block_ops.clear();
    }
  }
};

}  // namespace

LocalSetup setup_local(Run& run, const Inputs& inputs, const Reference& ref,
                       bool repeat, bool with_composites) {
  LocalSetup setup;
  std::vector<NotificationCallback> callbacks;
  callbacks.reserve(inputs.profiles.size());
  for (std::size_t k = 0; k < inputs.profiles.size(); ++k) {
    callbacks.push_back(make_callback(static_cast<std::uint32_t>(k)));
  }
  std::vector<CompositeExprPtr> expressions;
  if (with_composites) {
    for (const CompositeSpec& spec : inputs.composites) {
      expressions.push_back(composite_expression(inputs, spec));
    }
  }
  std::vector<Event>& pool = run.pools[0];
  double spent = 0;
  for (std::size_t rep = 0; rep == 0 || (repeat && run.another_setup(rep, spent)); ++rep) {
    setup.local = LocalBroker{};  // tears the previous broker down untimed
    // Each setup runs on a thread of its own: a thread's snapshot cache
    // keeps the last snapshot of every broker it published to alive, and
    // the thread's exit releases it, so torn-down brokers add no memory.
    std::thread([&] {
      LocalSink sink;
      tl_sink = &sink;
      const auto start = Clock::now();
      auto broker = std::make_unique<Broker>(inputs.schema, inputs.engine);
      if (with_composites) broker->set_composite_skew(inputs.composite_skew);
      const auto subscribe_start = Clock::now();
      for (std::size_t k = 0; k < inputs.profiles.size(); ++k) {
        broker->subscribe(inputs.profiles[k], callbacks[k]);
      }
      for (const CompositeExprPtr& expression : expressions) {
        broker->subscribe_composite(expression, [](const CompositeFiring&) {});
      }
      const double subscribe_s = seconds_since(subscribe_start);
      stamp(pool, 0, kBatch);
      const auto publish_start = Clock::now();
      broker->publish_batch({pool.data(), kBatch});
      const double publish_s = seconds_since(publish_start);
      setup.setup_s.push_back(seconds_since(start));
      const std::size_t subs =
          std::max<std::size_t>(1, inputs.profiles.size() + expressions.size());
      setup.subscribe_us.push_back(1e6 * subscribe_s / static_cast<double>(subs));
      setup.first_publish_ms.push_back(1e3 * publish_s);
      run.tally.add(sink.ledger.verify(0, kBatch, ref));
      setup.local.broker = std::move(broker);
      tl_sink = nullptr;
    }).join();
    spent += setup.setup_s.back();
  }
  setup.local.callbacks = std::move(callbacks);
  setup.local.next_seq = kBatch;
  return setup;
}

LoopResult run_batch_loop(Run& run, LocalBroker& local, const Reference& ref,
                          const LoopPlan& plan) {
  LoopResult result;
  Broker& broker = *local.broker;
  std::vector<Event>& pool = run.pools[0];
  LocalSink sink;
  tl_sink = &sink;
  std::uint64_t seq = (local.next_seq + kBatch - 1) / kBatch * kBatch;

  std::uint64_t fixed_events = 0;
  std::uint64_t fixed_operations = 0;
  DriftTracker drift;
  bool measuring = false;

  // One batch: publish, time it, verify its deliveries.
  const auto batch = [&](LatencyHistogram* latency) {
    stamp(pool, seq, kBatch);
    const std::uint64_t t0 = now_ns();
    BatchPublishResult published;
    {
      const spans::Span span(spans::Name::kEnsPublishBatch, seq, true, kBatch);
      published = broker.publish_batch({pool.data() + seq % kPool, kBatch});
    }
    const std::uint64_t elapsed = now_ns() - t0;
    {
      const spans::Span span(spans::Name::kBenchCheck, seq, true, kBatch);
      run.tally.add(sink.ledger.verify(seq, seq + kBatch, ref));
    }
    // Every event of a batch waits for the whole call.
    if (latency != nullptr) latency->record(elapsed, kBatch);
    if (measuring) {
      result.events += kBatch;
      if (fixed_events < kPool) {
        fixed_events += kBatch;
        fixed_operations += published.operations;
      }
      if (plan.cycle_windows) {
        if (published.rebuilt) {
          ++result.rebuilds;
          result.stall_ms.push_back(static_cast<double>(elapsed) / 1e6);
        }
        drift.add(kBatch, published.operations, result);
      }
    }
    seq += kBatch;
  };

  // Warm-up: a time slice, or up to the next drift phase boundary.
  if (plan.cycle_windows) {
    while (seq % kPhase != 0) batch(nullptr);
  } else {
    const auto start = Clock::now();
    while (seconds_since(start) < plan.warmup_s) batch(nullptr);
  }

  measuring = true;
  const std::uint64_t deliveries_before = sink.deliveries;
  for (std::size_t w = 0; w < plan.windows; ++w) {
    const bool alternate = plan.alternate(w);
    spans::set_active(plan.alternate_trace && alternate);
    LatencyHistogram* latency = nullptr;
    if (!alternate) latency = &result.latency.emplace_back();
    const std::uint64_t first = seq;
    const auto start = Clock::now();
    if (plan.cycle_windows) {
      while (seq < first + kPool) batch(latency);
    } else {
      while (seconds_since(start) < plan.window_s) batch(latency);
    }
    const double rate = static_cast<double>(seq - first) / seconds_since(start);
    (alternate ? result.alt_rates : result.rates).push_back(rate);
  }
  spans::set_active(false);
  result.deliveries = sink.deliveries - deliveries_before;
  result.fixed_ops_per_event =
      fixed_events == 0 ? 0.0
                        : static_cast<double>(fixed_operations) /
                              static_cast<double>(fixed_events);
  take_span_totals(result, spans::Name::kEnsPublishBatch);
  local.next_seq = seq;
  tl_sink = nullptr;
  return result;
}

namespace {

/// Publishes kBatch events one call at a time from `seq` on, then verifies
/// their deliveries; every `sample_every`-th publish is timed (latency) and
/// spanned.
struct EventChunk {
  std::uint64_t operations = 0;
  std::uint64_t deliveries = 0;
};

EventChunk publish_chunk(Broker& broker, std::vector<Event>& pool,
                         LocalSink& sink, const Reference& ref,
                         std::uint64_t& seq, std::uint64_t& j,
                         LatencyHistogram& latency, Tally& tally,
                         std::uint64_t sample_every = 8) {
  EventChunk chunk;
  const std::uint64_t first = seq;
  const std::uint64_t deliveries_before = sink.deliveries;
  for (std::size_t i = 0; i < kBatch; ++i, ++seq, ++j) {
    Event& event = pool[seq % kPool];
    event.set_time(static_cast<Timestamp>(seq));
    const bool sampled = j % sample_every == 0;
    const std::uint64_t t0 = sampled ? now_ns() : 0;
    PublishResult published;
    {
      const spans::Span span(spans::Name::kEnsPublish, seq, sampled);
      published = broker.publish(event);
    }
    if (sampled) latency.record(now_ns() - t0);
    chunk.operations += published.operations;
  }
  {
    const spans::Span span(spans::Name::kBenchCheck, first, true, kBatch);
    tally.add(sink.ledger.verify(first, seq, ref));
  }
  chunk.deliveries = sink.deliveries - deliveries_before;
  return chunk;
}

/// Single-threaded per-event loop whose windows are whole drift cycles
/// (filter_drift's throughput_1t_eps).
LoopResult run_event_cycles(Run& run, LocalBroker& local, const Reference& ref,
                            const LoopPlan& plan) {
  LoopResult result;
  std::vector<Event>& pool = run.pools[0];
  LocalSink sink;
  tl_sink = &sink;
  std::uint64_t seq = (local.next_seq + kBatch - 1) / kBatch * kBatch;
  std::uint64_t j = 0;
  LatencyHistogram warmup;
  while (seq % kPhase != 0) {
    publish_chunk(*local.broker, pool, sink, ref, seq, j, warmup, run.tally, 1);
  }
  for (std::size_t w = 0; w < plan.windows; ++w) {
    const bool alternate = plan.alternate(w);
    spans::set_active(plan.alternate_trace && alternate);
    LatencyHistogram scratch;
    LatencyHistogram& latency =
        alternate ? scratch : result.latency.emplace_back();
    const std::uint64_t first = seq;
    const auto start = Clock::now();
    while (seq < first + kPool) {
      // Rebuild stalls land on single publishes: time every one.
      const EventChunk chunk = publish_chunk(*local.broker, pool, sink, ref,
                                             seq, j, latency, run.tally, 1);
      result.deliveries += chunk.deliveries;
      if (result.events < kPool) result.fixed_ops_per_event += chunk.operations;
      result.events += kBatch;
    }
    (alternate ? result.alt_rates : result.rates)
        .push_back(static_cast<double>(kPool) / seconds_since(start));
  }
  spans::set_active(false);
  result.fixed_ops_per_event /= static_cast<double>(kPool);
  take_span_totals(result, spans::Name::kEnsPublish);
  local.next_seq = seq;
  tl_sink = nullptr;
  return result;
}

}  // namespace

LoopResult run_event_loop(Run& run, LocalBroker& local, const Reference& ref,
                          const LoopPlan& plan, std::size_t threads) {
  if (plan.cycle_windows) return run_event_cycles(run, local, ref, plan);
  LoopResult result;
  Broker& broker = *local.broker;
  const std::size_t windows = plan.windows;
  // Window the publishers record into: 0 = not measured (warm-up and
  // after the last window), w + 1 = window w.
  std::atomic<std::size_t> window{0};
  std::atomic<bool> stop{false};

  struct alignas(64) Publisher {
    std::atomic<std::uint64_t> events{0};  ///< read by the window clock
    std::uint64_t measured = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t fixed_events = 0;
    std::uint64_t fixed_operations = 0;
    Tally tally;
    std::vector<LatencyHistogram> latency;
  };
  std::vector<Publisher> publishers(threads);
  const std::uint64_t base = local.next_seq;

  const auto publish_loop = [&](std::size_t t) {
    Publisher& me = publishers[t];
    me.latency.resize(windows + 1);
    std::vector<Event>& pool = run.pools[t];
    LocalSink sink;
    tl_sink = &sink;
    std::uint64_t seq = t * kThreadSeqStride + base;
    std::uint64_t j = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::size_t w = window.load(std::memory_order_relaxed);
      const EventChunk chunk = publish_chunk(broker, pool, sink, ref, seq, j,
                                             me.latency[w], me.tally);
      if (w > 0) {
        me.measured += kBatch;
        me.deliveries += chunk.deliveries;
        if (me.fixed_events < kPool) {
          me.fixed_events += kBatch;
          me.fixed_operations += chunk.operations;
        }
      }
      me.events.store(j, std::memory_order_relaxed);
    }
    tl_sink = nullptr;
  };

  const auto total_events = [&] {
    std::uint64_t sum = 0;
    for (const Publisher& p : publishers) {
      sum += p.events.load(std::memory_order_relaxed);
    }
    return sum;
  };

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(publish_loop, t);
  std::this_thread::sleep_for(std::chrono::duration<double>(plan.warmup_s));
  for (std::size_t w = 0; w < windows; ++w) {
    const bool alternate = plan.alternate(w);
    spans::set_active(plan.alternate_trace && alternate);
    if (plan.alternate_obs) {
      broker.set_trace_period(alternate ? 0 : obs::kDefaultTracePeriod);
    }
    window.store(w + 1, std::memory_order_relaxed);
    const std::uint64_t before = total_events();
    const auto start = Clock::now();
    std::this_thread::sleep_for(std::chrono::duration<double>(plan.window_s));
    const std::uint64_t after = total_events();
    const double elapsed = seconds_since(start);
    (alternate ? result.alt_rates : result.rates)
        .push_back(static_cast<double>(after - before) / elapsed);
  }
  spans::set_active(false);
  broker.set_trace_period(obs::kDefaultTracePeriod);
  window.store(0, std::memory_order_relaxed);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& worker : workers) worker.join();

  std::uint64_t fixed_events = 0;
  std::uint64_t fixed_operations = 0;
  std::uint64_t max_events = 0;
  for (Publisher& p : publishers) {
    run.tally.add(p.tally);
    result.events += p.measured;
    result.deliveries += p.deliveries;
    fixed_events += p.fixed_events;
    fixed_operations += p.fixed_operations;
    max_events = std::max(max_events, p.events.load());
  }
  result.fixed_ops_per_event =
      fixed_events == 0 ? 0.0
                        : static_cast<double>(fixed_operations) /
                              static_cast<double>(fixed_events);
  for (std::size_t w = 0; w < windows; ++w) {
    if (plan.alternate(w)) continue;
    LatencyHistogram merged;
    for (const Publisher& p : publishers) merged.merge(p.latency[w + 1]);
    result.latency.push_back(std::move(merged));
  }
  take_span_totals(result, spans::Name::kEnsPublish);
  local.next_seq = base + max_events + kBatch;
  return result;
}

double local_callback_ns(const LocalBroker& local, const Reference& ref,
                         const Inputs& inputs) {
  // Replays up to 4,096 of the pool's real deliveries through the
  // registered callback objects, many times over.
  std::vector<std::pair<const NotificationCallback*, Notification>> calls;
  for (std::size_t i = 0; i < ref.pool_size() && calls.size() < 4096; ++i) {
    for (const std::uint32_t k : ref.matches(i)) {
      calls.emplace_back(&local.callbacks[k], Notification{k, inputs.pool[i]});
    }
  }
  LocalSink scratch(1 << 16);
  tl_sink = &scratch;
  const double ns = ns_per_item(0.1, calls.size(), [&] {
    for (const auto& [callback, notification] : calls) (*callback)(notification);
  });
  tl_sink = nullptr;
  return ns;
}

void report_latency(Run& run, const std::vector<LatencyHistogram>& windows) {
  std::vector<double> p50;
  std::vector<double> p99;
  std::size_t samples = 0;
  for (const LatencyHistogram& h : windows) {
    if (h.count() == 0) continue;
    p50.push_back(h.quantile(0.5) / 1e3);
    p99.push_back(h.quantile(0.99) / 1e3);
    samples += h.count();
  }
  run.report.e2e("latency_p50_us", summarize(p50), samples);
  run.report.e2e("latency_p99_us", summarize(p99), samples);
}

void report_local_layers(Run& run, const LocalSetup& setup,
                         const LoopResult* batch, const LoopResult* single,
                         const LoopResult* triple, double callback_ns) {
  Report& r = run.report;
  r.layer_default("ens.subscribe_us", median_of(setup.subscribe_us));
  r.layer_default("ens.first_publish_ms", median_of(setup.first_publish_ms));
  r.layer_default("ens.callback_ns", callback_ns);
  // A publish that returns `rebuilt` stalls on the tree build; without
  // adaptive rebuilds, the first publish after setup is that publish.
  r.layer_default("core.rebuild_stall_ms_p50", median_of(setup.first_publish_ms));
  r.layer_default("core.rebuild_stall_ms_max",
                  *std::max_element(setup.first_publish_ms.begin(),
                                    setup.first_publish_ms.end()));
  const auto per_event = [](const LoopResult& loop, double value) {
    return loop.events == 0 ? 0.0 : value / static_cast<double>(loop.events);
  };
  if (batch != nullptr) {
    const double deliveries = per_event(*batch, static_cast<double>(batch->deliveries));
    r.layer_default("ens.deliveries_per_event", deliveries);
    r.layer_default("ens.publish_batch_ns",
                    batch->publish_self_ns() - callback_ns * deliveries);
  }
  if (single != nullptr) {
    const double deliveries = per_event(*single, static_cast<double>(single->deliveries));
    r.layer_default("ens.deliveries_per_event", deliveries);
    r.layer_default("ens.publish_ns_1t",
                    single->publish_self_ns() - callback_ns * deliveries);
  }
  if (triple != nullptr) {
    const double deliveries = per_event(*triple, static_cast<double>(triple->deliveries));
    r.layer_default("ens.publish_ns_3t",
                    triple->publish_self_ns() - callback_ns * deliveries);
    if (single != nullptr && !single->rates.empty() && !triple->rates.empty()) {
      r.layer_default("ens.scaling_3t_over_1t",
                      median_of(triple->rates) / median_of(single->rates));
    }
  }
}

void report_trace_overhead(Run& run, const LoopResult& loop) {
  if (loop.rates.empty() || loop.alt_rates.empty()) return;
  const double plain = median_of(loop.rates);
  run.report.layer_default(
      "bench.trace_overhead_pct",
      100.0 * (plain - median_of(loop.alt_rates)) / plain);
}

void report_closure(Run& run, const LoopResult& loop, double traced_ns) {
  if (loop.rates.empty()) return;
  const double loop_ns = 1e9 / median_of(loop.rates);
  run.report.note("bench.ledger_closure_pct", std::to_string(100.0 * traced_ns / loop_ns));
}

void LoopResult::absorb(const LoopResult& other) {
  rates.insert(rates.end(), other.rates.begin(), other.rates.end());
  alt_rates.insert(alt_rates.end(), other.alt_rates.begin(), other.alt_rates.end());
  latency.insert(latency.end(), other.latency.begin(), other.latency.end());
  if (events == 0) fixed_ops_per_event = other.fixed_ops_per_event;
  events += other.events;
  deliveries += other.deliveries;
  publish_self_sum += other.publish_self_sum;
  publish_events += other.publish_events;
  check_sum += other.check_sum;
  check_events += other.check_events;
  rebuilds += other.rebuilds;
  phases += other.phases;
  stall_ms.insert(stall_ms.end(), other.stall_ms.begin(), other.stall_ms.end());
  recovery_events.insert(recovery_events.end(), other.recovery_events.begin(),
                         other.recovery_events.end());
}

LoopPlan probe_plan(double window_s) {
  LoopPlan plan;
  plan.warmup_s = 0.1;
  plan.windows = 4;
  plan.window_s = window_s;
  plan.alternate_trace = true;
  return plan;
}

LoopPlan round_plan(const Run& run, double share, std::size_t rounds,
                    std::size_t round, double first_warmup_s) {
  LoopPlan plan;
  plan.windows = 1;
  plan.window_s = run.share(share) / static_cast<double>(rounds);
  plan.warmup_s = round == 0 && !run.options.quick ? first_warmup_s : 0.05;
  plan.window_offset = round;
  plan.alternate_trace = run.options.trace;
  return plan;
}

namespace {

void report_setup(Run& run, const LocalSetup& setup) {
  run.report.e2e("setup_s", summarize(setup.setup_s));
}

/// Traced-run layers common to the three in-process workloads.
void report_traced_local(Run& run, const Inputs& inputs, const Reference& ref,
                         LocalSetup& setup, const LoopResult* batch,
                         const LoopResult* single, const LoopResult* triple) {
  const double callback_ns = local_callback_ns(setup.local, ref, inputs);
  report_local_layers(run, setup, batch, single, triple, callback_ns);
  run_layer_probes(run, inputs, ref, &setup.local);
}

}  // namespace

void run_filter_static(Run& run, const Inputs& inputs, const Reference& ref) {
  LocalSetup setup = setup_local(run, inputs, ref, true);
  report_setup(run, setup);
  const std::size_t rounds = run.rounds();
  LoopResult batch;
  LoopResult single;
  for (std::size_t r = 0; r < rounds; ++r) {
    batch.absorb(run_batch_loop(run, setup.local, ref, round_plan(run, 0.6, rounds, r, 0.5)));
    single.absorb(
        run_event_loop(run, setup.local, ref, round_plan(run, 0.3, rounds, r, 0.2), 1));
  }
  run.report.e2e("throughput_eps", summarize(batch.rates));
  run.report.e2e("throughput_1t_eps", summarize(single.rates));
  report_latency(run, batch.latency);
  run.report.e2e("ops_per_event", batch.fixed_ops_per_event);
  if (!run.options.trace) return;

  report_trace_overhead(run, batch);
  report_closure(run, batch, batch.publish_self_ns() + batch.check_ns());
  run.report.layer("core.rebuilds_per_phase", 0);
  run.report.layer("core.recovery_events", 0);
  const LoopResult triple = run_event_loop(run, setup.local, ref, probe_plan(0.3), 3);
  report_traced_local(run, inputs, ref, setup, &batch, &single, &triple);
}

void run_filter_drift(Run& run, const Inputs& inputs, const Reference& ref) {
  LocalSetup setup = setup_local(run, inputs, ref, true);
  report_setup(run, setup);
  // Windows are whole drift cycles (both phases, one P_e flip each way),
  // interleaved batch / per-event while the budget lasts.
  LoopPlan plan;
  plan.cycle_windows = true;
  plan.windows = 1;
  plan.alternate_trace = run.options.trace;
  // A traced run needs plain and traced rounds (alternating).
  const std::size_t min_rounds = (run.options.quick ? 1 : 2) * (run.options.trace ? 2 : 1);
  LoopResult batch;
  LoopResult single;
  const auto start = Clock::now();
  if (!run.options.quick) {
    // One untimed loop first: the rebuilds of the first drift cycle after
    // setup run on a heap that is still growing, up to 30% slower.
    LoopPlan warmup = plan;
    warmup.alternate_trace = false;
    run_batch_loop(run, setup.local, ref, warmup);
  }
  double round_s = 0;
  for (std::size_t r = 0;
       r < min_rounds || seconds_since(start) + round_s < run.share(0.9); ++r) {
    const auto round_start = Clock::now();
    plan.window_offset = r;
    batch.absorb(run_batch_loop(run, setup.local, ref, plan));
    single.absorb(run_event_loop(run, setup.local, ref, plan, 1));
    round_s = seconds_since(round_start);
  }
  run.report.e2e("throughput_eps", summarize(batch.rates));
  run.report.e2e("throughput_1t_eps", summarize(single.rates));
  report_latency(run, batch.latency);
  run.report.e2e("ops_per_event", batch.fixed_ops_per_event);
  if (!run.options.trace) return;

  report_trace_overhead(run, batch);
  report_closure(run, batch, batch.publish_self_ns() + batch.check_ns());
  Report& r = run.report;
  r.layer("core.rebuilds_per_phase",
          batch.phases == 0 ? 0.0
                            : static_cast<double>(batch.rebuilds) /
                                  static_cast<double>(batch.phases));
  if (!batch.stall_ms.empty()) {
    r.layer("core.rebuild_stall_ms_p50", median_of(batch.stall_ms));
    r.layer("core.rebuild_stall_ms_max",
            *std::max_element(batch.stall_ms.begin(), batch.stall_ms.end()));
  }
  r.layer("core.recovery_events", median_of(batch.recovery_events));
  const LoopResult triple = run_event_loop(run, setup.local, ref, probe_plan(0.5), 3);
  report_traced_local(run, inputs, ref, setup, &batch, &single, &triple);
}

void run_fanout_local(Run& run, const Inputs& inputs, const Reference& ref) {
  LocalSetup setup = setup_local(run, inputs, ref, true);
  report_setup(run, setup);
  const std::size_t rounds = run.rounds();
  LoopResult one;
  LoopResult three;
  for (std::size_t r = 0; r < rounds; ++r) {
    one.absorb(run_event_loop(run, setup.local, ref, round_plan(run, 0.45, rounds, r, 0.3), 1));
    three.absorb(
        run_event_loop(run, setup.local, ref, round_plan(run, 0.45, rounds, r, 0.3), 3));
  }
  run.report.e2e("throughput_eps", summarize(three.rates));
  run.report.e2e("throughput_1t_eps", summarize(one.rates));
  report_latency(run, three.latency);
  run.report.e2e("ops_per_event", one.fixed_ops_per_event);
  if (!run.options.trace) return;

  report_trace_overhead(run, three);
  report_closure(run, one, one.publish_self_ns() + one.check_ns());
  run.report.layer("core.rebuilds_per_phase", 0);
  run.report.layer("core.recovery_events", 0);
  const LoopResult batch = run_batch_loop(run, setup.local, ref, probe_plan(0.3));
  report_traced_local(run, inputs, ref, setup, &batch, &one, &three);
}

}  // namespace gb
