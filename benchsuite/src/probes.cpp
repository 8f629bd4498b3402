// Layer probes of the traced run: each times one module's public functions
// on the workload's own profiles and events, so every traced run reports
// every per-layer metric — from its own path where it crosses the layer,
// from a probe where it does not.
#include "core/filter_engine.hpp"
#include "paths.hpp"
#include "registry.hpp"
#include "tree/expected_cost.hpp"
#include "wire/batch.hpp"

namespace gb {
namespace {

using namespace genas;

/// tree.* and core.match_batch_ns on the static tree of the workload's
/// policy and prior (uniform when it has none).
void probe_tree(Run& run, const Inputs& inputs) {
  EngineOptions options = inputs.engine;
  options.adaptive.reset();
  FilterEngine engine(inputs.schema, options);
  for (const Profile& profile : inputs.profiles) engine.subscribe(profile);
  const auto build_start = Clock::now();
  const std::shared_ptr<const MatchSnapshot> snapshot = engine.snapshot();
  Report& r = run.report;
  r.layer("tree.build_ms", 1e3 * seconds_since(build_start));
  const FlatProfileTree& flat = *snapshot->flat;
  r.layer("tree.nodes", static_cast<double>(flat.node_count()));

  std::uint64_t ops = 0;
  std::uint64_t matches = 0;
  for (const Event& event : inputs.pool) {
    const FlatMatch match = flat.match(event);
    ops += match.operations;
    matches += match.matched_count;
  }
  r.layer("tree.ops_per_event", static_cast<double>(ops) / kPool);
  r.layer("tree.matches_per_event", static_cast<double>(matches) / kPool);
  r.layer("tree.expected_ops_per_event",
          expected_cost(*snapshot->tree, *inputs.event_distribution).ops_per_event);

  std::uint64_t sink = 0;
  r.layer("tree.walk_ns", ns_per_item(0.3, kPool, [&] {
            for (const Event& event : inputs.pool) sink += flat.match(event).operations;
          }));
  std::vector<ProfileId> matched;
  std::vector<std::size_t> offsets;
  r.layer("core.match_batch_ns", ns_per_item(0.3, kPool, [&] {
            for (std::size_t b = 0; b < kPool; b += kBatch) {
              sink += engine.match_batch({inputs.pool.data() + b, kBatch}, matched,
                                         offsets).operations;
            }
          }));
  if (sink == 0 && ops != 0) run.fail("tree probe lost its work");
}

/// wire.*: batch codec on the pool, deliveries from the reference.
void probe_wire(Run& run, const Inputs& inputs, const Reference& ref) {
  wire::EventBatchBuilder builder;
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t bytes = 0;
  for (std::size_t b = 0; b < kPool; b += kBatch) {
    for (std::size_t i = b; i < b + kBatch; ++i) builder.append(inputs.pool[i]);
    frames.push_back(builder.take_frame());
    bytes += frames.back().size();
  }
  Report& r = run.report;
  r.layer("wire.bytes_per_event", static_cast<double>(bytes) / kPool);
  std::size_t sink = 0;
  r.layer("wire.encode_ns", ns_per_item(0.2, kPool, [&] {
            for (std::size_t b = 0; b < kPool; b += kBatch) {
              for (std::size_t i = b; i < b + kBatch; ++i) builder.append(inputs.pool[i]);
              sink += builder.take_frame().size();
            }
          }));
  wire::EventArena arena;
  std::vector<Event> events;
  std::vector<std::uint64_t> tokens;
  r.layer("wire.decode_ns", ns_per_item(0.2, kPool, [&] {
            for (const auto& frame : frames) {
              sink += wire::decode_event_batch(frame, inputs.schema, arena, events, tokens);
              arena.recycle_all(events);
              tokens.clear();
            }
          }));
  // Deliveries framed 64 to a kDeliveryBatch (the server's default cap).
  wire::DeliveryBatchBuilder deliveries;
  r.layer("wire.delivery_encode_ns", ns_per_item(0.2, ref.pass_deliveries(), [&] {
            for (std::size_t i = 0; i < kPool; ++i) {
              for (const std::uint32_t k : ref.matches(i)) {
                deliveries.append(k, inputs.pool[i]);
                if (deliveries.pending() == 64) sink += deliveries.take_frame().size();
              }
            }
            if (!deliveries.empty()) sink += deliveries.take_frame().size();
          }));
  if (sink == 0) run.fail("wire probe produced no frames");
}

/// ens.composite_*: the same broker without and with the composites, on
/// the first 120 profiles (socket_ladder's shape), windows alternating
/// between the two.
void probe_composites(Run& run, const Inputs& inputs) {
  const Inputs probe = probe_inputs(inputs, 120, 24);
  const Reference ref(probe.schema, probe.profiles, probe.pool);
  LocalSetup plain = setup_local(run, probe, ref, false, false);
  LocalSetup composite = setup_local(run, probe, ref, false, true);
  const auto firings = [&] {
    return metric_sum(composite.local.broker->metrics().snapshot(),
                      "genas_composite_firings_total");
  };
  const std::int64_t before = firings();
  const std::uint64_t first_seq = composite.local.next_seq;
  std::vector<double> ns[2];
  for (std::size_t round = 0; round < 4; ++round) {
    LoopPlan plan;
    plan.warmup_s = 0.05;
    plan.windows = 1;
    plan.window_s = 0.15;
    for (const double rate : run_batch_loop(run, plain.local, ref, plan).rates) {
      ns[0].push_back(1e9 / rate);
    }
    for (const double rate : run_batch_loop(run, composite.local, ref, plan).rates) {
      ns[1].push_back(1e9 / rate);
    }
  }
  composite.local.broker->flush_composites();
  run.report.layer("ens.composite_ns", median_of(ns[1]) - median_of(ns[0]));
  run.report.layer("ens.composite_firings_per_event",
                   static_cast<double>(firings() - before) /
                       static_cast<double>(composite.local.next_seq - first_seq));
}

/// obs.trace_sampling_overhead_pct: one publisher, windows alternating the
/// broker's default trace sampling and sampling off (counters stay on).
void probe_trace_sampling(Run& run, LocalBroker& local, const Reference& ref) {
  LoopPlan plan;
  plan.warmup_s = 0.1;
  plan.windows = 8;
  plan.window_s = 0.2;
  plan.alternate_obs = true;
  const LoopResult loop = run_event_loop(run, local, ref, plan, 1);
  const double on = median_of(loop.rates);
  const double off = median_of(loop.alt_rates);
  run.report.layer("obs.trace_sampling_overhead_pct", 100.0 * (off - on) / off);
}

}  // namespace

void run_layer_probes(Run& run, const Inputs& inputs, const Reference& ref,
                      LocalBroker* own_broker) {
  probe_tree(run, inputs);
  probe_wire(run, inputs, ref);
  probe_composites(run, inputs);

  // In-process broker layers for the workloads whose path is not one.
  LocalSetup probe_setup;
  LocalBroker* local = own_broker;
  if (local == nullptr) {
    probe_setup = setup_local(run, inputs, ref, true);
    local = &probe_setup.local;
    const LoopResult batch = run_batch_loop(run, *local, ref, probe_plan(0.2));
    const LoopResult single = run_event_loop(run, *local, ref, probe_plan(0.2), 1);
    const LoopResult triple = run_event_loop(run, *local, ref, probe_plan(0.2), 3);
    report_local_layers(run, probe_setup, &batch, &single, &triple,
                        local_callback_ns(*local, ref, inputs));
    run.report.layer_default("core.rebuilds_per_phase", 0);
    run.report.layer_default("core.recovery_events", 0);
  }
  if (inputs.engine.adaptive) {
    // Adaptive rebuild stalls would swamp a few-percent difference: time
    // the sampling on the same profiles with the tree held fixed.
    Inputs fixed = probe_inputs(inputs, inputs.profiles.size(), 0);
    fixed.engine.adaptive.reset();
    LocalSetup fixed_setup = setup_local(run, fixed, ref, false);
    probe_trace_sampling(run, fixed_setup.local, ref);
  } else {
    probe_trace_sampling(run, *local, ref);
  }

  if (!run.report.has_layer("mesh.routing_entries")) {
    MeshPlan plan;
    plan.trace = true;
    plan.closed = probe_plan(0.3);
    plan.single = probe_plan(0.15);
    plan.closed.windows = plan.single.windows = 1;
    run_mesh_path(run, probe_inputs(inputs, 240, 0), plan, false);
  }
  if (!run.report.has_layer("net.sustained_eps")) {
    NetPlan plan;
    plan.trace = true;
    plan.closed = probe_plan(0.3);
    plan.single = probe_plan(0.1);
    plan.closed.windows = plan.single.windows = 1;
    run_net_path(run, probe_inputs(inputs, 120, 24), plan, false);
  }

  run.report.layer("ens.overhead_ns", run.report.layer_value("ens.publish_batch_ns") -
                                          run.report.layer_value("core.match_batch_ns"));
}

}  // namespace gb
