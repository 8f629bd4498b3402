// genas_bench — the three paths an event can take (in-process broker, mesh,
// socket), each runnable as a workload's own measured path or, shortened,
// as a probe on another workload's inputs, plus the per-layer probes.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "checker.hpp"
#include "ens/broker.hpp"
#include "harness.hpp"
#include "inputs.hpp"

namespace gb {

/// State of one genas_bench process.
struct Run {
  Options options;
  Report report;
  Tally tally;  ///< every delivery and firing checked so far
  std::vector<std::string> errors;
  /// Mutable copies of the workload's pool, one per publishing thread,
  /// stamped with sequence numbers as they are published. Allocated before
  /// any broker: copies made later land in the holes torn-down brokers
  /// leave on the heap, which scatters the events and slows every walk.
  std::vector<std::vector<genas::Event>> pools;

  void fail(const std::string& what) { errors.push_back(what); }
  /// Whether to set up once more after `done` setups taking `spent_s`:
  /// setup_s is the median of at least 3 setups (1 when quick), and cheap
  /// setups repeat until 2 s is spent (at most 15), as their medians need
  /// more samples to settle.
  bool another_setup(std::size_t done, double spent_s) const {
    if (options.quick) return done < 1;
    return done < 3 || (done < 15 && spent_s < 2.0);
  }
  /// Scales a nominal duration to the run's --seconds budget.
  double share(double fraction) const { return options.seconds * fraction; }
  /// Rounds of an interleaved schedule: one a second (two when quick), so
  /// a metric spans many short windows and one slow stretch of the host
  /// moves few of them.
  std::size_t rounds() const {
    if (options.quick) return 2;
    return std::max<std::size_t>(2, static_cast<std::size_t>(options.seconds + 0.5));
  }
};

// --- In-process broker path (paths_filter.cpp) ----------------------------

/// A broker built the way a workload builds it, with harness callbacks.
struct LocalBroker {
  std::unique_ptr<genas::Broker> broker;
  std::vector<genas::NotificationCallback> callbacks;  ///< by reference index
  std::uint64_t next_seq = 0;
};

/// Setup (broker, subscriptions, first publish) measured once, or as often
/// as Run::another_setup asks when `repeat`; the last broker is kept.
struct LocalSetup {
  LocalBroker local;
  std::vector<double> setup_s;
  std::vector<double> subscribe_us;      ///< per subscription
  std::vector<double> first_publish_ms;  ///< the publish that builds the tree
};
LocalSetup setup_local(Run& run, const Inputs& inputs, const Reference& ref,
                       bool repeat, bool with_composites = false);

/// Result of a closed-loop publish phase.
struct LoopResult {
  std::vector<double> rates;      ///< events/s of the plain windows
  /// events/s of the alternate windows (spans recording, or the broker's
  /// own trace sampling off; see LoopPlan).
  std::vector<double> alt_rates;
  std::vector<LatencyHistogram> latency;  ///< per plain window
  std::uint64_t events = 0;           ///< all windows
  std::uint64_t deliveries = 0;
  /// Ops/event over the first kPool measured events (each pool event
  /// once), which repeats exactly for a fixed tree.
  double fixed_ops_per_event = 0;
  /// Traced windows: self time of the publish spans and time of the
  /// ledger checks, with the events each covered.
  double publish_self_sum = 0;
  std::uint64_t publish_events = 0;
  double check_sum = 0;
  std::uint64_t check_events = 0;
  // Drift bookkeeping (windows of whole drift cycles).
  std::uint64_t rebuilds = 0;
  std::uint64_t phases = 0;
  std::vector<double> stall_ms;       ///< publish calls that rebuilt
  std::vector<double> recovery_events;

  double publish_self_ns() const {
    return publish_events == 0 ? 0.0 : publish_self_sum / static_cast<double>(publish_events);
  }
  double check_ns() const {
    return check_events == 0 ? 0.0 : check_sum / static_cast<double>(check_events);
  }
  /// Adds a later loop of the same kind (workloads interleave short loops
  /// of each kind, so every metric samples the whole run).
  void absorb(const LoopResult& other);
};

struct LoopPlan {
  double warmup_s = 0.5;
  std::size_t windows = 6;
  double window_s = 1.0;
  /// filter_drift: windows are whole drift cycles (kPool events, one P_e
  /// flip each way) and warm-up runs to the next phase boundary.
  bool cycle_windows = false;
  /// Traced run: odd windows record spans.
  bool alternate_trace = false;
  /// obs probe: odd windows turn the broker's trace sampling off.
  bool alternate_obs = false;
  /// Index of this loop's first window in the run (odd = alternate).
  std::size_t window_offset = 0;

  bool alternate(std::size_t w) const {
    return (alternate_trace || alternate_obs) && (w + window_offset) % 2 == 1;
  }
};

/// Four windows of `window_s`, the odd ones traced: the short loops the
/// layer probes of a traced run use.
LoopPlan probe_plan(double window_s);

/// One window of `share` / `rounds` of the run's budget, the `round`-th of
/// an interleaved schedule (warm-up `first_warmup_s` in round 0 only).
LoopPlan round_plan(const Run& run, double share, std::size_t rounds,
                    std::size_t round, double first_warmup_s);

/// Closed loop of publish_batch(kBatch) calls on one thread.
LoopResult run_batch_loop(Run& run, LocalBroker& local, const Reference& ref,
                          const LoopPlan& plan);
/// Closed loop of per-event publish() calls on `threads` threads.
LoopResult run_event_loop(Run& run, LocalBroker& local, const Reference& ref,
                          const LoopPlan& plan, std::size_t threads);

/// Harness cost of one delivery callback (ns), measured by invoking the
/// registered callbacks directly.
double local_callback_ns(const LocalBroker& local, const Reference& ref,
                         const Inputs& inputs);

// --- Workloads ----------------------------------------------------------

void run_filter_static(Run& run, const Inputs& inputs, const Reference& ref);
void run_filter_drift(Run& run, const Inputs& inputs, const Reference& ref);
void run_fanout_local(Run& run, const Inputs& inputs, const Reference& ref);
void run_mesh_line3(Run& run, const Inputs& inputs, const Reference& ref);
void run_socket_ladder(Run& run, const Inputs& inputs, const Reference& ref);

// --- Mesh and socket paths (paths_mesh.cpp, paths_net.cpp) ----------------

/// Rounds of one window each: closed loop, single-event loop, open loop.
struct MeshPlan {
  bool repeat_setup = false;  ///< see Run::another_setup
  std::size_t rounds = 2;
  LoopPlan closed;            ///< publish_batch(256) at node 0 (one window)
  LoopPlan single;            ///< publish(event) at node 0 (one window)
  double open_rate = 100000;  ///< events/s of the open-loop windows
  double open_window_s = 0.25;
  bool trace = false;         ///< traced run: record spans
};
/// Runs the mesh path; reports e2e values when `as_workload`, and the
/// mesh.* layer values either way.
void run_mesh_path(Run& run, const Inputs& inputs, const MeshPlan& plan,
                   bool as_workload);

/// Rounds of one window each: closed loop, single-event loop, and the
/// open-loop rung whose latency is reported end to end; traced runs then
/// climb the rest of the ladder once.
struct NetPlan {
  bool repeat_setup = false;  ///< see Run::another_setup
  std::size_t rounds = 2;
  LoopPlan closed;            ///< 256 publishes, then flush() (one window)
  LoopPlan single;            ///< publish + flush per event (one window)
  double latency_rate = 8000;
  double latency_window_s = 0.25;
  std::vector<double> ladder = {4000, 16000, 32000, 64000, 128000};
  double ladder_s = 0.25;     ///< per rung
  bool trace = false;
};
void run_net_path(Run& run, const Inputs& inputs, const NetPlan& plan,
                  bool as_workload);

// --- Layer probes (probes.cpp) -------------------------------------------

/// tree.*, core.match_batch_ns, wire.*, ens.composite_*, obs.* on the
/// workload's inputs; mesh/socket/in-process probes for layers the
/// workload's own path did not cross. Run last in a traced run.
void run_layer_probes(Run& run, const Inputs& inputs, const Reference& ref,
                      LocalBroker* own_broker);

/// Reports ens.* values of an in-process loop pair on `local` (used by the
/// in-process workloads and by the probe for the other two).
void report_local_layers(Run& run, const LocalSetup& setup,
                         const LoopResult* batch, const LoopResult* single,
                         const LoopResult* triple, double callback_ns);

/// Builds the latency e2e summaries (median of per-window quantiles, µs).
void report_latency(Run& run, const std::vector<LatencyHistogram>& windows);

/// bench.trace_overhead_pct: plain windows against span-recording ones.
void report_trace_overhead(Run& run, const LoopResult& loop);

/// bench.ledger_closure_pct: the traced per-event time `traced_ns` (sum of
/// the loop's span self times) as a share of the loop's plain per-event
/// time, 1 / throughput.
void report_closure(Run& run, const LoopResult& loop, double traced_ns);

}  // namespace gb
