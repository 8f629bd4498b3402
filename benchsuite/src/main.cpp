// genas_bench — runs one GENAS benchmark workload and prints its metrics.
//
//   genas_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--quick] [--detail <file.json>] [--trace-file <file.json>]
//
// Untraced (--trace 0), the run measures the end-to-end metrics; traced, it
// records harness spans around every layer call and reports the per-layer
// metrics instead. Every delivery and composite firing is checked against
// the reference. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is 0 only when the run is correct. README.md documents
// the workloads and every metric.
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "paths.hpp"
#include "spans.hpp"

namespace {

using namespace gb;

/// The point of a metric's window summary that a run reports.
enum class Pick { kMedian, kUpperQuartile, kLowerQuartile };

struct MetricSpec {
  const char* name;
  const char* unit;
  Pick pick = Pick::kMedian;
};

// Mirrors BENCHMARK.json ("end_to_end" and "per_layer"); run.py checks the
// two agree. Rates report the upper quartile of their windows and latencies
// the lower one, the quarter of the run that other tenants of a shared host
// slowed least: on such a host the windows of one run differ by up to 2x,
// and the share of slow ones changes from run to run, which moves the
// median of windows much more than the quartile (README.md, "Spread and
// bounds").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_eps", "events/s", Pick::kUpperQuartile},
    {"throughput_1t_eps", "events/s", Pick::kUpperQuartile},
    {"latency_p50_us", "us", Pick::kLowerQuartile},
    {"latency_p99_us", "us", Pick::kLowerQuartile},
    {"ops_per_event", "comparisons"},
    {"peak_rss_mb", "MiB"},
};

double picked(const Summary& s, Pick pick) {
  switch (pick) {
    case Pick::kUpperQuartile: return s.q3;
    case Pick::kLowerQuartile: return s.q1;
    case Pick::kMedian: break;
  }
  return s.median;
}

constexpr MetricSpec kPerLayer[] = {
    {"tree.walk_ns", "ns"},
    {"tree.ops_per_event", "comparisons"},
    {"tree.matches_per_event", "count"},
    {"tree.expected_ops_per_event", "comparisons"},
    {"tree.nodes", "count"},
    {"tree.build_ms", "ms"},
    {"core.match_batch_ns", "ns"},
    {"core.rebuilds_per_phase", "count"},
    {"core.rebuild_stall_ms_p50", "ms"},
    {"core.rebuild_stall_ms_max", "ms"},
    {"core.recovery_events", "events"},
    {"ens.publish_batch_ns", "ns"},
    {"ens.publish_ns_1t", "ns"},
    {"ens.publish_ns_3t", "ns"},
    {"ens.scaling_3t_over_1t", "ratio"},
    {"ens.overhead_ns", "ns"},
    {"ens.callback_ns", "ns"},
    {"ens.deliveries_per_event", "count"},
    {"ens.subscribe_us", "us"},
    {"ens.first_publish_ms", "ms"},
    {"ens.composite_ns", "ns"},
    {"ens.composite_firings_per_event", "count"},
    {"wire.encode_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"wire.delivery_encode_ns", "ns"},
    {"wire.bytes_per_event", "B"},
    {"mesh.publish_batch_us", "us"},
    {"mesh.wait_idle_ms", "ms"},
    {"mesh.ingress_wait_ns_p99", "ns"},
    {"mesh.publish_to_route_ns_p50", "ns"},
    {"mesh.publish_to_route_ns_p99", "ns"},
    {"mesh.link_events_per_frame", "events"},
    {"mesh.link_events_per_event", "count"},
    {"mesh.filter_ops_per_event", "comparisons"},
    {"mesh.routing_entries", "count"},
    {"mesh.callback_ns", "ns"},
    {"net.publish_us_p50", "us"},
    {"net.publish_us_p99", "us"},
    {"net.flush_rtt_us_p50", "us"},
    {"net.flush_rtt_us_p99", "us"},
    {"net.sustained_eps", "events/s"},
    {"net.frames_written_per_event", "count"},
    {"net.bytes_written_per_event", "B"},
    {"net.flush_barrier_ns_p99", "ns"},
    {"net.connect_ms", "ms"},
    {"net.subscribe_us", "us"},
    {"net.callback_ns", "ns"},
    {"obs.trace_sampling_overhead_pct", "%"},
    {"obs.scrape_ms", "ms"},
    {"bench.generator_lag_us_p99", "us"},
    {"bench.window_iqr_pct.setup_s", "%"},
    {"bench.window_iqr_pct.throughput_eps", "%"},
    {"bench.window_iqr_pct.throughput_1t_eps", "%"},
    {"bench.window_iqr_pct.latency_p50_us", "%"},
    {"bench.window_iqr_pct.latency_p99_us", "%"},
    {"bench.trace_overhead_pct", "%"},
};

/// Run-time cap: a run ends within 3 minutes even if a path wedges.
constexpr auto kWatchdog = std::chrono::seconds(170);

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

[[noreturn]] void usage(const char* why) {
  std::cerr << "genas_bench: " << why
            << "\nusage: genas_bench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--quick] [--detail <file>] [--trace-file <file>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--detail") {
      options.detail_path = value();
    } else if (arg == "--trace-file") {
      options.trace_path = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0 && options.seconds <= 60)) usage("--seconds must be in (0, 60]");
  return options;
}

/// Ends the process if the run outlives kWatchdog.
class Watchdog {
 public:
  Watchdog()
      : thread_([this] {
          std::unique_lock lock(mutex_);
          if (!cv_.wait_for(lock, kWatchdog, [this] { return done_; })) {
            std::cerr << "genas_bench: watchdog expired\n";
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      const std::scoped_lock lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // declared last: starts after the state it uses
};

void finalize(Run& run) {
  Report& r = run.report;
  r.e2e("peak_rss_mb", peak_rss_mb());
  for (const char* name :
       {"setup_s", "throughput_eps", "throughput_1t_eps", "latency_p50_us", "latency_p99_us"}) {
    const auto it = r.e2e_values().find(name);
    if (it != r.e2e_values().end()) {
      r.layer(std::string("bench.window_iqr_pct.") + name, it->second.iqr_pct());
    }
  }
}

void write_detail(const Run& run, bool correct) {
  std::ofstream out(run.options.detail_path);
  const Report& r = run.report;
  out << "{\"workload\": " << quoted(run.options.workload)
      << ", \"seed\": " << run.options.seed
      << ", \"seconds\": " << number(run.options.seconds)
      << ", \"trace\": " << (run.options.trace ? "true" : "false")
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << run.tally.expected
      << ", \"failed\": " << run.tally.failed
      << ", \"failed_frac\": " << number(run.tally.failed_frac())
      << ", \"compiler\": " << quoted(GENAS_BENCH_COMPILER) << ",\n \"end_to_end\": {";
  bool first = true;
  for (const MetricSpec& spec : kEndToEnd) {
    const auto it = r.e2e_values().find(spec.name);
    if (it == r.e2e_values().end()) continue;
    const Summary& s = it->second;
    out << (first ? "" : ",") << "\n  " << quoted(spec.name) << ": {\"value\": "
        << number(picked(s, spec.pick)) << ", \"unit\": " << quoted(spec.unit)
        << ", \"median\": " << number(s.median) << ", \"q1\": " << number(s.q1)
        << ", \"q3\": " << number(s.q3) << ", \"windows\": " << s.n
        << ", \"samples\": " << r.e2e_samples().at(spec.name) << ", \"window_values\": [";
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      out << (i == 0 ? "" : ", ") << number(s.values[i]);
    }
    out << "]}";
    first = false;
  }
  out << "},\n \"per_layer\": {";
  first = true;
  for (const auto& [name, value] : r.layer_values()) {
    out << (first ? "" : ",") << "\n  " << quoted(name) << ": " << number(value);
    first = false;
  }
  out << "},\n \"notes\": {";
  first = true;
  for (const auto& [key, value] : r.notes()) {
    out << (first ? "" : ",") << "\n  " << quoted(key) << ": " << quoted(value);
    first = false;
  }
  out << "},\n \"errors\": [";
  for (std::size_t i = 0; i < run.errors.size(); ++i) {
    out << (i == 0 ? "" : ", ") << quoted(run.errors[i]);
  }
  out << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  run.options = parse(argc, argv);
  const Watchdog watchdog;
  try {
    spans::set_enabled(run.options.trace);
    if (run.options.trace) spans::calibrate();

    const Inputs inputs = make_inputs(run.options.workload, run.options.seed);
    run.pools.assign(3, inputs.pool);
    const Reference ref(inputs.schema, inputs.profiles, inputs.pool);
    if (const std::size_t bad = ref.cross_check(inputs.profiles, inputs.pool, 512)) {
      run.fail("reference disagrees with NaiveMatcher on " + std::to_string(bad) +
               " pool events");
    }

    const std::string& w = run.options.workload;
    if (w == "filter_static") run_filter_static(run, inputs, ref);
    if (w == "filter_drift") run_filter_drift(run, inputs, ref);
    if (w == "fanout_local") run_fanout_local(run, inputs, ref);
    if (w == "mesh_line3") run_mesh_line3(run, inputs, ref);
    if (w == "socket_ladder") run_socket_ladder(run, inputs, ref);
    finalize(run);
  } catch (const std::exception& e) {
    std::cerr << "genas_bench: " << run.options.workload << ": " << e.what() << "\n";
    return 2;
  }

  // The metrics this run must print, with their values.
  std::vector<std::tuple<std::string, std::string, double>> metrics;
  const Report& r = run.report;
  if (!run.options.trace) {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = r.e2e_values().find(spec.name);
      if (it == r.e2e_values().end()) {
        run.fail(std::string("missing end-to-end metric ") + spec.name);
        continue;
      }
      metrics.emplace_back(spec.name, spec.unit, picked(it->second, spec.pick));
    }
  } else {
    for (const MetricSpec& spec : kPerLayer) {
      if (!r.has_layer(spec.name)) {
        run.fail(std::string("missing per-layer metric ") + spec.name);
        continue;
      }
      metrics.emplace_back(spec.name, spec.unit, r.layer_value(spec.name));
    }
  }
  for (const auto& [name, unit, value] : metrics) {
    if (!std::isfinite(value)) run.fail("non-finite value for " + name);
  }

  const bool correct = run.errors.empty() && run.tally.failed == 0 && run.tally.expected > 0;
  for (const std::string& error : run.errors) std::cerr << "genas_bench: " << error << "\n";
  if (!run.options.detail_path.empty()) write_detail(run, correct);
  if (run.options.trace && !run.options.trace_path.empty()) {
    spans::write_chrome_trace(run.options.trace_path);
  }

  for (const auto& [name, unit, value] : metrics) {
    std::cout << run.options.workload << ' ' << name << ' ' << number(value) << ' ' << unit
              << '\n';
  }
  for (const auto& [key, value] : r.notes()) {
    std::cout << run.options.workload << " note " << key << ' ' << value << '\n';
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(1, run.tally.expected)
       << ", \"failed\": " << run.tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit, value] : metrics) {
    json << (first ? "" : ", ") << quoted(name) << ": {\"value\": "
         << (std::isfinite(value) ? number(value) : "0") << ", \"unit\": " << quoted(unit)
         << "}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}
