// genas_bench — measurement primitives shared by every workload: clocks,
// window summaries (median and quartiles, computed the way Python's
// statistics.quantiles does), a log-linear latency histogram, peak RSS, and
// the metric report a run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gb {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(Clock::time_point start) noexcept {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Waits until the steady clock reads `deadline_ns`: sleeps while more than
/// 200 µs remain, then spins (an open-loop generator must not oversleep).
void wait_until_ns(std::uint64_t deadline_ns) noexcept;

/// Median and quartiles of a set of window values.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
  std::vector<double> values;  ///< the summarized values, ascending

  /// Interquartile range as a percentage of the median (0 when n < 2).
  double iqr_pct() const noexcept;
};

/// Quartiles by the "exclusive" method of Python's statistics.quantiles
/// (n=4); with fewer than two values all three points are that value.
Summary summarize(std::vector<double> values);

inline double median_of(const std::vector<double>& values) {
  return summarize(values).median;
}

/// Runs `pass` (which handles `items_per_pass` items) once to warm caches,
/// then repeatedly for at least `seconds`; returns ns per item (0 when a
/// pass has no items).
template <typename Pass>
double ns_per_item(double seconds, std::size_t items_per_pass, Pass&& pass) {
  if (items_per_pass == 0) return 0.0;
  pass();
  std::uint64_t items = 0;
  const auto start = Clock::now();
  do {
    pass();
    items += items_per_pass;
  } while (seconds_since(start) < seconds);
  return 1e9 * seconds_since(start) / static_cast<double>(items);
}

/// Fixed-memory latency histogram with ~1.6% relative resolution: values
/// below 128 ns are exact, above that each power-of-two octave splits into
/// 64 linear buckets. Not thread-safe; merge per-thread instances.
class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records `n` observations of `ns`.
  void record(std::uint64_t ns, std::uint64_t n = 1) noexcept;
  void merge(const LatencyHistogram& other) noexcept;
  void clear() noexcept;

  std::uint64_t count() const noexcept { return count_; }
  /// q-quantile in nanoseconds, interpolated inside its bucket; 0 if empty.
  double quantile(double q) const noexcept;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// VmHWM of this process in MiB.
double peak_rss_mb();

/// Command-line options of one genas_bench run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string detail_path;  ///< optional detailed JSON (windows, quartiles)
  std::string trace_path;   ///< Chrome-trace output of a traced run
};

/// Values a run reports. End-to-end metrics keep their window summary so
/// the detail file can record median, quartiles and sample count.
class Report {
 public:
  void e2e(const std::string& name, const Summary& summary,
           std::size_t samples = 0);
  void e2e(const std::string& name, double value);
  void layer(const std::string& name, double value);
  /// Records a layer value only when none is present yet (workload-path
  /// measurements take precedence over probes).
  void layer_default(const std::string& name, double value);
  bool has_layer(const std::string& name) const;
  double layer_value(const std::string& name) const;
  void note(const std::string& key, const std::string& value);

  const std::map<std::string, Summary>& e2e_values() const { return e2e_; }
  const std::map<std::string, std::size_t>& e2e_samples() const {
    return samples_;
  }
  const std::map<std::string, double>& layer_values() const { return layer_; }
  const std::map<std::string, std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, Summary> e2e_;
  std::map<std::string, std::size_t> samples_;
  std::map<std::string, double> layer_;
  std::map<std::string, std::string> notes_;
};

/// Outcome of checking deliveries and composite firings against the
/// reference: `expected` items checked, `failed` of them missing,
/// duplicated or misrouted.
struct Tally {
  std::uint64_t expected = 0;
  std::uint64_t failed = 0;

  void add(const Tally& other) noexcept {
    expected += other.expected;
    failed += other.failed;
  }
  double failed_frac() const noexcept {
    return expected == 0 ? 0.0
                         : static_cast<double>(failed) /
                               static_cast<double>(expected);
  }
};

}  // namespace gb
