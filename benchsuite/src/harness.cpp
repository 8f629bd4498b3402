#include "harness.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <thread>

namespace gb {

void wait_until_ns(std::uint64_t deadline_ns) noexcept {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= deadline_ns) return;
    const std::uint64_t left = deadline_ns - now;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 150'000));
    }
  }
}

double Summary::iqr_pct() const noexcept {
  if (n < 2 || median == 0.0) return 0.0;
  return 100.0 * (q3 - q1) / std::fabs(median);
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.values = values;
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                         : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n < 2) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  // statistics.quantiles(data, n=4, method="exclusive").
  const auto point = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = point(1);
  s.q3 = point(3);
  return s;
}

namespace {

constexpr unsigned kLinear = 128;   // exact buckets below 128 ns
constexpr unsigned kSubBits = 6;    // 64 buckets per octave above
constexpr unsigned kOctaves = 57;   // 2^7 .. 2^63

std::size_t bucket_of(std::uint64_t v) noexcept {
  if (v < kLinear) return static_cast<std::size_t>(v);
  const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));  // >= 7
  const std::uint64_t sub = (v >> (e - kSubBits)) & ((1u << kSubBits) - 1);
  return kLinear + (e - 7) * (1u << kSubBits) + static_cast<std::size_t>(sub);
}

/// [lower, upper) value range of bucket b.
std::pair<double, double> bucket_range(std::size_t b) noexcept {
  if (b < kLinear) return {static_cast<double>(b), static_cast<double>(b) + 1};
  const std::size_t rel = b - kLinear;
  const unsigned e = static_cast<unsigned>(rel >> kSubBits) + 7;
  const std::uint64_t sub = rel & ((1u << kSubBits) - 1);
  const double width = std::ldexp(1.0, static_cast<int>(e - kSubBits));
  const double lower = std::ldexp(1.0, static_cast<int>(e)) +
                       static_cast<double>(sub) * width;
  return {lower, lower + width};
}

}  // namespace

LatencyHistogram::LatencyHistogram()
    : buckets_(kLinear + kOctaves * (1u << kSubBits), 0) {}

void LatencyHistogram::record(std::uint64_t ns, std::uint64_t n) noexcept {
  buckets_[bucket_of(ns)] += n;
  count_ += n;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
}

void LatencyHistogram::clear() noexcept {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

double LatencyHistogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_ - 1);
  double seen = 0.0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    const double in_bucket = static_cast<double>(buckets_[b]);
    if (seen + in_bucket > rank) {
      const auto [lower, upper] = bucket_range(b);
      const double frac = (rank - seen + 0.5) / in_bucket;
      return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    }
    seen += in_bucket;
  }
  return bucket_range(buckets_.size() - 1).second;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void Report::e2e(const std::string& name, const Summary& summary,
                 std::size_t samples) {
  e2e_[name] = summary;
  samples_[name] = samples != 0 ? samples : summary.n;
}

void Report::e2e(const std::string& name, double value) {
  e2e(name, summarize({value}), 1);
}

void Report::layer(const std::string& name, double value) {
  layer_[name] = value;
}

void Report::layer_default(const std::string& name, double value) {
  layer_.emplace(name, value);
}

bool Report::has_layer(const std::string& name) const {
  return layer_.count(name) != 0;
}

double Report::layer_value(const std::string& name) const {
  const auto it = layer_.find(name);
  return it == layer_.end() ? 0.0 : it->second;
}

void Report::note(const std::string& key, const std::string& value) {
  notes_[key] = value;
}

}  // namespace gb
