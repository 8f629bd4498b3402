// genas_bench — reading the obs registry from outside: per-window deltas of
// counters and histograms, summed over label sets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "obs/metrics.hpp"

namespace gb {

/// True when `name` is `base` or `base{labels}`.
inline bool metric_is(std::string_view name, std::string_view base) {
  return name.substr(0, base.size()) == base &&
         (name.size() == base.size() || name[base.size()] == '{');
}

/// Sum of the counter/gauge values of `base` over every label set.
inline std::int64_t metric_sum(const genas::obs::StatsSnapshot& snapshot,
                               std::string_view base) {
  std::int64_t total = 0;
  for (const auto& m : snapshot.metrics) {
    if (metric_is(m.name, base)) total += m.value;
  }
  return total;
}

/// Histogram `base` accumulated between two snapshots, merged over label
/// sets (all of which share bucket bounds).
inline genas::obs::MetricSnapshot histogram_delta(
    const genas::obs::StatsSnapshot& before,
    const genas::obs::StatsSnapshot& after, std::string_view base) {
  genas::obs::MetricSnapshot out;
  out.kind = genas::obs::MetricKind::kHistogram;
  const auto add = [&](const genas::obs::StatsSnapshot& snapshot, int sign) {
    for (const auto& m : snapshot.metrics) {
      if (!metric_is(m.name, base) || m.kind != genas::obs::MetricKind::kHistogram) {
        continue;
      }
      if (out.counts.empty()) {
        out.bounds = m.bounds;
        out.counts.assign(m.counts.size(), 0);
      }
      if (m.counts.size() != out.counts.size()) continue;
      for (std::size_t b = 0; b < m.counts.size(); ++b) {
        out.counts[b] += static_cast<std::uint64_t>(sign) * m.counts[b];
      }
      out.sum += static_cast<std::uint64_t>(sign) * m.sum;
    }
  };
  add(after, 1);
  add(before, -1);
  return out;
}

/// Adds histogram `delta` (same bucket bounds) into `total`.
inline void accumulate(genas::obs::MetricSnapshot& total,
                       const genas::obs::MetricSnapshot& delta) {
  if (total.counts.empty()) {
    total = delta;
    return;
  }
  if (delta.counts.size() != total.counts.size()) return;
  for (std::size_t b = 0; b < delta.counts.size(); ++b) total.counts[b] += delta.counts[b];
  total.sum += delta.sum;
}

}  // namespace gb
