#include "tree/search.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace genas {

std::string_view to_string(SearchStrategy strategy) noexcept {
  switch (strategy) {
    case SearchStrategy::kLinear:        return "linear";
    case SearchStrategy::kBinary:        return "binary";
    case SearchStrategy::kInterpolation: return "interpolation";
    case SearchStrategy::kHash:          return "hash";
  }
  return "?";
}

namespace {

using Costs = std::span<std::uint32_t>;

/// Indices of edge cells in interval order.
std::vector<std::size_t> edge_indices(const CellLayout& layout) {
  std::vector<std::size_t> edges;
  for (std::size_t i = 0; i < layout.cells.size(); ++i) {
    if (layout.is_edge[i]) edges.push_back(i);
  }
  return edges;
}

/// Writes 1-based interval-order ranks of the edge cells (0 for gaps).
void rank_in_interval_order(const CellLayout& layout, Costs scan_rank) {
  if (scan_rank.empty()) return;
  std::uint32_t rank = 0;
  for (std::size_t i = 0; i < layout.cells.size(); ++i) {
    scan_rank[i] = layout.is_edge[i] ? ++rank : 0;
  }
}

void plan_linear(const CellLayout& layout, Costs cost, Costs scan_rank) {
  const std::size_t k = layout.cells.size();
  // Scan positions over ALL cells: sort by key descending, ties by natural
  // interval order (paper: "the order of values with equal selectivity is
  // arbitrary (such as the natural order)").
  std::vector<std::uint32_t> by_position(k);
  std::iota(by_position.begin(), by_position.end(), 0U);
  std::stable_sort(by_position.begin(), by_position.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return layout.order_key[a] > layout.order_key[b];
                   });
  const auto edge_count = static_cast<std::uint32_t>(
      std::count(layout.is_edge.begin(), layout.is_edge.end(), true));

  // One pass in scan-position order. Edges get their 1-based rank in the
  // scan list (which contains only edges); a gap cell at this position obeys
  // the early-stop rule of Example 5: the edges with smaller positions are
  // scanned, then one more comparison against the first edge with a larger
  // position reveals the miss — capped at the full list when every edge
  // precedes the target.
  std::uint32_t edges_seen = 0;
  for (const std::uint32_t cell : by_position) {
    if (layout.is_edge[cell]) {
      cost[cell] = ++edges_seen;
      if (!scan_rank.empty()) scan_rank[cell] = edges_seen;
    } else {
      cost[cell] = std::min(edge_count, edges_seen + 1);
      if (!scan_rank.empty()) scan_rank[cell] = 0;
    }
  }
}

void plan_binary(const CellLayout& layout, Costs cost, Costs scan_rank) {
  const std::size_t k = layout.cells.size();
  const std::vector<std::size_t> edges = edge_indices(layout);
  rank_in_interval_order(layout, scan_rank);
  for (std::size_t i = 0; i < k; ++i) {
    const DomainIndex v = layout.cells[i].lo;  // any representative works:
    // cells are elementary, so all their values relate identically to edges
    std::uint32_t ops = 0;
    std::int64_t lo = 0;
    auto hi = static_cast<std::int64_t>(edges.size()) - 1;
    while (lo <= hi) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      const Interval& probe = layout.cells[edges[static_cast<std::size_t>(mid)]];
      ++ops;
      if (probe.contains(v)) break;
      if (v < probe.lo) {
        hi = mid - 1;
      } else {
        lo = mid + 1;
      }
    }
    cost[i] = ops;
  }
}

void plan_interpolation(const CellLayout& layout, Costs cost, Costs scan_rank) {
  const std::size_t k = layout.cells.size();
  const std::vector<std::size_t> edges = edge_indices(layout);
  rank_in_interval_order(layout, scan_rank);
  for (std::size_t i = 0; i < k; ++i) {
    const DomainIndex v = layout.cells[i].lo;
    std::uint32_t ops = 0;
    std::int64_t lo = 0;
    auto hi = static_cast<std::int64_t>(edges.size()) - 1;
    while (lo <= hi) {
      const DomainIndex lo_val = layout.cells[edges[static_cast<std::size_t>(lo)]].lo;
      const DomainIndex hi_val = layout.cells[edges[static_cast<std::size_t>(hi)]].hi;
      std::int64_t probe_at = lo;
      if (hi_val > lo_val && v >= lo_val && v <= hi_val) {
        const double frac = static_cast<double>(v - lo_val) /
                            static_cast<double>(hi_val - lo_val);
        probe_at = lo + static_cast<std::int64_t>(
                            frac * static_cast<double>(hi - lo));
        probe_at = std::clamp(probe_at, lo, hi);
      } else if (v > hi_val) {
        probe_at = hi;
      }
      const Interval& probe =
          layout.cells[edges[static_cast<std::size_t>(probe_at)]];
      ++ops;
      if (probe.contains(v)) break;
      if (v < probe.lo) {
        hi = probe_at - 1;
      } else {
        lo = probe_at + 1;
      }
    }
    cost[i] = ops;
  }
}

void plan_hash(const CellLayout& layout, Costs cost, Costs scan_rank) {
  // Idealized hash table over cells: one probe resolves edge or miss.
  std::fill(cost.begin(), cost.end(), 1U);
  rank_in_interval_order(layout, scan_rank);
}

}  // namespace

void plan_costs(const CellLayout& layout, SearchStrategy strategy,
                std::span<std::uint32_t> cost,
                std::span<std::uint32_t> scan_rank) {
  const std::size_t k = layout.cells.size();
  GENAS_REQUIRE(layout.is_edge.size() == k && layout.order_key.size() == k &&
                    cost.size() == k && (scan_rank.empty() || scan_rank.size() == k),
                ErrorCode::kInvalidArgument,
                "cell layout vectors and cost tables must be equal-sized");
  for (std::size_t i = 1; i < k; ++i) {
    GENAS_REQUIRE(layout.cells[i - 1].hi + 1 == layout.cells[i].lo,
                  ErrorCode::kInvalidArgument,
                  "cells must partition the domain contiguously");
  }
  switch (strategy) {
    case SearchStrategy::kLinear:        return plan_linear(layout, cost, scan_rank);
    case SearchStrategy::kBinary:        return plan_binary(layout, cost, scan_rank);
    case SearchStrategy::kInterpolation: return plan_interpolation(layout, cost, scan_rank);
    case SearchStrategy::kHash:          return plan_hash(layout, cost, scan_rank);
  }
  throw_error(ErrorCode::kInternal, "unknown search strategy");
}

CellCosts plan_costs(const CellLayout& layout, SearchStrategy strategy) {
  CellCosts out;
  out.cost.resize(layout.cells.size());
  out.scan_rank.resize(layout.cells.size());
  plan_costs(layout, strategy, out.cost, out.scan_rank);
  return out;
}

}  // namespace genas
