#include "tree/decomposition.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace genas {

std::int64_t Decomposition::zero_size() const noexcept {
  std::int64_t total = 0;
  for (const Cell& cell : cells) {
    if (cell.is_zero()) total += cell.interval.size();
  }
  return total;
}

std::size_t Decomposition::covered_cell_count() const noexcept {
  std::size_t count = 0;
  for (const Cell& cell : cells) {
    if (!cell.is_zero()) ++count;
  }
  return count;
}

IntervalSet Decomposition::zero_subdomain() const {
  std::vector<Interval> zeros;
  for (const Cell& cell : cells) {
    if (cell.is_zero()) zeros.push_back(cell.interval);
  }
  return IntervalSet(std::move(zeros));
}

std::size_t Decomposition::locate(DomainIndex v) const noexcept {
  const auto it = std::lower_bound(
      cells.begin(), cells.end(), v,
      [](const Cell& cell, DomainIndex x) { return cell.interval.hi < x; });
  return static_cast<std::size_t>(it - cells.begin());
}

Decomposition decompose(const Interval& universe,
                        const std::vector<const IntervalSet*>& constraints) {
  GENAS_REQUIRE(!universe.empty(), ErrorCode::kInvalidArgument,
                "decomposition requires a non-empty universe");

  // Collect elementary boundaries: starts of intervals and one-past ends.
  std::vector<DomainIndex> bounds;
  bounds.push_back(universe.lo);
  bounds.push_back(universe.hi + 1);
  for (const IntervalSet* set : constraints) {
    GENAS_CHECK(set != nullptr, "null constraint in decomposition");
    for (const Interval& iv : set->intervals()) {
      const Interval clipped = iv.intersect(universe);
      if (clipped.empty()) continue;
      bounds.push_back(clipped.lo);
      bounds.push_back(clipped.hi + 1);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  const std::size_t raw_count = bounds.size() - 1;
  const auto position = [&](DomainIndex boundary) {
    return static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), boundary) -
        bounds.begin());
  };

  // Scatter each constraint interval onto the run of elementary cells it
  // covers (found by binary search on its two boundaries), CSR-style: count
  // first, then fill. Constraints are visited in index order, so every
  // cell's accepter list comes out sorted.
  struct Span {
    std::uint32_t constraint;
    std::size_t first;
    std::size_t last;  // one past
  };
  std::vector<Span> spans;
  std::vector<std::size_t> offset(raw_count + 1, 0);
  for (std::uint32_t c = 0; c < constraints.size(); ++c) {
    for (const Interval& iv : constraints[c]->intervals()) {
      const Interval clipped = iv.intersect(universe);
      if (clipped.empty()) continue;
      const Span span{c, position(clipped.lo), position(clipped.hi + 1)};
      for (std::size_t b = span.first; b < span.last; ++b) ++offset[b + 1];
      spans.push_back(span);
    }
  }
  for (std::size_t b = 0; b < raw_count; ++b) offset[b + 1] += offset[b];
  std::vector<std::uint32_t> accepters(offset[raw_count]);
  std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
  for (const Span& span : spans) {
    for (std::size_t b = span.first; b < span.last; ++b) {
      accepters[fill[b]++] = span.constraint;
    }
  }

  // Emit cells, merging a raw cell into its predecessor when the accepter
  // sets coincide — keeps cells maximal, matching the paper's subrange
  // notion.
  Decomposition out;
  out.cells.reserve(raw_count);
  for (std::size_t b = 0; b < raw_count; ++b) {
    const auto begin = accepters.begin() + static_cast<std::ptrdiff_t>(offset[b]);
    const auto end = accepters.begin() + static_cast<std::ptrdiff_t>(offset[b + 1]);
    const Interval interval{bounds[b], bounds[b + 1] - 1};
    if (!out.cells.empty() &&
        std::equal(out.cells.back().accepters.begin(),
                   out.cells.back().accepters.end(), begin, end)) {
      out.cells.back().interval.hi = interval.hi;
    } else {
      out.cells.push_back(Cell{interval, std::vector<std::uint32_t>(begin, end)});
    }
  }
  return out;
}

}  // namespace genas
