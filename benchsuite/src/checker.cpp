#include "checker.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "match/naive_matcher.hpp"

namespace gb {

std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Reference::Reference(const genas::SchemaPtr& schema,
                     const std::vector<genas::Profile>& profiles,
                     std::span<const genas::Event> pool,
                     const std::vector<std::uint32_t>& group_of)
    : pool_size_(pool.size()) {
  const std::size_t n = profiles.size();
  if (!group_of.empty()) {
    if (group_of.size() != n) {
      throw std::invalid_argument("reference: one group per profile");
    }
    groups_ = *std::max_element(group_of.begin(), group_of.end()) + 1;
  }
  const std::size_t words = (n + 63) / 64;
  const std::size_t attributes = schema->attribute_count();

  // accept[a][v] = bitset of profiles whose predicate on attribute a (or
  // don't-care) accepts domain index v.
  std::vector<std::vector<std::uint64_t>> accept(attributes);
  std::vector<std::size_t> domain(attributes);
  for (std::size_t a = 0; a < attributes; ++a) {
    domain[a] = static_cast<std::size_t>(
        schema->attribute(static_cast<genas::AttributeId>(a)).domain.size());
    accept[a].assign(domain[a] * words, 0);
    for (std::size_t k = 0; k < n; ++k) {
      const genas::Predicate* predicate =
          profiles[k].predicate(static_cast<genas::AttributeId>(a));
      for (std::size_t v = 0; v < domain[a]; ++v) {
        if (predicate == nullptr ||
            predicate->matches_index(static_cast<genas::DomainIndex>(v))) {
          accept[a][v * words + k / 64] |= 1ULL << (k % 64);
        }
      }
    }
  }

  counts_.assign(pool.size() * groups_, 0);
  hashes_.assign(pool.size() * groups_, 0);
  offsets_.reserve(pool.size() + 1);
  offsets_.push_back(0);
  std::vector<std::uint64_t> row(words);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    std::fill(row.begin(), row.end(), ~0ULL);
    for (std::size_t a = 0; a < attributes; ++a) {
      const std::size_t v =
          static_cast<std::size_t>(pool[i].index(static_cast<genas::AttributeId>(a)));
      const std::uint64_t* bits = &accept[a][v * words];
      for (std::size_t w = 0; w < words; ++w) row[w] &= bits[w];
    }
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = row[w];
      while (bits != 0) {
        const std::size_t k = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (k >= n) break;
        const std::size_t g = group_of.empty() ? 0 : group_of[k];
        ++counts_[i * groups_ + g];
        hashes_[i * groups_ + g] += mix(k);
        matched_.push_back(static_cast<std::uint32_t>(k));
      }
    }
    offsets_.push_back(static_cast<std::uint32_t>(matched_.size()));
  }
}

std::size_t Reference::cross_check(const std::vector<genas::Profile>& profiles,
                                   std::span<const genas::Event> pool,
                                   std::size_t samples) const {
  if (profiles.empty() || pool.empty()) return 0;
  genas::ProfileSet set(profiles.front().schema());
  std::vector<std::uint32_t> reference_of;
  for (std::size_t k = 0; k < profiles.size(); ++k) {
    const genas::ProfileId id = set.add(profiles[k]);
    if (reference_of.size() <= id) reference_of.resize(id + 1);
    reference_of[id] = static_cast<std::uint32_t>(k);
  }
  const genas::NaiveMatcher naive(set);
  std::size_t mismatches = 0;
  const std::size_t step = std::max<std::size_t>(1, pool.size() / samples);
  for (std::size_t i = 0; i < pool.size(); i += step) {
    std::vector<std::uint32_t> got;
    for (const genas::ProfileId id : naive.match(pool[i]).matched) {
      got.push_back(reference_of[id]);
    }
    std::sort(got.begin(), got.end());
    const auto expected = matches(i);
    if (!std::equal(got.begin(), got.end(), expected.begin(), expected.end())) {
      ++mismatches;
    }
  }
  return mismatches;
}

DeliveryLedger::DeliveryLedger(std::size_t capacity)
    : mask_(capacity - 1), counts_(capacity, 0), hashes_(capacity, 0) {
  if (capacity == 0 || (capacity & (capacity - 1)) != 0) {
    throw std::invalid_argument("ledger capacity must be a power of two");
  }
}

Tally DeliveryLedger::verify(std::uint64_t begin, std::uint64_t end,
                             const Reference& reference, std::size_t group) {
  Tally tally;
  for (std::uint64_t seq = begin; seq < end; ++seq) {
    const std::size_t slot = seq & mask_;
    const std::size_t index = seq % reference.pool_size();
    const std::uint32_t want = reference.count(index, group);
    tally.expected += want;
    if (counts_[slot] != want || hashes_[slot] != reference.hash(index, group)) {
      const std::uint32_t got = counts_[slot];
      tally.failed += std::max<std::uint32_t>(1, got > want ? got - want : want - got);
    }
    counts_[slot] = 0;
    hashes_[slot] = 0;
  }
  return tally;
}

Tally compare_firings(const FiringSummary& expected,
                      const FiringSummary& observed) noexcept {
  Tally tally;
  tally.expected = expected.count;
  if (expected.count != observed.count || expected.hash != observed.hash) {
    const std::uint64_t diff = expected.count > observed.count
                                   ? expected.count - observed.count
                                   : observed.count - expected.count;
    tally.failed = std::max<std::uint64_t>(1, diff);
  }
  return tally;
}

}  // namespace gb
