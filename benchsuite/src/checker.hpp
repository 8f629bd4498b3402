// genas_bench — the correctness check every run performs.
//
// Reference: for each event of the pre-sampled pool, the set of
// subscriptions it must reach, evaluated from the profiles' predicates with
// per-attribute acceptance bitsets — a direct, tree-free evaluation of the
// profile semantics — and cross-checked against NaiveMatcher on a sample
// of pool events. Subscriptions are identified by their position in the
// workload's subscription order (the "reference index") and may be split
// into groups (mesh nodes), so a delivery at the wrong node counts as
// misrouted.
//
// DeliveryLedger: what the system delivered, folded per event sequence
// number into a count and an order-free hash (the sum of mixed reference
// indices). Comparing both against the reference catches a missing, a
// duplicated and a misrouted delivery: the first two change the count,
// the third changes the hash. Each mismatching event counts
// max(1, |count difference|) failures.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "event/event.hpp"
#include "harness.hpp"
#include "profile/profile.hpp"

namespace gb {

/// Order-free hash contribution of one item (splitmix64 finalizer).
std::uint64_t mix(std::uint64_t x) noexcept;

class Reference {
 public:
  /// `profiles[k]` is the profile of reference index k, `group_of[k]` its
  /// group (empty: one group). `pool[i]` is the event of pool index i.
  Reference(const genas::SchemaPtr& schema,
            const std::vector<genas::Profile>& profiles,
            std::span<const genas::Event> pool,
            const std::vector<std::uint32_t>& group_of = {});

  std::size_t pool_size() const noexcept { return pool_size_; }
  std::size_t groups() const noexcept { return groups_; }

  /// Expected deliveries of pool event `index` in `group`.
  std::uint32_t count(std::size_t index, std::size_t group = 0) const noexcept {
    return counts_[index * groups_ + group];
  }
  std::uint64_t hash(std::size_t index, std::size_t group = 0) const noexcept {
    return hashes_[index * groups_ + group];
  }
  /// Reference indices matched by pool event `index`, ascending.
  std::span<const std::uint32_t> matches(std::size_t index) const noexcept {
    return {matched_.data() + offsets_[index],
            matched_.data() + offsets_[index + 1]};
  }
  /// Expected deliveries over one full pass of the pool.
  std::uint64_t pass_deliveries() const noexcept { return matched_.size(); }

  /// Re-evaluates `samples` pool events (spread over the pool) with
  /// genas::NaiveMatcher; returns how many disagree with this reference.
  std::size_t cross_check(const std::vector<genas::Profile>& profiles,
                          std::span<const genas::Event> pool,
                          std::size_t samples) const;

 private:
  std::size_t pool_size_ = 0;
  std::size_t groups_ = 1;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> matched_;
};

/// Per-sequence delivery record over a ring of `capacity` (a power of two)
/// sequence numbers. Not thread-safe: one recorder thread per ledger.
class DeliveryLedger {
 public:
  explicit DeliveryLedger(std::size_t capacity);

  void record(std::uint64_t seq, std::uint32_t reference_index) noexcept {
    const std::size_t slot = seq & mask_;
    ++counts_[slot];
    hashes_[slot] += mix(reference_index);
  }

  std::size_t capacity() const noexcept { return counts_.size(); }

  /// Compares sequence numbers [begin, end) (end - begin <= capacity)
  /// against `reference` for `group`, then clears their slots.
  Tally verify(std::uint64_t begin, std::uint64_t end,
               const Reference& reference, std::size_t group = 0);

 private:
  std::size_t mask_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint64_t> hashes_;
};

/// Order-free summary of a multiset of composite firings (composite index,
/// firing time), compared between the system and the reference detector.
struct FiringSummary {
  std::uint64_t count = 0;
  std::uint64_t hash = 0;

  void add(std::uint32_t composite, std::int64_t time) noexcept {
    ++count;
    hash += mix((static_cast<std::uint64_t>(composite) << 40) ^
                static_cast<std::uint64_t>(time));
  }
};

/// Failures between an expected and an observed firing multiset.
Tally compare_firings(const FiringSummary& expected,
                      const FiringSummary& observed) noexcept;

}  // namespace gb
