// GENAS — FilterEngine: the library's primary facade.
//
// Owns the profile set and the current profile tree, applies an
// OrderingPolicy, and optionally runs the adaptive loop: observe events,
// detect distribution drift, restructure the tree. The engine rebuilds
// lazily — subscription changes mark the tree stale and the next match (or
// an explicit rebuild()) refreshes it.
//
// A rebuild with an unchanged profile set and attribute order under natural
// or V1 value ordering is rank-only: it swaps the flat tree's cost slab
// (FlatProfileTree::rerank) and keeps the shape of the latest full build.
// Any other rebuild builds the tree afresh.
//
// Every rebuild produces an immutable MatchSnapshot around its
// FlatProfileTree (the cache-friendly hot match path). snapshot() hands the
// current one out as a shared_ptr, so a caller can keep matching against a
// consistent tree while the engine mutates and rebuilds off to the side —
// this is what the broker's lock-free publish path is built on. A
// rank-only snapshot carries no node-form tree (expected cost, dumps);
// tree() builds it for the current configuration only when asked.
//
// Thread-safety: FilterEngine itself is single-threaded by design (callers
// serialize mutations); but a MatchSnapshot, once obtained, is immutable and
// safe to match against from any number of threads. The ENS broker
// (src/ens/broker.hpp) layers the mutation mutex and atomic snapshot
// publication on top.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/adaptive_filter.hpp"
#include "core/ordering_policy.hpp"
#include "profile/parser.hpp"
#include "tree/flat_tree.hpp"
#include "tree/profile_tree.hpp"

namespace genas {

/// Engine construction options.
struct EngineOptions {
  OrderingPolicy policy;
  /// Prior event distribution (e.g., known sensor characteristics). Used
  /// until the adaptive estimate (if enabled) takes over.
  std::optional<JointDistribution> prior;
  /// Adaptive restructuring; disabled when nullopt.
  std::optional<AdaptiveOptions> adaptive;
};

/// Outcome of matching one event through the engine.
struct EngineMatch {
  std::vector<ProfileId> matched;  ///< owned copy, safe across rebuilds
  std::uint64_t operations = 0;
  bool rebuilt = false;  ///< this match triggered an adaptive rebuild
};

/// Aggregate outcome of matching a batch of events (match_batch).
struct EngineBatchMatch {
  std::size_t matched_events = 0;  ///< events that matched ≥ 1 profile
  std::uint64_t operations = 0;
  bool rebuilt = false;  ///< the batch triggered an adaptive rebuild
};

/// Immutable product of one rebuild. Matching against it is thread-safe and
/// allocation-free; `flat->match()` results point into the snapshot, so
/// hold the shared_ptr while using them.
struct MatchSnapshot {
  /// Node form of a full build; null on a rank-only rebuild's snapshot
  /// (FilterEngine::tree() builds the node form on demand).
  std::shared_ptr<const ProfileTree> tree;
  std::shared_ptr<const FlatProfileTree> flat;
};

/// High-level distribution-based filter (the paper's "adaptive filter
/// component", §1).
class FilterEngine {
 public:
  explicit FilterEngine(SchemaPtr schema, EngineOptions options = {});

  const SchemaPtr& schema() const noexcept { return schema_; }
  const ProfileSet& profiles() const noexcept { return profiles_; }

  /// Registers a profile; the tree refreshes lazily.
  ProfileId subscribe(Profile profile);
  /// Parses and registers a profile expression ("temp >= 35 && hum = 90").
  ProfileId subscribe(std::string_view expression);
  void unsubscribe(ProfileId id);

  /// Sets a subscription's priority weight (V2/V3 value ordering scans the
  /// subranges of heavier profiles earlier). The tree refreshes lazily.
  void set_priority(ProfileId id, double weight);

  /// Matches an event: refreshes a stale tree, feeds the adaptive
  /// controller, and rebuilds when drift demands it.
  EngineMatch match(const Event& event);

  /// Matches a batch of events against one snapshot acquisition. Matched
  /// profile ids are appended CSR-style into caller-owned buffers that are
  /// cleared and reused across calls (no per-event allocation once their
  /// capacity is warm): after the call, the ids matched by events[i] are
  /// matched[offsets[i] .. offsets[i+1]). The adaptive controller observes
  /// every event, but a drift rebuild is deferred to the end of the batch.
  EngineBatchMatch match_batch(std::span<const Event> events,
                               std::vector<ProfileId>& matched,
                               std::vector<std::size_t>& offsets);

  /// Folds events the caller matched against a snapshot into the adaptive
  /// controller, then rebuilds once if drift demands it. Returns true when
  /// it rebuilt; always false without the adaptive loop.
  bool observe(std::span<const Event> events);

  /// Forces an immediate rebuild against the best-known distribution.
  void rebuild();

  /// Replaces the ordering policy (takes effect on the next rebuild).
  void set_policy(OrderingPolicy policy);
  const OrderingPolicy& policy() const noexcept { return options_.policy; }

  /// Distribution the engine would build against right now: the adaptive
  /// estimate when available, else the prior, else uniform.
  JointDistribution effective_distribution() const;

  /// Current node-form tree (rebuilds first if stale). After a rank-only
  /// rebuild this builds it for the current configuration, once per
  /// rebuild; the reference lives until the next rebuild.
  const ProfileTree& tree();

  /// Current immutable snapshot (rebuilds first if stale). Never null. The
  /// caller may match against it concurrently with engine mutations; it
  /// simply keeps seeing the profile set as of this call.
  std::shared_ptr<const MatchSnapshot> snapshot();

  std::uint64_t rebuild_count() const noexcept { return rebuild_count_; }
  /// Rebuilds that built the tree from scratch. The others swapped the cost
  /// slab (FlatProfileTree::rerank): the profile set and attribute order
  /// were unchanged and the value order is keyed by cell interval and P_e.
  std::uint64_t full_build_count() const noexcept { return full_build_count_; }
  /// Wall time of the latest rebuild (tree or cost slab, snapshot swap);
  /// read it after a call that reported a rebuild.
  std::uint64_t last_rebuild_ns() const noexcept { return last_rebuild_ns_; }

  /// Adaptive controller, when enabled (for diagnostics).
  const AdaptiveController* adaptive() const noexcept {
    return adaptive_ ? &*adaptive_ : nullptr;
  }

  /// True when the adaptive loop is enabled — observe() then mutates the
  /// drift estimator, so callers that share the engine across threads must
  /// serialize it (the broker does, once per publish call).
  bool adaptive_enabled() const noexcept { return adaptive_.has_value(); }

 private:
  void ensure_fresh();
  void rebuild_locked(const JointDistribution& distribution);

  SchemaPtr schema_;
  EngineOptions options_;
  ProfileSet profiles_;
  std::optional<AdaptiveController> adaptive_;
  std::shared_ptr<const MatchSnapshot> snapshot_;
  /// Configuration of the latest rebuild, and its node form once tree()
  /// has built it after a rank-only rebuild.
  TreeConfig config_;
  std::unique_ptr<const ProfileTree> ranked_;
  std::uint64_t rebuild_count_ = 0;
  std::uint64_t full_build_count_ = 0;
  std::uint64_t last_rebuild_ns_ = 0;
};

}  // namespace genas
