// GENAS — the profile tree (distribution-aware DFSA matcher).
//
// From a profile set a deterministic finite state automaton of height n is
// created (paper §3, after [Gough & Smith]): level j tests attribute
// order[j]; a node partitions that attribute's domain into cells; edge cells
// descend to child nodes, gap cells reject. Don't-care profiles flow into
// every cell (the '*' / '(*)' edges of the paper's Fig. 1), so matching an
// event follows exactly one root-to-leaf path. Nodes are memoized on
// (level, alive-profile-set): structurally identical subtrees are shared,
// which keeps 10,000-profile trees tractable. The memo looks a set up by an
// additive hash (a fixed key per profile id, summed), so a child's set is
// materialized only when it is new.
//
// Distribution awareness enters in two places (paper §4.1):
//   * the attribute order (TreeConfig::attribute_order — computed by the
//     core selectivity measures A1–A3), and
//   * the per-node value order (TreeConfig::value_order — natural, V1
//     event-probability, V2 profile-probability, V3 combined) together with
//     the search strategy (linear/binary/interpolation/hash).
//
// The value order only ranks a node's cells; it never changes the shape.
// That is how the adaptive loop restructures when neither profiles nor
// attribute order moved: it re-plans the costs of the compiled flat form
// (FlatProfileTree::rerank) under the new P_e.
//
// The tree is immutable after build(); matching is allocation-free,
// noexcept, and thread-safe.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dist/joint.hpp"
#include "profile/profile.hpp"
#include "tree/search.hpp"

namespace genas {

/// Value-ordering measure applied within each node (paper §4.1).
enum class ValueOrder : std::uint8_t {
  kNaturalAscending,    ///< domain order, as in the base algorithm
  kNaturalDescending,   ///< reversed domain order
  kEventProbability,    ///< V1: descending P_e(x_i)
  kProfileProbability,  ///< V2: descending P_p(x_i)
  kCombinedProbability, ///< V3: descending P_e(x_i) * P_p(x_i)
};

std::string_view to_string(ValueOrder order) noexcept;

/// True when the value order requires an event distribution.
constexpr bool needs_event_distribution(ValueOrder order) noexcept {
  return order == ValueOrder::kEventProbability ||
         order == ValueOrder::kCombinedProbability;
}

/// True when a cell's scan key needs only the cell's interval and P_e
/// (natural orders and V1), so a built tree can be re-ranked in place of a
/// rebuild (FlatProfileTree::rerank).
constexpr bool keyed_by_interval(ValueOrder order) noexcept {
  return order == ValueOrder::kNaturalAscending ||
         order == ValueOrder::kNaturalDescending ||
         order == ValueOrder::kEventProbability;
}

/// Build-time configuration of a profile tree.
struct TreeConfig {
  /// Permutation of attribute ids, root level first. Empty = schema order.
  std::vector<AttributeId> attribute_order;
  ValueOrder value_order = ValueOrder::kNaturalAscending;
  SearchStrategy strategy = SearchStrategy::kLinear;
  /// Event distribution used by V1/V3 ordering; ignored otherwise.
  std::optional<JointDistribution> event_distribution;
};

/// `order` with an empty order read as schema order (0, 1, ..., n-1).
std::vector<AttributeId> resolve_attribute_order(std::vector<AttributeId> order,
                                                 std::size_t attribute_count);

/// The one cost rule: plans a node's per-cell costs and scan ranks under one
/// configuration (value order -> scan keys -> the strategy's cost model).
/// The builder ranks every new node through it and FlatProfileTree::rerank
/// refills a cost slab from the flat form alone, so the scan-key switch
/// exists once.
class CellRanker {
 public:
  /// Throws kInvalidArgument when the value order needs an event
  /// distribution that `config` lacks, or its schema is not `schema`.
  CellRanker(const SchemaPtr& schema, const TreeConfig& config);

  /// Plans the cells of a node testing `attribute` into caller-owned
  /// `cost`, and `scan_rank` unless it is empty. `layout` holds the node's
  /// cells in interval order and which of them are edges; rank() writes its
  /// order_key. `shares[i]` is P_p of cell i, read only by the V2/V3 orders.
  void rank(AttributeId attribute, CellLayout& layout,
            std::span<const double> shares, std::span<std::uint32_t> cost,
            std::span<std::uint32_t> scan_rank) const;

 private:
  /// Scan-priority key of cell i; higher keys are scanned earlier, and ties
  /// resolve to natural interval order.
  double order_key(AttributeId attribute, const Interval& cell,
                   std::span<const double> shares, std::size_t i) const;

  ValueOrder value_order_;
  SearchStrategy strategy_;
  std::vector<DiscreteDistribution> marginals_;  // per attribute, when P_e given
};

/// Build statistics (TV1 measures tree construction).
struct TreeBuildStats {
  std::size_t node_count = 0;
  std::size_t leaf_count = 0;
  std::size_t cell_count = 0;   ///< total cells across nodes
  std::size_t edge_count = 0;   ///< total edge cells across nodes
  std::size_t memo_hits = 0;    ///< shared-subtree reuses
  std::size_t max_node_width = 0;  ///< most cells in one node
};

/// Result of matching one event.
struct TreeMatch {
  /// Profiles matched by the event; points into the tree's leaf storage
  /// (valid while the tree lives). Null when nothing matched.
  const std::vector<ProfileId>* matched = nullptr;
  /// Counted comparison operations (the paper's performance measure).
  std::uint64_t operations = 0;

  std::size_t matched_count() const noexcept {
    return matched ? matched->size() : 0;
  }
};

/// Immutable matching automaton over a snapshot of a profile set.
class ProfileTree {
 public:
  /// Internal node: one attribute test over a cell partition.
  struct Node {
    AttributeId attribute = 0;
    std::vector<Interval> cells;          // sorted, partition the domain
    std::vector<std::int32_t> child;      // per cell; see Child encoding
    std::vector<std::uint32_t> cost;      // counted ops when landing in cell
    std::vector<std::uint32_t> scan_rank; // 1-based edge rank in scan order
  };

  /// Leaf: the set of profiles matched by any event reaching it.
  struct Leaf {
    std::vector<ProfileId> matched;
  };

  /// Child-slot encoding within Node::child.
  static constexpr std::int32_t kMiss = -1;
  static constexpr bool is_leaf_ref(std::int32_t c) noexcept { return c <= -2; }
  static constexpr std::size_t leaf_index(std::int32_t c) noexcept {
    return static_cast<std::size_t>(-c - 2);
  }
  static constexpr std::int32_t make_leaf_ref(std::size_t index) noexcept {
    return -static_cast<std::int32_t>(index) - 2;
  }

  /// Builds the tree over the currently active profiles. Throws on invalid
  /// configuration (bad permutation, missing event distribution for V1/V3).
  static ProfileTree build(const ProfileSet& profiles, TreeConfig config);

  /// Matches one event along the single DFSA path.
  TreeMatch match(const Event& event) const noexcept;

  const SchemaPtr& schema() const noexcept { return schema_; }
  const TreeConfig& config() const noexcept { return config_; }
  const TreeBuildStats& build_stats() const noexcept { return stats_; }

  /// Profile-set version this tree was built from (staleness detection).
  std::uint64_t source_version() const noexcept { return source_version_; }

  /// Node storage. Children always have smaller indices than their parents;
  /// the root is the last node. Exposed for the expected-cost traversal,
  /// selectivity measure A3, and tests.
  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  const std::vector<Leaf>& leaves() const noexcept { return leaves_; }

  /// Root slot: node index, leaf ref, or kMiss for an empty profile set.
  std::int32_t root() const noexcept { return root_; }

  /// Number of profiles the tree was built over (p in the paper).
  std::size_t profile_count() const noexcept { return profile_count_; }

  /// Multi-line structural dump for debugging and documentation.
  std::string dump() const;

 private:
  ProfileTree() = default;

  SchemaPtr schema_;
  TreeConfig config_;
  TreeBuildStats stats_;
  std::vector<Node> nodes_;
  std::vector<Leaf> leaves_;
  std::int32_t root_ = kMiss;
  std::size_t profile_count_ = 0;
  std::uint64_t source_version_ = 0;
};

}  // namespace genas
