// GENAS — FlatProfileTree: the cache-friendly compiled form of a tree.
//
// ProfileTree::Node keeps five std::vectors per node, so a root-to-leaf walk
// chases one heap pointer per vector per level. FlatProfileTree compiles the
// built tree into one contiguous arena with SoA cell slabs — `upper_[]` and
// `child_[]` indexed by a per-node cell offset — plus a CSR posting slab for
// the leaves. Cells partition each node's domain, so the upper bounds alone
// locate a cell; a cell's lower bound is the previous cell's upper + 1.
//
// A value index maps an event value straight to its cell. Each node's
// domain [0, size) is cut into buckets of 2^shift values, where shift is the
// smallest for which the bucket count is at most max(16, 4 x cells); bucket
// b's entry is the offset of the first cell whose upper bound is
// >= b << shift, and one sentinel entry follows the last bucket. The walk
// reads the entry of v's bucket; only when that cell ends below v does it
// binary search the few cells up to the next bucket's entry. A node whose
// domain has at most max(16, 4 x cells) values gets shift 0, where the entry
// is the cell itself.
// This is the physical form of the paper's hash probe (§4.2,
// SearchStrategy::kHash). It is uncounted: the operations a match reports
// remain those of the configured strategy, read from the cost slab.
// A match then touches a handful of cache lines per level: the node
// directory entry, one index entry, one upper bound, one cost and one
// child, and (on a hit) the leaf posting span.
//
// The arena is split in two:
//   * an immutable shape — directory, `upper_`, `child_`, the value index,
//     leaf offsets and postings — that depends on the profiles and the
//     attribute order only;
//   * a cost slab keyed by partition. A partition is a node's (attribute,
//     cell bounds, edge pattern); nodes sharing one read one cost span and
//     one index table, which each directory entry points at, so the walk
//     still does one cost load per level.
// Under a natural or V1 value order a cell's cost depends on nothing but
// its partition and P_e, so rerank() serves a rank-only rebuild as a slab
// swap: it plans every partition through the builder's cost rule
// (CellRanker), reading each cell's bounds from `upper_` (a cell's lower
// bound is the previous cell's upper + 1, the first one's the domain edge),
// and shares the shape (and keeps the old slab when the costs cannot
// change). Ranks never move which cell, child or leaf an event reaches, so
// a re-ranked tree matches the same profiles at the new cost.
//
// Node indices, child-slot encoding, and per-cell costs equal the source
// ProfileTree's, so flat matching reports bit-identical matched sets and
// operation counts. The node form remains the build / expected-cost / dump
// representation; the flat form is the hot match path used by TreeMatcher,
// FilterEngine, and the broker snapshots.
//
// Immutable after compile() or rerank(); matching is allocation-free,
// noexcept, and safe to run from any number of threads concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "tree/profile_tree.hpp"

namespace genas {

/// Result of matching one event against the flat tree. `matched` points into
/// the tree's posting slab and stays valid while the tree lives.
struct FlatMatch {
  const ProfileId* matched = nullptr;
  std::uint32_t matched_count = 0;
  /// Counted comparison operations, identical to the node form's accounting.
  std::uint64_t operations = 0;

  std::span<const ProfileId> span() const noexcept {
    return {matched, matched_count};
  }
};

/// Immutable SoA compilation of a ProfileTree: a shared shape plus a cost
/// slab.
class FlatProfileTree {
 public:
  /// Directory entry of one node: where its cells and costs live.
  struct NodeRef {
    std::uint32_t attribute = 0;
    std::uint32_t first_cell = 0;  ///< into upper_ / child_
    std::uint32_t cell_count = 0;
    std::uint32_t first_cost = 0;  ///< the partition's span in the cost slab
    std::uint32_t first_index = 0;  ///< the partition's value-index table
    std::uint32_t shift = 0;  ///< bucket b: values [b << shift, (b+1) << shift)
  };

  /// Compiles the built node-form tree. The flat tree is self-contained; the
  /// source may be destroyed afterwards.
  static FlatProfileTree compile(const ProfileTree& tree);

  /// True when rerank(config) applies: the value order is keyed_by_interval,
  /// and the search strategy and the attribute order (empty = schema order)
  /// equal this tree's.
  bool rerankable(const TreeConfig& config) const;

  /// The tree compile(ProfileTree::build(profiles, config)) returns for the
  /// profile set this tree was built from, without building: it shares this
  /// tree's shape and plans one cost span per partition. The slab itself is
  /// shared when the costs cannot change — binary, interpolation and hash
  /// costs never read the scan key, and natural orders never read P_e.
  /// Throws kInvalidArgument unless rerankable(config).
  FlatProfileTree rerank(const TreeConfig& config) const;

  /// Matches one event along the single DFSA path. Every value must lie in
  /// its attribute's domain, as Event's factories guarantee.
  FlatMatch match(const Event& event) const noexcept;

  /// Offset within node `node`'s cells of the cell holding `value`, found
  /// through the value index exactly as match() finds it. `value` must lie
  /// in the node attribute's domain.
  std::uint32_t locate(std::size_t node, DomainIndex value) const noexcept;

  const SchemaPtr& schema() const noexcept { return shape_->schema; }
  std::size_t node_count() const noexcept { return shape_->nodes.size(); }
  std::size_t leaf_count() const noexcept {
    return shape_->leaf_offsets.empty() ? 0 : shape_->leaf_offsets.size() - 1;
  }
  std::size_t cell_count() const noexcept { return shape_->upper.size(); }
  std::size_t profile_count() const noexcept { return shape_->profile_count; }

  /// Profile-set version of the source tree (staleness detection).
  std::uint64_t source_version() const noexcept {
    return shape_->source_version;
  }

  /// Root slot (node index, leaf ref, or ProfileTree::kMiss), same encoding
  /// as the node form.
  std::int32_t root() const noexcept { return shape_->root; }

  /// Read-only views for oracles and diagnostics. Two trees share a shape
  /// exactly when their nodes() spans share storage; two nodes of one
  /// partition return the same cell_costs() span.
  std::span<const NodeRef> nodes() const noexcept { return shape_->nodes; }
  std::span<const DomainIndex> upper() const noexcept { return shape_->upper; }
  std::span<const std::int32_t> child() const noexcept { return shape_->child; }
  /// Bucket tables of every partition; nodes()[n].first_index points in.
  std::span<const std::uint32_t> value_index() const noexcept {
    return shape_->index;
  }
  std::span<const std::uint32_t> leaf_offsets() const noexcept {
    return shape_->leaf_offsets;
  }
  std::span<const ProfileId> postings() const noexcept {
    return shape_->postings;
  }
  std::span<const std::uint32_t> cell_costs(std::size_t node) const noexcept;
  /// Distinct cost partitions (the slab holds one span per partition).
  std::size_t partition_count() const noexcept {
    return shape_->partition_node.size();
  }

  /// Total bytes of the slab arenas and the value index (diagnostics /
  /// perf reports).
  std::size_t arena_bytes() const noexcept;

 private:
  /// Everything a rank-only rebuild leaves alone; shared across re-ranks.
  struct Shape {
    SchemaPtr schema;
    std::vector<AttributeId> attribute_order;  // resolved, root level first
    std::vector<NodeRef> nodes;            // indexed like ProfileTree::nodes()
    std::vector<DomainIndex> upper;        // cell slabs, per-node contiguous
    std::vector<std::int32_t> child;
    std::vector<std::uint32_t> index;  // value index, one table per partition
    std::vector<std::uint32_t> leaf_offsets;  // CSR: leaves + 1 entries
    std::vector<ProfileId> postings;          // concatenated leaf match sets
    /// Representative node of each partition, in slab order.
    std::vector<std::uint32_t> partition_node;
    std::int32_t root = ProfileTree::kMiss;
    std::size_t profile_count = 0;
    std::uint64_t source_version = 0;
  };

  FlatProfileTree() = default;

  /// Points the walk's views at shape_ and cost_.
  void bind() noexcept;

  std::shared_ptr<const Shape> shape_;
  std::shared_ptr<const std::vector<std::uint32_t>> cost_;
  /// Everything match() reads, one load from *this each rather than two
  /// through the shared handles. The views point into shape_ and cost_,
  /// which every copy of the tree shares, so they stay valid with it.
  struct Walk {
    std::int32_t root = ProfileTree::kMiss;
    const NodeRef* nodes = nullptr;
    const DomainIndex* upper = nullptr;
    const std::int32_t* child = nullptr;
    const std::uint32_t* index = nullptr;
    const std::uint32_t* cost = nullptr;
    const std::uint32_t* leaf_offsets = nullptr;
    const ProfileId* postings = nullptr;
  };
  Walk walk_;
  /// The configuration cost_ was planned under (rerankable, slab reuse).
  ValueOrder value_order_ = ValueOrder::kNaturalAscending;
  SearchStrategy strategy_ = SearchStrategy::kLinear;
};

}  // namespace genas
