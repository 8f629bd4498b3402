// Reference profile-tree builder: the straightforward form of the tree
// construction, kept as a test oracle the way NaiveMatcher is one for
// matching. Every elementary cell probes every constraint with
// IntervalSet::contains, and nodes and leaves are memoized on their
// (level, alive set) with the set itself as the key. ProfileTree::build must
// produce the same tree node for node, build statistics included.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tree/decomposition.hpp"
#include "tree/profile_tree.hpp"

namespace genas::testutil {

/// decompose() by probing each constraint per elementary cell.
inline Decomposition reference_decompose(
    const Interval& universe, const std::vector<const IntervalSet*>& constraints) {
  std::vector<DomainIndex> bounds{universe.lo, universe.hi + 1};
  for (const IntervalSet* set : constraints) {
    for (const Interval& iv : set->intervals()) {
      const Interval clipped = iv.intersect(universe);
      if (clipped.empty()) continue;
      bounds.push_back(clipped.lo);
      bounds.push_back(clipped.hi + 1);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  Decomposition out;
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    Cell cell;
    cell.interval = {bounds[b], bounds[b + 1] - 1};
    for (std::uint32_t c = 0; c < constraints.size(); ++c) {
      if (constraints[c]->contains(cell.interval.lo)) cell.accepters.push_back(c);
    }
    if (!out.cells.empty() && out.cells.back().accepters == cell.accepters) {
      out.cells.back().interval.hi = cell.interval.hi;
    } else {
      out.cells.push_back(std::move(cell));
    }
  }
  return out;
}

/// The pieces of a built tree that ProfileTree::build must reproduce.
struct ReferenceTree {
  std::vector<ProfileTree::Node> nodes;
  std::vector<ProfileTree::Leaf> leaves;
  std::int32_t root = ProfileTree::kMiss;
  TreeBuildStats stats;
};

class ReferenceBuilder {
 public:
  ReferenceBuilder(const ProfileSet& profiles, TreeConfig config)
      : profiles_(profiles), config_(std::move(config)) {
    const std::size_t n = profiles.schema()->attribute_count();
    if (config_.attribute_order.empty()) {
      for (std::size_t j = 0; j < n; ++j) config_.attribute_order.push_back(j);
    }
    if (config_.event_distribution.has_value()) {
      for (AttributeId id = 0; id < n; ++id) {
        marginals_.push_back(config_.event_distribution->marginal(id));
      }
    }
  }

  ReferenceTree build() {
    ReferenceTree tree;
    out_ = &tree;
    const std::vector<ProfileId> alive = profiles_.active_ids();
    if (!alive.empty()) tree.root = build_slot(0, alive);
    return tree;
  }

 private:
  std::int32_t build_slot(std::size_t level, const std::vector<ProfileId>& alive) {
    const std::vector<AttributeId>& order = config_.attribute_order;
    if (level == order.size()) {
      if (const auto it = leaf_memo_.find(alive); it != leaf_memo_.end()) {
        ++out_->stats.memo_hits;
        return it->second;
      }
      const std::int32_t ref = ProfileTree::make_leaf_ref(out_->leaves.size());
      out_->leaves.push_back(ProfileTree::Leaf{alive});
      ++out_->stats.leaf_count;
      leaf_memo_.emplace(alive, ref);
      return ref;
    }
    if (const auto it = memo_.find({level, alive}); it != memo_.end()) {
      ++out_->stats.memo_hits;
      return it->second;
    }

    const AttributeId attribute = order[level];
    std::vector<ProfileId> constrained_ids;
    std::vector<const IntervalSet*> constraints;
    std::vector<ProfileId> dont_care;
    for (const ProfileId id : alive) {
      const Predicate* predicate = profiles_.profile(id).predicate(attribute);
      if (predicate != nullptr) {
        constrained_ids.push_back(id);
        constraints.push_back(&predicate->accepted());
      } else {
        dont_care.push_back(id);
      }
    }
    const Decomposition decomp = reference_decompose(
        profiles_.schema()->attribute(attribute).domain.full(), constraints);

    ProfileTree::Node node;
    node.attribute = attribute;
    CellLayout layout;
    for (const Cell& cell : decomp.cells) {
      std::vector<ProfileId> cell_alive = dont_care;
      for (const std::uint32_t c : cell.accepters) {
        cell_alive.push_back(constrained_ids[c]);
      }
      std::sort(cell_alive.begin(), cell_alive.end());
      const bool edge = !cell_alive.empty();
      node.cells.push_back(cell.interval);
      node.child.push_back(edge ? build_slot(level + 1, cell_alive) : ProfileTree::kMiss);
      layout.cells.push_back(cell.interval);
      layout.is_edge.push_back(edge);
      layout.order_key.push_back(order_key(attribute, cell, constrained_ids));
      if (edge) ++out_->stats.edge_count;
    }
    CellCosts costs = plan_costs(layout, config_.strategy);
    node.cost = std::move(costs.cost);
    node.scan_rank = std::move(costs.scan_rank);

    out_->stats.cell_count += decomp.cells.size();
    out_->stats.max_node_width = std::max(out_->stats.max_node_width, decomp.cells.size());
    ++out_->stats.node_count;
    const auto index = static_cast<std::int32_t>(out_->nodes.size());
    out_->nodes.push_back(std::move(node));
    memo_.emplace(std::make_pair(level, alive), index);
    return index;
  }

  double order_key(AttributeId attribute, const Cell& cell,
                   const std::vector<ProfileId>& constrained_ids) const {
    switch (config_.value_order) {
      case ValueOrder::kNaturalAscending:    return 0.0;
      case ValueOrder::kNaturalDescending:   return static_cast<double>(cell.interval.lo);
      case ValueOrder::kEventProbability:    return marginals_[attribute].mass(cell.interval);
      case ValueOrder::kProfileProbability:  return profile_share(cell, constrained_ids);
      case ValueOrder::kCombinedProbability:
        return marginals_[attribute].mass(cell.interval) *
               profile_share(cell, constrained_ids);
    }
    return 0.0;
  }

  double profile_share(const Cell& cell,
                       const std::vector<ProfileId>& constrained_ids) const {
    if (constrained_ids.empty()) return 0.0;
    double total = 0.0;
    for (const ProfileId id : constrained_ids) total += profiles_.weight(id);
    double referenced = 0.0;
    for (const std::uint32_t c : cell.accepters) {
      referenced += profiles_.weight(constrained_ids[c]);
    }
    return total > 0.0 ? referenced / total : 0.0;
  }

  const ProfileSet& profiles_;
  TreeConfig config_;
  std::vector<DiscreteDistribution> marginals_;
  ReferenceTree* out_ = nullptr;
  std::map<std::pair<std::size_t, std::vector<ProfileId>>, std::int32_t> memo_;
  std::map<std::vector<ProfileId>, std::int32_t> leaf_memo_;
};

inline ReferenceTree reference_build(const ProfileSet& profiles, TreeConfig config) {
  return ReferenceBuilder(profiles, std::move(config)).build();
}

/// Asserts two built trees are identical node for node: root, every node's
/// attribute, cells, children, costs and scan ranks, every leaf, and every
/// build statistic.
inline void expect_same_tree(const ProfileTree& tree, std::int32_t root,
                             const std::vector<ProfileTree::Node>& nodes,
                             const std::vector<ProfileTree::Leaf>& leaves,
                             const TreeBuildStats& stats) {
  EXPECT_EQ(tree.root(), root);
  ASSERT_EQ(tree.nodes().size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const ProfileTree::Node& a = tree.nodes()[i];
    const ProfileTree::Node& b = nodes[i];
    EXPECT_EQ(a.attribute, b.attribute) << "node " << i;
    EXPECT_EQ(a.cells, b.cells) << "node " << i;
    EXPECT_EQ(a.child, b.child) << "node " << i;
    EXPECT_EQ(a.cost, b.cost) << "node " << i;
    EXPECT_EQ(a.scan_rank, b.scan_rank) << "node " << i;
  }
  ASSERT_EQ(tree.leaves().size(), leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    EXPECT_EQ(tree.leaves()[i].matched, leaves[i].matched) << "leaf " << i;
  }
  const TreeBuildStats& s = tree.build_stats();
  EXPECT_EQ(s.node_count, stats.node_count);
  EXPECT_EQ(s.leaf_count, stats.leaf_count);
  EXPECT_EQ(s.cell_count, stats.cell_count);
  EXPECT_EQ(s.edge_count, stats.edge_count);
  EXPECT_EQ(s.memo_hits, stats.memo_hits);
  EXPECT_EQ(s.max_node_width, stats.max_node_width);
}

inline void expect_same_tree(const ProfileTree& tree, const ReferenceTree& ref) {
  expect_same_tree(tree, ref.root, ref.nodes, ref.leaves, ref.stats);
}

inline void expect_same_tree(const ProfileTree& tree, const ProfileTree& other) {
  expect_same_tree(tree, other.root(), other.nodes(), other.leaves(),
                   other.build_stats());
  EXPECT_EQ(tree.config().attribute_order, other.config().attribute_order);
  EXPECT_EQ(tree.config().value_order, other.config().value_order);
  EXPECT_EQ(tree.config().strategy, other.config().strategy);
  EXPECT_EQ(tree.profile_count(), other.profile_count());
  EXPECT_EQ(tree.source_version(), other.source_version());
}

}  // namespace genas::testutil
