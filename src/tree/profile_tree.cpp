#include "tree/profile_tree.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tree/decomposition.hpp"

namespace genas {

std::string_view to_string(ValueOrder order) noexcept {
  switch (order) {
    case ValueOrder::kNaturalAscending:    return "natural-asc";
    case ValueOrder::kNaturalDescending:   return "natural-desc";
    case ValueOrder::kEventProbability:    return "event-prob (V1)";
    case ValueOrder::kProfileProbability:  return "profile-prob (V2)";
    case ValueOrder::kCombinedProbability: return "combined-prob (V3)";
  }
  return "?";
}

namespace {

/// Fixed per-profile key of the additive set hash. A set's hash is the sum
/// of its members' keys, so a child's hash is its node's don't-care sum
/// plus the keys of the profiles its cell accepts: no set is built just to
/// be looked up.
std::uint64_t profile_key(ProfileId id) noexcept {
  std::uint64_t state = id;
  return splitmix64(state);
}

/// Builds the DFSA depth-first. Nodes are memoized on (level, alive set)
/// through the additive set hash; a hit is confirmed by a merge-walk against
/// the stored set, and a child's alive set is materialized only on a miss.
class TreeBuilder {
 public:
  TreeBuilder(const ProfileSet& profiles, const TreeConfig& config)
      : profiles_(profiles),
        schema_(*profiles.schema()),
        config_(config),
        ranker_(profiles.schema(), config) {}

  std::int32_t run(std::vector<ProfileId> alive, std::vector<ProfileTree::Node>& nodes,
                   std::vector<ProfileTree::Leaf>& leaves, TreeBuildStats& stats) {
    nodes_ = &nodes;
    leaves_ = &leaves;
    stats_ = &stats;
    memo_.resize(order().size() + 1);
    if (alive.empty()) return ProfileTree::kMiss;
    std::uint64_t hash = 0;
    for (const ProfileId id : alive) hash += profile_key(id);
    return build_slot(0, std::move(alive), hash);
  }

 private:
  std::int32_t build_slot(std::size_t level, std::vector<ProfileId> alive,
                          std::uint64_t hash) {
    GENAS_CHECK(!alive.empty(), "build_slot requires a non-empty alive set");
    const std::int32_t slot = level == order().size()
                                  ? build_leaf(std::move(alive))
                                  : build_node(level, std::move(alive));
    memo_[level].emplace(hash, slot);
    return slot;
  }

  /// Slot of the child whose alive set is `dont_care` ∪ {ids[c] : c ∈
  /// accepters}; both parts are sorted and disjoint.
  std::int32_t child_slot(std::size_t level, const std::vector<ProfileId>& dont_care,
                          std::uint64_t dont_care_hash,
                          const std::vector<ProfileId>& ids,
                          const std::vector<std::uint32_t>& accepters) {
    std::uint64_t hash = dont_care_hash;
    for (const std::uint32_t c : accepters) hash += profile_key(ids[c]);
    const auto [first, last] = memo_[level].equal_range(hash);
    for (auto it = first; it != last; ++it) {
      if (same_set(alive_of(it->second), dont_care, ids, accepters)) {
        ++stats_->memo_hits;
        return it->second;
      }
    }
    std::vector<ProfileId> alive;
    alive.reserve(dont_care.size() + accepters.size());
    auto d = dont_care.begin();
    for (const std::uint32_t c : accepters) {
      for (; d != dont_care.end() && *d < ids[c]; ++d) alive.push_back(*d);
      alive.push_back(ids[c]);
    }
    alive.insert(alive.end(), d, dont_care.end());
    return build_slot(level, std::move(alive), hash);
  }

  /// True when `stored` equals the merge of `dont_care` and the accepted ids.
  static bool same_set(const std::vector<ProfileId>& stored,
                       const std::vector<ProfileId>& dont_care,
                       const std::vector<ProfileId>& ids,
                       const std::vector<std::uint32_t>& accepters) {
    if (stored.size() != dont_care.size() + accepters.size()) return false;
    std::size_t d = 0;
    std::size_t a = 0;
    for (const ProfileId id : stored) {
      const bool take_dont_care =
          d < dont_care.size() &&
          (a == accepters.size() || dont_care[d] < ids[accepters[a]]);
      const ProfileId next = take_dont_care ? dont_care[d++] : ids[accepters[a++]];
      if (next != id) return false;
    }
    return true;
  }

  const std::vector<ProfileId>& alive_of(std::int32_t slot) const {
    return ProfileTree::is_leaf_ref(slot)
               ? (*leaves_)[ProfileTree::leaf_index(slot)].matched
               : node_alive_[static_cast<std::size_t>(slot)];
  }

  std::int32_t build_node(std::size_t level, std::vector<ProfileId> alive) {
    const AttributeId attribute = order()[level];
    const Domain& domain = schema_.attribute(attribute).domain;

    // Split the alive set into profiles constraining this attribute and
    // don't-care profiles (which flow into every cell).
    std::vector<ProfileId> constrained_ids;
    std::vector<const IntervalSet*> constraints;
    std::vector<ProfileId> dont_care;
    std::uint64_t dont_care_hash = 0;
    for (const ProfileId id : alive) {
      const Predicate* predicate = profiles_.profile(id).predicate(attribute);
      if (predicate != nullptr) {
        constrained_ids.push_back(id);
        constraints.push_back(&predicate->accepted());
      } else {
        dont_care.push_back(id);
        dont_care_hash += profile_key(id);
      }
    }

    const Decomposition decomp = decompose(domain.full(), constraints);
    const std::size_t cell_count = decomp.cells.size();
    const bool weighted = config_.value_order == ValueOrder::kProfileProbability ||
                          config_.value_order == ValueOrder::kCombinedProbability;
    std::vector<double> shares;
    double total_weight = 0.0;
    if (weighted) {
      shares.reserve(cell_count);
      for (const ProfileId id : constrained_ids) total_weight += profiles_.weight(id);
    }

    ProfileTree::Node node;
    node.attribute = attribute;
    node.cells.reserve(cell_count);
    node.child.reserve(cell_count);
    for (const Cell& cell : decomp.cells) {
      const bool edge = !dont_care.empty() || !cell.accepters.empty();
      node.cells.push_back(cell.interval);
      node.child.push_back(edge ? child_slot(level + 1, dont_care, dont_care_hash,
                                             constrained_ids, cell.accepters)
                                : ProfileTree::kMiss);
      if (edge) ++stats_->edge_count;
      if (weighted) {
        shares.push_back(profile_share(cell, constrained_ids, total_weight));
      }
    }
    // Ranked once the children are built: their builds reuse layout_.
    layout_.cells.assign(node.cells.begin(), node.cells.end());
    layout_.is_edge.resize(cell_count);
    for (std::size_t i = 0; i < cell_count; ++i) {
      layout_.is_edge[i] = node.child[i] != ProfileTree::kMiss;
    }
    node.cost.resize(cell_count);
    node.scan_rank.resize(cell_count);
    ranker_.rank(attribute, layout_, shares, node.cost, node.scan_rank);

    stats_->cell_count += cell_count;
    stats_->max_node_width = std::max(stats_->max_node_width, cell_count);
    ++stats_->node_count;

    const auto index = static_cast<std::int32_t>(nodes_->size());
    nodes_->push_back(std::move(node));
    node_alive_.push_back(std::move(alive));
    return index;
  }

  std::int32_t build_leaf(std::vector<ProfileId> alive) {
    const std::int32_t ref = ProfileTree::make_leaf_ref(leaves_->size());
    leaves_->push_back(ProfileTree::Leaf{std::move(alive)});
    ++stats_->leaf_count;
    return ref;
  }

  /// P_p(x_i): priority-weighted share of constraining profiles that
  /// reference this cell (every profile weighs 1.0 unless the application
  /// raised its priority).
  double profile_share(const Cell& cell,
                       const std::vector<ProfileId>& constrained_ids,
                       double total_weight) const {
    if (constrained_ids.empty()) return 0.0;
    double referenced = 0.0;
    for (const std::uint32_t c : cell.accepters) {
      referenced += profiles_.weight(constrained_ids[c]);
    }
    return total_weight > 0.0 ? referenced / total_weight : 0.0;
  }

  const std::vector<AttributeId>& order() const noexcept {
    return config_.attribute_order;
  }

  const ProfileSet& profiles_;
  const Schema& schema_;
  const TreeConfig& config_;
  CellRanker ranker_;
  CellLayout layout_;  // ranking scratch reused across nodes

  std::vector<ProfileTree::Node>* nodes_ = nullptr;
  std::vector<ProfileTree::Leaf>* leaves_ = nullptr;
  TreeBuildStats* stats_ = nullptr;
  /// Per level: set hash -> slot. Level order().size() holds the leaves.
  std::vector<std::unordered_multimap<std::uint64_t, std::int32_t>> memo_;
  /// Alive set of each built node, indexed like nodes_ (leaves keep theirs
  /// in Leaf::matched).
  std::vector<std::vector<ProfileId>> node_alive_;
};

}  // namespace

std::vector<AttributeId> resolve_attribute_order(std::vector<AttributeId> order,
                                                 std::size_t attribute_count) {
  if (order.empty()) {
    order.resize(attribute_count);
    for (std::size_t j = 0; j < attribute_count; ++j) order[j] = j;
  }
  return order;
}

CellRanker::CellRanker(const SchemaPtr& schema, const TreeConfig& config)
    : value_order_(config.value_order), strategy_(config.strategy) {
  if (config.event_distribution.has_value()) {
    const JointDistribution& joint = *config.event_distribution;
    GENAS_REQUIRE(joint.schema() == schema, ErrorCode::kInvalidArgument,
                  "event distribution schema differs from profile schema");
    marginals_.reserve(schema->attribute_count());
    for (AttributeId id = 0; id < schema->attribute_count(); ++id) {
      marginals_.push_back(joint.marginal(id));
    }
  }
  GENAS_REQUIRE(!needs_event_distribution(value_order_) ||
                    config.event_distribution.has_value(),
                ErrorCode::kInvalidArgument,
                "value order requires an event distribution");
}

void CellRanker::rank(AttributeId attribute, CellLayout& layout,
                      std::span<const double> shares,
                      std::span<std::uint32_t> cost,
                      std::span<std::uint32_t> scan_rank) const {
  const std::size_t k = layout.cells.size();
  layout.order_key.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    layout.order_key[i] = order_key(attribute, layout.cells[i], shares, i);
  }
  plan_costs(layout, strategy_, cost, scan_rank);
}

double CellRanker::order_key(AttributeId attribute, const Interval& cell,
                             std::span<const double> shares,
                             std::size_t i) const {
  const auto event_mass = [&] {
    GENAS_CHECK(attribute < marginals_.size(),
                "event distribution missing for ordering key");
    return marginals_[attribute].mass(cell);
  };
  const auto share = [&] {
    GENAS_CHECK(i < shares.size(), "profile share missing for ordering key");
    return shares[i];
  };
  switch (value_order_) {
    case ValueOrder::kNaturalAscending:
      return 0.0;  // all ties -> natural order
    case ValueOrder::kNaturalDescending:
      return static_cast<double>(cell.lo);
    case ValueOrder::kEventProbability:
      return event_mass();
    case ValueOrder::kProfileProbability:
      return share();
    case ValueOrder::kCombinedProbability:
      return event_mass() * share();
  }
  return 0.0;
}

ProfileTree ProfileTree::build(const ProfileSet& profiles, TreeConfig config) {
  const std::size_t n = profiles.schema()->attribute_count();
  config.attribute_order =
      resolve_attribute_order(std::move(config.attribute_order), n);
  GENAS_REQUIRE(config.attribute_order.size() == n, ErrorCode::kInvalidArgument,
                "attribute order must cover every schema attribute");
  std::vector<bool> seen(n, false);
  for (const AttributeId id : config.attribute_order) {
    GENAS_REQUIRE(id < n, ErrorCode::kInvalidArgument,
                  "attribute order contains an out-of-range id");
    GENAS_REQUIRE(!seen[id], ErrorCode::kInvalidArgument,
                  "attribute order repeats an attribute");
    seen[id] = true;
  }

  ProfileTree tree;
  tree.schema_ = profiles.schema();
  tree.profile_count_ = profiles.active_count();
  tree.source_version_ = profiles.version();

  TreeBuilder builder(profiles, config);
  tree.root_ = builder.run(profiles.active_ids(), tree.nodes_, tree.leaves_,
                           tree.stats_);
  tree.config_ = std::move(config);
  return tree;
}

TreeMatch ProfileTree::match(const Event& event) const noexcept {
  TreeMatch result;
  std::int32_t slot = root_;
  while (slot >= 0) {
    const Node& node = nodes_[static_cast<std::size_t>(slot)];
    const DomainIndex v = event.index(node.attribute);
    // Locate the containing cell: binary search by interval upper bound.
    // This is the prototype's O(1) lookup-table access and is not counted
    // as a filter operation (see DESIGN.md §5.6).
    auto it = std::lower_bound(
        node.cells.begin(), node.cells.end(), v,
        [](const Interval& cell, DomainIndex x) { return cell.hi < x; });
    if (it == node.cells.end()) --it;  // defensive: v beyond domain edge
    const auto idx = static_cast<std::size_t>(it - node.cells.begin());
    result.operations += node.cost[idx];
    slot = node.child[idx];
  }
  if (is_leaf_ref(slot)) {
    result.matched = &leaves_[leaf_index(slot)].matched;
  }
  return result;
}

std::string ProfileTree::dump() const {
  std::ostringstream os;
  os << "ProfileTree(p=" << profile_count_ << ", nodes=" << nodes_.size()
     << ", leaves=" << leaves_.size() << ", order=" << to_string(config_.value_order)
     << ", search=" << to_string(config_.strategy) << ")\n";

  // Recursive textual rendering; nodes_ forms a DAG, so shared subtrees are
  // printed once per reference (fine for the small trees this is used on).
  const auto render = [&](auto&& self, std::int32_t slot, int depth) -> void {
    const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    if (slot == kMiss) {
      os << pad << "-> miss\n";
      return;
    }
    if (is_leaf_ref(slot)) {
      os << pad << "-> leaf{";
      const Leaf& leaf = leaves_[leaf_index(slot)];
      for (std::size_t i = 0; i < leaf.matched.size(); ++i) {
        if (i > 0) os << ',';
        os << 'p' << leaf.matched[i];
      }
      os << "}\n";
      return;
    }
    const Node& node = nodes_[static_cast<std::size_t>(slot)];
    os << pad << "node[" << schema_->attribute(node.attribute).name << "]\n";
    for (std::size_t i = 0; i < node.cells.size(); ++i) {
      os << pad << "  " << node.cells[i].to_string() << " cost="
         << node.cost[i];
      if (node.scan_rank[i] > 0) os << " rank=" << node.scan_rank[i];
      os << '\n';
      self(self, node.child[i], depth + 2);
    }
  };
  render(render, root_, 0);
  return os.str();
}

}  // namespace genas
