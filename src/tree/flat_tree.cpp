#include "tree/flat_tree.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "common/error.hpp"

namespace genas {

namespace {

std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) noexcept {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Hash of a node's partition key plus its costs, one mix per cell. Costs
/// join the key so a tree whose value order reads more than the partition
/// (V2/V3 profile shares) still compiles exactly; under natural and V1
/// orders they are a function of the partition and never split one.
std::uint64_t partition_hash(const ProfileTree::Node& node) noexcept {
  std::uint64_t h = hash_combine(node.attribute, node.cells.size());
  for (std::size_t i = 0; i < node.cells.size(); ++i) {
    const std::uint64_t edge = node.child[i] != ProfileTree::kMiss;
    h = hash_combine(h, static_cast<std::uint64_t>(node.cells[i].hi) ^
                            (std::uint64_t{node.cost[i]} << 33) ^ (edge << 32));
  }
  return h;
}

bool same_partition(const ProfileTree::Node& a, const ProfileTree::Node& b) {
  if (a.attribute != b.attribute || a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i].hi != b.cells[i].hi || a.cost[i] != b.cost[i] ||
        (a.child[i] == ProfileTree::kMiss) != (b.child[i] == ProfileTree::kMiss)) {
      return false;
    }
  }
  return true;
}

/// Appends one partition's bucket table to `index` (see the header) and
/// returns its shift. `upper` is the partition's cell upper bounds over a
/// domain of `domain_size` values; its last entry is the domain's top.
std::uint32_t append_index(std::span<const DomainIndex> upper,
                           std::int64_t domain_size,
                           std::vector<std::uint32_t>& index) {
  const auto cap = static_cast<std::uint64_t>(
      std::max<std::size_t>(16, 4 * upper.size()));
  const auto top = static_cast<std::uint64_t>(domain_size - 1);
  std::uint32_t shift = 0;
  while ((top >> shift) + 1 > cap) ++shift;
  const std::uint64_t buckets = (top >> shift) + 1;
  std::uint32_t cell = 0;
  const auto last = static_cast<std::uint32_t>(upper.size() - 1);
  for (std::uint64_t b = 0; b <= buckets; ++b) {  // <= : the sentinel
    const auto first_value = static_cast<DomainIndex>(b << shift);
    while (cell < last && upper[cell] < first_value) ++cell;
    index.push_back(cell);
  }
  return shift;
}

/// The value-index lookup of match(): the offset, among a node's cells, of
/// the cell holding `v`. `upper` points at the node's first upper bound.
inline std::uint32_t locate_cell(const FlatProfileTree::NodeRef& node,
                                 const DomainIndex* upper,
                                 const std::uint32_t* index,
                                 DomainIndex v) noexcept {
  // Events hold in-domain values only (Event::from_indices and from_pairs
  // reject others), and the last cell ends at the domain's top, so v's
  // bucket and the one after it are inside the node's table.
  assert(v >= 0 && v <= upper[node.cell_count - 1]);
  const std::uint32_t* bucket =
      index + node.first_index + (static_cast<std::uint64_t>(v) >> node.shift);
  std::uint32_t offset = bucket[0];
  if (upper[offset] < v) {
    // v lies past the bucket's first cell: search the cells up to the next
    // bucket's, which ends at or beyond v. Never taken under shift 0.
    offset = static_cast<std::uint32_t>(
        std::lower_bound(upper + offset + 1, upper + bucket[1], v) - upper);
  }
  return offset;
}

}  // namespace

FlatProfileTree FlatProfileTree::compile(const ProfileTree& tree) {
  auto shape = std::make_shared<Shape>();
  auto cost = std::make_shared<std::vector<std::uint32_t>>();
  shape->schema = tree.schema();
  shape->attribute_order = tree.config().attribute_order;
  shape->root = tree.root();
  shape->profile_count = tree.profile_count();
  shape->source_version = tree.source_version();

  const std::vector<ProfileTree::Node>& nodes = tree.nodes();
  std::size_t total_cells = 0;
  for (const ProfileTree::Node& node : nodes) total_cells += node.cells.size();
  GENAS_CHECK(total_cells <= UINT32_MAX, "flat tree cell slab exceeds 2^32 cells");

  shape->nodes.reserve(nodes.size());
  shape->upper.reserve(total_cells);
  shape->child.reserve(total_cells);

  // Partition hash -> representative node index.
  std::unordered_multimap<std::uint64_t, std::uint32_t> partitions;
  partitions.reserve(nodes.size());
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const ProfileTree::Node& node = nodes[n];
    GENAS_CHECK(node.attribute <= UINT32_MAX, "flat tree attribute id exceeds 2^32");
    NodeRef ref;
    ref.attribute = static_cast<std::uint32_t>(node.attribute);
    ref.first_cell = static_cast<std::uint32_t>(shape->upper.size());
    ref.cell_count = static_cast<std::uint32_t>(node.cells.size());
    for (std::size_t i = 0; i < node.cells.size(); ++i) {
      shape->upper.push_back(node.cells[i].hi);
      shape->child.push_back(node.child[i]);
    }

    const std::uint64_t hash = partition_hash(node);
    const auto [first, last] = partitions.equal_range(hash);
    const auto found = std::find_if(first, last, [&](const auto& entry) {
      return same_partition(nodes[entry.second], node);
    });
    if (found != last) {
      const NodeRef& partition = shape->nodes[found->second];
      ref.first_cost = partition.first_cost;
      ref.first_index = partition.first_index;
      ref.shift = partition.shift;
    } else {
      ref.first_cost = static_cast<std::uint32_t>(cost->size());
      cost->insert(cost->end(), node.cost.begin(), node.cost.end());
      ref.first_index = static_cast<std::uint32_t>(shape->index.size());
      ref.shift = append_index(
          {shape->upper.data() + ref.first_cell, ref.cell_count},
          shape->schema->attribute(node.attribute).domain.size(), shape->index);
      GENAS_CHECK(shape->index.size() <= UINT32_MAX,
                  "flat tree value index exceeds 2^32 entries");
      partitions.emplace(hash, static_cast<std::uint32_t>(n));
      shape->partition_node.push_back(static_cast<std::uint32_t>(n));
    }
    shape->nodes.push_back(ref);
  }

  const std::vector<ProfileTree::Leaf>& leaves = tree.leaves();
  std::size_t total_postings = 0;
  for (const ProfileTree::Leaf& leaf : leaves) {
    total_postings += leaf.matched.size();
  }
  GENAS_CHECK(total_postings <= UINT32_MAX,
              "flat tree posting slab exceeds 2^32 entries");
  shape->leaf_offsets.reserve(leaves.size() + 1);
  shape->postings.reserve(total_postings);
  shape->leaf_offsets.push_back(0);
  for (const ProfileTree::Leaf& leaf : leaves) {
    shape->postings.insert(shape->postings.end(), leaf.matched.begin(),
                           leaf.matched.end());
    shape->leaf_offsets.push_back(
        static_cast<std::uint32_t>(shape->postings.size()));
  }

  FlatProfileTree flat;
  flat.shape_ = std::move(shape);
  flat.cost_ = std::move(cost);
  flat.value_order_ = tree.config().value_order;
  flat.strategy_ = tree.config().strategy;
  flat.bind();
  return flat;
}

void FlatProfileTree::bind() noexcept {
  walk_ = {shape_->root,         shape_->nodes.data(),
           shape_->upper.data(), shape_->child.data(),
           shape_->index.data(), cost_->data(),
           shape_->leaf_offsets.data(), shape_->postings.data()};
}

bool FlatProfileTree::rerankable(const TreeConfig& config) const {
  return keyed_by_interval(config.value_order) && config.strategy == strategy_ &&
         resolve_attribute_order(config.attribute_order,
                                 shape_->schema->attribute_count()) ==
             shape_->attribute_order;
}

FlatProfileTree FlatProfileTree::rerank(const TreeConfig& config) const {
  GENAS_REQUIRE(rerankable(config), ErrorCode::kInvalidArgument,
                "rerank needs the tree's attribute order and search strategy "
                "and a value order keyed by cell interval and P_e");
  FlatProfileTree out = *this;
  out.value_order_ = config.value_order;
  // Binary, interpolation and hash costs never read the scan key, and
  // natural orders never read P_e: then the slab stays as it is.
  if (strategy_ != SearchStrategy::kLinear ||
      (config.value_order == value_order_ &&
       !needs_event_distribution(value_order_))) {
    return out;
  }
  const Shape& shape = *shape_;
  const CellRanker ranker(shape.schema, config);
  auto cost = std::make_shared<std::vector<std::uint32_t>>(cost_->size());
  CellLayout layout;
  for (const std::uint32_t n : shape.partition_node) {
    const NodeRef& ref = shape.nodes[n];
    layout.cells.resize(ref.cell_count);
    layout.is_edge.resize(ref.cell_count);
    DomainIndex lo = shape.schema->attribute(ref.attribute).domain.full().lo;
    for (std::uint32_t i = 0; i < ref.cell_count; ++i) {
      const DomainIndex hi = shape.upper[ref.first_cell + i];
      layout.cells[i] = {lo, hi};
      layout.is_edge[i] = shape.child[ref.first_cell + i] != ProfileTree::kMiss;
      lo = hi + 1;
    }
    ranker.rank(ref.attribute, layout, {},
                {cost->data() + ref.first_cost, ref.cell_count}, {});
  }
  out.cost_ = std::move(cost);
  out.bind();
  return out;
}

FlatMatch FlatProfileTree::match(const Event& event) const noexcept {
  FlatMatch result;
  const DomainIndex* indices = event.indices().data();
  std::int32_t slot = walk_.root;
  while (slot >= 0) {
    const NodeRef node = walk_.nodes[static_cast<std::size_t>(slot)];
    // Locate the containing cell through the value index — uncounted, like
    // the node form's lookup (see profile_tree.cpp).
    const std::uint32_t offset =
        locate_cell(node, walk_.upper + node.first_cell, walk_.index,
                    indices[node.attribute]);
    result.operations += walk_.cost[node.first_cost + offset];
    slot = walk_.child[node.first_cell + offset];
  }
  if (ProfileTree::is_leaf_ref(slot)) {
    const std::size_t leaf = ProfileTree::leaf_index(slot);
    const std::uint32_t begin = walk_.leaf_offsets[leaf];
    result.matched = walk_.postings + begin;
    result.matched_count = walk_.leaf_offsets[leaf + 1] - begin;
  }
  return result;
}

std::uint32_t FlatProfileTree::locate(std::size_t node,
                                      DomainIndex value) const noexcept {
  const NodeRef& ref = walk_.nodes[node];
  return locate_cell(ref, walk_.upper + ref.first_cell, walk_.index, value);
}

std::span<const std::uint32_t> FlatProfileTree::cell_costs(
    std::size_t node) const noexcept {
  const NodeRef& ref = shape_->nodes[node];
  return {cost_->data() + ref.first_cost, ref.cell_count};
}

std::size_t FlatProfileTree::arena_bytes() const noexcept {
  const Shape& shape = *shape_;
  return shape.nodes.size() * sizeof(NodeRef) +
         shape.upper.size() * sizeof(DomainIndex) +
         shape.child.size() * sizeof(std::int32_t) +
         shape.index.size() * sizeof(std::uint32_t) +
         cost_->size() * sizeof(std::uint32_t) +
         shape.leaf_offsets.size() * sizeof(std::uint32_t) +
         shape.postings.size() * sizeof(ProfileId) +
         shape.partition_node.size() * sizeof(std::uint32_t);
}

}  // namespace genas
