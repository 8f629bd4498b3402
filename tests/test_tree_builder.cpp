// ProfileTree::build against the reference builder (reference_tree.hpp):
// node for node, build statistics included, over random profile sets with
// equality, range and multi-interval predicates, don't-cares, removed ids
// and priority weights, under every value order and search strategy. Also
// checks that the hashed memo never merges two different alive sets, and
// that a rank-only re-rank of the compiled tree (FlatProfileTree::rerank)
// reproduces a fresh build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/shapes.hpp"
#include "reference_tree.hpp"
#include "tree/flat_tree.hpp"
#include "tree/profile_tree.hpp"

namespace genas {
namespace {

using testutil::expect_same_tree;
using testutil::reference_build;

struct BuildCase {
  ValueOrder order;
  SearchStrategy strategy;
  std::uint64_t seed;
};

struct IntAttribute {
  const char* name;
  std::int64_t lo;
  std::int64_t hi;
};
constexpr IntAttribute kAttributes[] = {{"a", 0, 11}, {"b", -5, 6}, {"c", 0, 9}};

SchemaPtr small_schema() {
  SchemaBuilder builder;
  for (const IntAttribute& attribute : kAttributes) {
    builder.add_integer(attribute.name, attribute.lo, attribute.hi);
  }
  return builder.build();
}

/// Random predicate on `name` over [lo, hi]: equality, one-sided and
/// two-sided ranges, and the multi-interval forms (!=, outside, in).
void add_random_predicate(ProfileBuilder& builder, const std::string& name,
                          std::int64_t lo, std::int64_t hi, Rng& rng) {
  const auto value = [&] {
    return lo + static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  std::int64_t x = value();
  std::int64_t y = value();
  if (x > y) std::swap(x, y);
  // No predicate may accept nothing: keep "> x" and "outside [x, y]" open.
  if (x == hi) --x;
  if (x == lo && y == hi) --y;
  switch (rng.below(7)) {
    case 0: builder.where(name, Op::kEq, x); break;
    case 1: builder.where(name, Op::kNe, x); break;
    case 2: builder.where(name, Op::kLe, x); break;
    case 3: builder.where(name, Op::kGt, x); break;
    case 4: builder.between(name, x, y); break;
    case 5: builder.outside(name, x, y); break;
    default: builder.in(name, {Value(x), Value(y), Value(value())}); break;
  }
}

/// `count` random profiles with don't-cares, some removed again (gaps in
/// the id space) and some with raised priority weights.
ProfileSet random_profiles(const SchemaPtr& schema, std::size_t count, Rng& rng) {
  ProfileSet profiles(schema);
  for (std::size_t i = 0; i < count; ++i) {
    ProfileBuilder builder(schema);
    for (const IntAttribute& attribute : kAttributes) {
      if (rng.chance(0.3)) continue;  // don't-care
      add_random_predicate(builder, attribute.name, attribute.lo, attribute.hi, rng);
    }
    profiles.add(builder.build());
  }
  for (ProfileId id = 0; id < count; ++id) {
    if (rng.chance(0.15)) {
      profiles.remove(id);
    } else if (rng.chance(0.2)) {
      profiles.set_weight(id, 1.0 + static_cast<double>(rng.below(4)));
    }
  }
  return profiles;
}

JointDistribution random_joint(const SchemaPtr& schema, Rng& rng) {
  std::vector<DiscreteDistribution> marginals;
  for (const Attribute& attribute : schema->attributes()) {
    const std::int64_t d = attribute.domain.size();
    switch (rng.below(3)) {
      case 0: marginals.push_back(shapes::gauss(d)); break;
      case 1: marginals.push_back(shapes::percent_peak(d, 0.9, rng.chance(0.5))); break;
      default: marginals.push_back(shapes::falling(d)); break;
    }
  }
  return JointDistribution::independent(schema, std::move(marginals));
}

TreeConfig random_config(const SchemaPtr& schema, ValueOrder order,
                         SearchStrategy strategy, Rng& rng) {
  TreeConfig config;
  config.attribute_order = {0, 1, 2};
  for (std::size_t i = 2; i > 0; --i) {
    std::swap(config.attribute_order[i], config.attribute_order[rng.below(i + 1)]);
  }
  config.value_order = order;
  config.strategy = strategy;
  config.event_distribution = random_joint(schema, rng);
  return config;
}

/// Distinct (level, alive set) pairs, found without any decomposition: the
/// alive set at level L after values v_0..v_{L-1} of the first L attributes
/// is the set of profiles accepting all of them.
std::size_t distinct_alive_sets(const ProfileSet& profiles,
                                const std::vector<AttributeId>& order) {
  const Schema& schema = *profiles.schema();
  const std::vector<ProfileId> ids = profiles.active_ids();
  std::size_t total = 0;
  for (std::size_t level = 0; level <= order.size(); ++level) {
    std::set<std::vector<ProfileId>> sets;
    std::vector<DomainIndex> prefix(level, 0);
    while (true) {
      std::vector<ProfileId> alive;
      for (const ProfileId id : ids) {
        bool accepts = true;
        for (std::size_t j = 0; j < level && accepts; ++j) {
          const Predicate* predicate = profiles.profile(id).predicate(order[j]);
          accepts = predicate == nullptr || predicate->matches_index(prefix[j]);
        }
        if (accepts) alive.push_back(id);
      }
      if (!alive.empty()) sets.insert(std::move(alive));
      std::size_t j = 0;
      for (; j < level; ++j) {
        if (++prefix[j] < schema.attribute(order[j]).domain.size()) break;
        prefix[j] = 0;
      }
      if (j == level) break;
    }
    total += sets.size();
  }
  return total;
}

class TreeBuilderOracle : public ::testing::TestWithParam<BuildCase> {};

TEST_P(TreeBuilderOracle, EqualsReferenceBuilderNodeForNode) {
  const BuildCase param = GetParam();
  Rng rng(param.seed);
  const SchemaPtr schema = small_schema();
  for (const std::size_t count : {1u, 12u, 60u, 250u}) {
    const ProfileSet profiles = random_profiles(schema, count, rng);
    const TreeConfig config = random_config(schema, param.order, param.strategy, rng);
    const ProfileTree tree = ProfileTree::build(profiles, config);
    SCOPED_TRACE("profiles=" + std::to_string(count));
    expect_same_tree(tree, reference_build(profiles, config));
    if (count == 60) {
      EXPECT_GT(tree.build_stats().memo_hits, 0u);  // shared subtrees
    }
    if (count <= 60) {
      EXPECT_EQ(tree.build_stats().node_count + tree.build_stats().leaf_count,
                distinct_alive_sets(profiles, tree.config().attribute_order));
    }
  }
}

/// `flat` reproduces `fresh` cell for cell: directory, bounds, children,
/// costs and leaves.
void expect_reranked_as(const FlatProfileTree& flat, const ProfileTree& fresh) {
  ASSERT_EQ(flat.node_count(), fresh.nodes().size());
  EXPECT_EQ(flat.root(), fresh.root());
  for (std::size_t n = 0; n < fresh.nodes().size(); ++n) {
    const ProfileTree::Node& node = fresh.nodes()[n];
    const FlatProfileTree::NodeRef& ref = flat.nodes()[n];
    EXPECT_EQ(ref.attribute, node.attribute) << "node " << n;
    ASSERT_EQ(ref.cell_count, node.cells.size()) << "node " << n;
    for (std::size_t i = 0; i < node.cells.size(); ++i) {
      EXPECT_EQ(flat.upper()[ref.first_cell + i], node.cells[i].hi);
      EXPECT_EQ(flat.child()[ref.first_cell + i], node.child[i]);
    }
    EXPECT_TRUE(std::ranges::equal(flat.cell_costs(n), node.cost)) << "node " << n;
  }
  ASSERT_EQ(flat.leaf_count(), fresh.leaves().size());
  for (std::size_t l = 0; l < fresh.leaves().size(); ++l) {
    const auto begin = flat.postings().begin() + flat.leaf_offsets()[l];
    const auto end = flat.postings().begin() + flat.leaf_offsets()[l + 1];
    EXPECT_TRUE(std::equal(begin, end, fresh.leaves()[l].matched.begin(),
                           fresh.leaves()[l].matched.end()))
        << "leaf " << l;
  }
}

class RerankOracle : public ::testing::TestWithParam<BuildCase> {};

TEST_P(RerankOracle, EqualsFreshBuildUnderNewDistribution) {
  const BuildCase param = GetParam();
  Rng rng(param.seed + 1000);
  const SchemaPtr schema = small_schema();
  const ProfileSet profiles = random_profiles(schema, 120, rng);
  const TreeConfig before = random_config(schema, param.order, param.strategy, rng);
  TreeConfig after = before;
  after.event_distribution = random_joint(schema, rng);

  const ProfileTree fresh = ProfileTree::build(profiles, after);
  const FlatProfileTree built =
      FlatProfileTree::compile(ProfileTree::build(profiles, before));
  ASSERT_TRUE(built.rerankable(after));
  expect_reranked_as(built.rerank(after), fresh);

  // A tree ranked by profile weights re-ranks into the same result too:
  // the value order never changes the shape.
  TreeConfig weighted = before;
  weighted.value_order = ValueOrder::kCombinedProbability;
  expect_reranked_as(
      FlatProfileTree::compile(ProfileTree::build(profiles, weighted)).rerank(after),
      fresh);
}

/// Every value order (or only those rerank accepts) × every strategy.
std::vector<BuildCase> build_cases(bool rerankable_only) {
  std::vector<BuildCase> cases;
  const ValueOrder orders[] = {
      ValueOrder::kNaturalAscending, ValueOrder::kNaturalDescending,
      ValueOrder::kEventProbability, ValueOrder::kProfileProbability,
      ValueOrder::kCombinedProbability};
  const SearchStrategy strategies[] = {
      SearchStrategy::kLinear, SearchStrategy::kBinary,
      SearchStrategy::kInterpolation, SearchStrategy::kHash};
  std::uint64_t seed = 101;
  for (const ValueOrder order : orders) {
    if (rerankable_only && !keyed_by_interval(order)) continue;
    for (const SearchStrategy strategy : strategies) {
      cases.push_back({order, strategy, seed++});
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<BuildCase>& info) {
  std::string name = std::string(to_string(info.param.order)) + "_" +
                     std::string(to_string(info.param.strategy));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllOrdersAndStrategies, TreeBuilderOracle,
                         ::testing::ValuesIn(build_cases(false)), case_name);
INSTANTIATE_TEST_SUITE_P(RerankableOrdersAndStrategies, RerankOracle,
                         ::testing::ValuesIn(build_cases(true)), case_name);

TEST(TreeRerank, EmptyProfileSetAndSchemaOrderRerank) {
  const SchemaPtr schema = small_schema();
  const ProfileSet empty(schema);
  TreeConfig config;  // schema order, natural ascending
  const FlatProfileTree tree =
      FlatProfileTree::compile(ProfileTree::build(empty, config));
  config.value_order = ValueOrder::kNaturalDescending;
  ASSERT_TRUE(tree.rerankable(config));
  expect_reranked_as(tree.rerank(config), ProfileTree::build(empty, config));
}

TEST(TreeRerank, RefusesShapeChangingConfigs) {
  Rng rng(7);
  const SchemaPtr schema = small_schema();
  const ProfileSet profiles = random_profiles(schema, 40, rng);
  TreeConfig config;
  config.attribute_order = {0, 1, 2};
  config.value_order = ValueOrder::kEventProbability;
  config.event_distribution = random_joint(schema, rng);
  const FlatProfileTree tree =
      FlatProfileTree::compile(ProfileTree::build(profiles, config));

  TreeConfig schema_order = config;
  schema_order.attribute_order.clear();  // empty reads as schema order
  EXPECT_TRUE(tree.rerankable(schema_order));

  TreeConfig reordered = config;
  reordered.attribute_order = {1, 0, 2};
  EXPECT_FALSE(tree.rerankable(reordered));
  EXPECT_THROW((void)tree.rerank(reordered), Error);

  for (const ValueOrder order :
       {ValueOrder::kProfileProbability, ValueOrder::kCombinedProbability}) {
    TreeConfig weighted = config;
    weighted.value_order = order;
    EXPECT_FALSE(tree.rerankable(weighted));
    EXPECT_THROW((void)tree.rerank(weighted), Error);
  }

  TreeConfig binary = config;
  binary.strategy = SearchStrategy::kBinary;
  EXPECT_FALSE(tree.rerankable(binary));
  EXPECT_THROW((void)tree.rerank(binary), Error);

  TreeConfig no_distribution = config;
  no_distribution.event_distribution.reset();
  EXPECT_THROW((void)tree.rerank(no_distribution), Error);
}

}  // namespace
}  // namespace genas
