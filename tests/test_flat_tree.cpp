// Tests for FlatProfileTree: the SoA compilation must be observationally
// identical to the node form — same matched sets AND same counted
// operations — across every ordering policy, search strategy, and workload;
// the value index must find the cell a binary search over the upper bounds
// finds, for every value of every node; and a rank-only rerank must equal a
// fresh compile cell for cell while sharing the shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "match/naive_matcher.hpp"
#include "profile/parser.hpp"
#include "sim/workload.hpp"
#include "test_util.hpp"
#include "tree/flat_tree.hpp"
#include "wire/batch.hpp"
#include "wire/codec.hpp"

namespace genas {
namespace {

Event make_event(const SchemaPtr& schema, std::int64_t t, std::int64_t h,
                 std::int64_t r) {
  return Event::from_pairs(
      schema, {{"temperature", t}, {"humidity", h}, {"radiation", r}});
}

TEST(FlatTree, MatchesExample1Exactly) {
  const SchemaPtr schema = testutil::example1_schema();
  const ProfileSet profiles = testutil::example1_profiles(schema);
  const ProfileTree tree = ProfileTree::build(profiles, {});
  const FlatProfileTree flat = FlatProfileTree::compile(tree);

  EXPECT_EQ(flat.node_count(), tree.nodes().size());
  EXPECT_EQ(flat.leaf_count(), tree.leaves().size());
  EXPECT_EQ(flat.profile_count(), tree.profile_count());
  EXPECT_EQ(flat.source_version(), tree.source_version());
  EXPECT_EQ(flat.root(), tree.root());
  EXPECT_GT(flat.arena_bytes(), 0u);

  const Event hot = make_event(schema, 40, 95, 40);
  const TreeMatch node_match = tree.match(hot);
  const FlatMatch flat_match = flat.match(hot);
  ASSERT_NE(node_match.matched, nullptr);
  EXPECT_EQ(std::vector<ProfileId>(flat_match.span().begin(),
                                   flat_match.span().end()),
            *node_match.matched);
  EXPECT_EQ(flat_match.operations, node_match.operations);

  const Event miss = make_event(schema, 0, 50, 70);
  const FlatMatch nothing = flat.match(miss);
  EXPECT_EQ(nothing.matched_count, 0u);
  EXPECT_EQ(nothing.matched, nullptr);
  EXPECT_EQ(nothing.operations, tree.match(miss).operations);
}

TEST(FlatTree, EmptyProfileSetNeverMatches) {
  const SchemaPtr schema = testutil::example1_schema();
  const ProfileSet empty(schema);
  const FlatProfileTree flat =
      FlatProfileTree::compile(ProfileTree::build(empty, {}));
  const FlatMatch match = flat.match(make_event(schema, 0, 0, 1));
  EXPECT_EQ(match.matched_count, 0u);
  EXPECT_EQ(match.operations, 0u);
  EXPECT_EQ(flat.node_count(), 0u);
}

TEST(FlatTree, DontCareOnlyProfileMatchesEverything) {
  const SchemaPtr schema = testutil::example1_schema();
  ProfileSet profiles(schema);
  const ProfileId all = profiles.add(ProfileBuilder(schema).build());
  const FlatProfileTree flat =
      FlatProfileTree::compile(ProfileTree::build(profiles, {}));
  const FlatMatch match = flat.match(make_event(schema, -30, 0, 1));
  ASSERT_EQ(match.matched_count, 1u);
  EXPECT_EQ(match.matched[0], all);
}

struct FlatTreeOracleParam {
  ValueOrder value_order;
  SearchStrategy strategy;
};

class FlatTreeOracle : public ::testing::TestWithParam<FlatTreeOracleParam> {};

TEST_P(FlatTreeOracle, AgreesWithNodeFormOnRandomWorkloads) {
  const SchemaPtr schema = SchemaBuilder()
                               .add_integer("a", 0, 49)
                               .add_integer("b", 0, 29)
                               .add_integer("c", 0, 19)
                               .build();
  const JointDistribution joint =
      make_event_distribution(schema, {"gauss", "d37", "equal"});

  ProfileWorkloadOptions options;
  options.count = 200;
  options.dont_care_probability = 0.3;
  options.equality_only = false;
  options.range_width_mean = 0.15;
  options.seed = 7;
  const ProfileSet profiles = generate_profiles(
      schema, make_profile_distributions(schema, {"gauss"}), options);

  TreeConfig config;
  config.value_order = GetParam().value_order;
  config.strategy = GetParam().strategy;
  config.event_distribution = joint;
  const ProfileTree tree = ProfileTree::build(profiles, config);
  const FlatProfileTree flat = FlatProfileTree::compile(tree);

  const NaiveMatcher oracle(profiles);
  for (const Event& event : testutil::event_stream(joint, 500, 11)) {
    const TreeMatch node_match = tree.match(event);
    const FlatMatch flat_match = flat.match(event);
    ASSERT_EQ(flat_match.operations, node_match.operations)
        << event.to_string();
    const std::vector<ProfileId> flat_ids(flat_match.span().begin(),
                                          flat_match.span().end());
    if (node_match.matched == nullptr) {
      EXPECT_TRUE(flat_ids.empty()) << event.to_string();
    } else {
      EXPECT_EQ(flat_ids, *node_match.matched) << event.to_string();
    }
    EXPECT_EQ(testutil::sorted(flat_ids), oracle.match(event).matched)
        << event.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrdersAndStrategies, FlatTreeOracle,
    ::testing::Values(
        FlatTreeOracleParam{ValueOrder::kNaturalAscending,
                            SearchStrategy::kLinear},
        FlatTreeOracleParam{ValueOrder::kNaturalDescending,
                            SearchStrategy::kBinary},
        FlatTreeOracleParam{ValueOrder::kEventProbability,
                            SearchStrategy::kLinear},
        FlatTreeOracleParam{ValueOrder::kProfileProbability,
                            SearchStrategy::kInterpolation},
        FlatTreeOracleParam{ValueOrder::kCombinedProbability,
                            SearchStrategy::kHash}));

// --- The value index: one table entry per level --------------------------

/// The cell the index must find: the first whose upper bound is >= v.
std::uint32_t searched_cell(const FlatProfileTree& flat, std::size_t node,
                            DomainIndex v) {
  const FlatProfileTree::NodeRef& ref = flat.nodes()[node];
  const auto upper = flat.upper().subspan(ref.first_cell, ref.cell_count);
  return static_cast<std::uint32_t>(
      std::lower_bound(upper.begin(), upper.end(), v) - upper.begin());
}

/// Checks every node's table against the sizing rule and every value of
/// its domain (both edges included) against the search; returns how many
/// lookups went past their bucket's first cell.
std::size_t expect_index_matches_search(const FlatProfileTree& flat) {
  std::size_t past_first = 0;
  for (std::size_t n = 0; n < flat.node_count(); ++n) {
    const FlatProfileTree::NodeRef& ref = flat.nodes()[n];
    const std::int64_t size = flat.schema()->attribute(ref.attribute).domain.size();
    const auto top = static_cast<std::uint64_t>(size - 1);
    const std::uint64_t cap = std::max<std::uint64_t>(16, 4 * ref.cell_count);
    EXPECT_LE((top >> ref.shift) + 1, cap) << "node " << n;
    if (ref.shift > 0) {
      EXPECT_GT((top >> (ref.shift - 1)) + 1, cap) << "node " << n;
    }
    // The table and its sentinel lie inside the index.
    EXPECT_LE(ref.first_index + (top >> ref.shift) + 2, flat.value_index().size());
    for (DomainIndex v = 0; v < size; ++v) {
      const std::uint32_t want = searched_cell(flat, n, v);
      const std::uint32_t got = flat.locate(n, v);
      if (got != want) {
        ADD_FAILURE() << "node " << n << " value " << v << ": index cell " << got
                      << ", search cell " << want;
        return past_first;
      }
      const std::uint32_t first =
          flat.value_index()[ref.first_index + (static_cast<std::uint64_t>(v) >> ref.shift)];
      past_first += first != got;
    }
  }
  return past_first;
}

struct IndexParam {
  ValueOrder value_order;
  SearchStrategy strategy;
  bool equality_only;
};

class FlatValueIndex : public ::testing::TestWithParam<IndexParam> {};

TEST_P(FlatValueIndex, FindsTheSearchedCellForEveryValue) {
  const SchemaPtr schema = SchemaBuilder()
                               .add_integer("a", 0, 49)
                               .add_integer("b", 0, 29)
                               .add_integer("c", 0, 19)
                               .build();
  ProfileWorkloadOptions options;
  options.count = 200;
  options.dont_care_probability = 0.3;
  options.equality_only = GetParam().equality_only;
  options.range_width_mean = 0.15;
  options.seed = 41;
  const ProfileSet profiles = generate_profiles(
      schema, make_profile_distributions(schema, {"gauss"}), options);
  TreeConfig config;
  config.value_order = GetParam().value_order;
  config.strategy = GetParam().strategy;
  config.event_distribution = make_event_distribution(schema, {"d37", "gauss", "equal"});
  const FlatProfileTree flat =
      FlatProfileTree::compile(ProfileTree::build(profiles, config));
  ASSERT_GT(flat.node_count(), 1u);
  expect_index_matches_search(flat);
}

std::vector<IndexParam> index_params() {
  std::vector<IndexParam> params;
  for (const ValueOrder order :
       {ValueOrder::kNaturalAscending, ValueOrder::kNaturalDescending,
        ValueOrder::kEventProbability, ValueOrder::kProfileProbability,
        ValueOrder::kCombinedProbability}) {
    for (const SearchStrategy strategy :
         {SearchStrategy::kLinear, SearchStrategy::kBinary,
          SearchStrategy::kInterpolation, SearchStrategy::kHash}) {
      for (const bool equality_only : {true, false}) {
        params.push_back({order, strategy, equality_only});
      }
    }
  }
  return params;
}

std::string index_name(const ::testing::TestParamInfo<IndexParam>& info) {
  std::string name = std::string(to_string(info.param.value_order)) + "_" +
                     std::string(to_string(info.param.strategy)) +
                     (info.param.equality_only ? "_equality" : "_range");
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllOrdersStrategiesAndProfiles, FlatValueIndex,
                         ::testing::ValuesIn(index_params()), index_name);

TEST(FlatValueIndex, LargeDomainBucketsAndSearchesWithinABucket) {
  // A million-value attribute gets buckets of 2^shift values, and clustered
  // cells put several into one bucket, so the bounded search runs.
  const SchemaPtr schema = SchemaBuilder()
                               .add_integer("small", 0, 3)
                               .add_integer("big", 0, 999'999)
                               .build();
  ProfileWorkloadOptions options;
  options.count = 300;
  options.dont_care_probability = 0.2;
  options.equality_only = false;
  options.range_width_mean = 0.002;
  options.seed = 43;
  ProfileSet profiles = generate_profiles(
      schema, make_profile_distributions(schema, {"equal", "gauss"}), options);
  profiles.add(ProfileBuilder(schema).where("big", Op::kEq, Value(999'999)).build());
  profiles.add(ProfileBuilder(schema).where("big", Op::kEq, Value(0)).build());
  const JointDistribution joint = make_event_distribution(schema, {"equal", "gauss"});
  for (const SearchStrategy strategy : {SearchStrategy::kLinear, SearchStrategy::kHash}) {
    TreeConfig config;
    config.value_order = ValueOrder::kEventProbability;
    config.strategy = strategy;
    config.event_distribution = joint;
    const FlatProfileTree flat =
        FlatProfileTree::compile(ProfileTree::build(profiles, config));
    const bool shifted = std::ranges::any_of(
        flat.nodes(), [](const auto& ref) { return ref.shift > 0; });
    EXPECT_TRUE(shifted);
    EXPECT_GT(expect_index_matches_search(flat), 0u) << "bucket search never ran";

    const NaiveMatcher oracle(profiles);
    std::vector<Event> events = testutil::event_stream(joint, 300, 47);
    for (const DomainIndex big : {DomainIndex{0}, DomainIndex{999'999}}) {
      events.push_back(Event::from_indices(schema, {0, big}));
      events.push_back(Event::from_indices(schema, {3, big}));
    }
    for (const Event& event : events) {
      EXPECT_EQ(testutil::sorted({flat.match(event).span().begin(),
                                  flat.match(event).span().end()}),
                oracle.match(event).matched)
          << event.to_string();
    }
  }
}

TEST(FlatValueIndex, EveryEventEntryRejectsOutOfDomainValues) {
  // The walk reads v's bucket without a range check: it relies on every
  // Event holding in-domain values. Each way an event enters must refuse
  // one just past either domain edge.
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<Event> valid = {Event::from_indices(schema, {0, 0, 0}),
                                    Event::from_indices(schema, {80, 100, 99})};
  for (AttributeId a = 0; a < schema->attribute_count(); ++a) {
    const Attribute& attribute = schema->attribute(a);
    SCOPED_TRACE(attribute.name);
    const std::int64_t size = attribute.domain.size();
    for (const DomainIndex bad : {DomainIndex{-1}, DomainIndex{size}}) {
      std::vector<DomainIndex> indices = valid[0].indices();
      indices[a] = bad;
      EXPECT_THROW(Event::from_indices(schema, indices), Error);
    }

    const std::int64_t lo = attribute.domain.value_at(0).as_int();
    const std::int64_t hi = attribute.domain.value_at(size - 1).as_int();
    for (const std::int64_t bad : {lo - 1, hi + 1}) {
      std::string text;
      for (AttributeId b = 0; b < schema->attribute_count(); ++b) {
        const std::int64_t value =
            b == a ? bad : schema->attribute(b).domain.value_at(0).as_int();
        text += schema->attribute(b).name + " = " + std::to_string(value) + "; ";
      }
      EXPECT_THROW(parse_event(schema, text), Error) << text;
    }

    // Second event of a two-event batch; count(4) + token flag(1) first.
    std::vector<std::uint8_t> frame = wire::frame_event_batch(valid);
    const std::size_t at = wire::kFrameHeaderSize + 5 +
                           (schema->attribute_count() + 1) * 8 + a * 8;
    for (int byte = 0; byte < 8; ++byte) {
      frame[at + byte] = static_cast<std::uint8_t>(
          static_cast<std::uint64_t>(size) >> (8 * byte));
    }
    wire::EventArena arena;
    std::vector<Event> events;
    std::vector<std::uint64_t> tokens;
    EXPECT_THROW(wire::decode_event_batch(frame, schema, arena, events, tokens),
                 Error);
    EXPECT_THROW(wire::decode_message(frame, schema), Error);
  }
}

// --- Rank-only rebuilds: a cost-slab swap on a shared shape -------------

struct RerankParam {
  ValueOrder value_order;
  SearchStrategy strategy;
  bool equality_only;
};

class FlatRerankOracle : public ::testing::TestWithParam<RerankParam> {
 protected:
  SchemaPtr schema_ = SchemaBuilder()
                          .add_integer("a", 0, 49)
                          .add_integer("b", 0, 29)
                          .add_integer("c", 0, 19)
                          .build();

  /// Profiles with don't-cares, a few removed ids and uneven weights.
  ProfileSet profiles() const {
    ProfileWorkloadOptions options;
    options.count = 200;
    options.dont_care_probability = 0.3;
    options.equality_only = GetParam().equality_only;
    options.range_width_mean = 0.15;
    options.seed = 29;
    ProfileSet set = generate_profiles(
        schema_, make_profile_distributions(schema_, {"gauss"}), options);
    for (ProfileId id = 0; id < set.capacity(); id += 7) set.remove(id);
    for (ProfileId id = 1; id < set.capacity(); id += 5) {
      if (set.is_active(id)) set.set_weight(id, 1.0 + static_cast<double>(id % 4));
    }
    return set;
  }

  /// Cell-for-cell equality: directory, bounds, children, costs, postings.
  static void expect_same_flat(const FlatProfileTree& a, const FlatProfileTree& b) {
    ASSERT_EQ(a.node_count(), b.node_count());
    EXPECT_EQ(a.root(), b.root());
    EXPECT_EQ(a.source_version(), b.source_version());
    EXPECT_TRUE(std::ranges::equal(a.upper(), b.upper()));
    EXPECT_TRUE(std::ranges::equal(a.child(), b.child()));
    EXPECT_TRUE(std::ranges::equal(a.leaf_offsets(), b.leaf_offsets()));
    EXPECT_TRUE(std::ranges::equal(a.postings(), b.postings()));
    for (std::size_t n = 0; n < a.node_count(); ++n) {
      EXPECT_EQ(a.nodes()[n].first_cell, b.nodes()[n].first_cell) << "node " << n;
      EXPECT_EQ(a.nodes()[n].attribute, b.nodes()[n].attribute) << "node " << n;
      EXPECT_TRUE(std::ranges::equal(a.cell_costs(n), b.cell_costs(n)))
          << "node " << n;
    }
  }
};

TEST_P(FlatRerankOracle, EqualsFreshCompileAndSharesTheShape) {
  const RerankParam param = GetParam();
  const ProfileSet set = profiles();
  TreeConfig after;
  after.value_order = param.value_order;
  after.strategy = param.strategy;
  after.event_distribution =
      make_event_distribution(schema_, {"d37", "gauss", "equal"});
  const FlatProfileTree reference =
      FlatProfileTree::compile(ProfileTree::build(set, after));

  // From a tree planned under another order and P_e, including a weighted
  // (V3) one whose partitions are split by profile shares.
  TreeConfig natural;
  natural.strategy = param.strategy;
  TreeConfig weighted;
  weighted.value_order = ValueOrder::kCombinedProbability;
  weighted.strategy = param.strategy;
  weighted.event_distribution = make_event_distribution(schema_, {"gauss"});
  for (const TreeConfig& before : {natural, weighted}) {
    const FlatProfileTree built =
        FlatProfileTree::compile(ProfileTree::build(set, before));
    ASSERT_TRUE(built.rerankable(after));
    const FlatProfileTree reranked = built.rerank(after);
    SCOPED_TRACE(std::string(to_string(before.value_order)));
    expect_same_flat(reranked, reference);
    EXPECT_EQ(reranked.nodes().data(), built.nodes().data()) << "shape copied";
    EXPECT_EQ(reranked.value_index().data(), built.value_index().data());
    EXPECT_EQ(reranked.postings().data(), built.postings().data());

    const NaiveMatcher oracle(set);
    for (const Event& event :
         testutil::event_stream(*after.event_distribution, 400, 13)) {
      const FlatMatch got = reranked.match(event);
      const FlatMatch want = reference.match(event);
      ASSERT_EQ(got.operations, want.operations) << event.to_string();
      EXPECT_TRUE(std::ranges::equal(got.span(), want.span())) << event.to_string();
      EXPECT_EQ(testutil::sorted({got.span().begin(), got.span().end()}),
                oracle.match(event).matched)
          << event.to_string();
    }
  }
}

TEST_P(FlatRerankOracle, NodesOfOnePartitionReadOneCostSpan) {
  const ProfileSet set = profiles();
  TreeConfig config;
  config.value_order = GetParam().value_order;
  config.strategy = GetParam().strategy;
  config.event_distribution = make_event_distribution(schema_, {"gauss"});
  const FlatProfileTree flat =
      FlatProfileTree::compile(ProfileTree::build(set, config))
          .rerank(config);

  // Partition key: attribute, cell bounds, edge pattern.
  std::map<std::vector<std::int64_t>, std::size_t> first_of;
  std::size_t shared = 0;
  for (std::size_t n = 0; n < flat.node_count(); ++n) {
    const FlatProfileTree::NodeRef& ref = flat.nodes()[n];
    std::vector<std::int64_t> key{ref.attribute};
    for (std::uint32_t i = ref.first_cell; i < ref.first_cell + ref.cell_count; ++i) {
      key.push_back(flat.upper()[i]);
      key.push_back(flat.child()[i] == ProfileTree::kMiss);
    }
    const auto [it, inserted] = first_of.emplace(std::move(key), n);
    if (inserted) continue;
    ++shared;
    EXPECT_EQ(flat.cell_costs(n).data(), flat.cell_costs(it->second).data())
        << "nodes " << it->second << " and " << n;
    // ... and one value-index table.
    EXPECT_EQ(ref.first_index, flat.nodes()[it->second].first_index);
    EXPECT_EQ(ref.shift, flat.nodes()[it->second].shift);
  }
  EXPECT_GT(shared, 0u) << "workload has no repeated partition";
  EXPECT_EQ(flat.partition_count(), first_of.size());
  EXPECT_LT(flat.partition_count(), flat.node_count());
}

TEST_P(FlatRerankOracle, KeepsTheSlabWhenCostsCannotChange) {
  const ProfileSet set = profiles();
  TreeConfig config;
  config.value_order = GetParam().value_order;
  config.strategy = GetParam().strategy;
  config.event_distribution = make_event_distribution(schema_, {"gauss"});
  const FlatProfileTree flat =
      FlatProfileTree::compile(ProfileTree::build(set, config));
  TreeConfig drifted = config;
  drifted.event_distribution = make_event_distribution(schema_, {"d37"});
  const FlatProfileTree reranked = flat.rerank(drifted);
  const bool unchanged = config.strategy != SearchStrategy::kLinear ||
                         !needs_event_distribution(config.value_order);
  EXPECT_EQ(reranked.cell_costs(0).data() == flat.cell_costs(0).data(), unchanged);
  expect_same_flat(reranked,
                   FlatProfileTree::compile(ProfileTree::build(set, drifted)));
}

std::vector<RerankParam> rerank_params() {
  std::vector<RerankParam> params;
  for (const ValueOrder order :
       {ValueOrder::kNaturalAscending, ValueOrder::kNaturalDescending,
        ValueOrder::kEventProbability}) {
    for (const SearchStrategy strategy :
         {SearchStrategy::kLinear, SearchStrategy::kBinary,
          SearchStrategy::kInterpolation, SearchStrategy::kHash}) {
      for (const bool equality_only : {true, false}) {
        params.push_back({order, strategy, equality_only});
      }
    }
  }
  return params;
}

std::string rerank_name(const ::testing::TestParamInfo<RerankParam>& info) {
  std::string name = std::string(to_string(info.param.value_order)) + "_" +
                     std::string(to_string(info.param.strategy)) +
                     (info.param.equality_only ? "_equality" : "_range");
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(KeyedOrdersStrategiesAndProfiles, FlatRerankOracle,
                         ::testing::ValuesIn(rerank_params()), rerank_name);

}  // namespace
}  // namespace genas
