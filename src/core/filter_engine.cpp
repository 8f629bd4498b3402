#include "core/filter_engine.hpp"

#include "common/error.hpp"
#include "dist/shapes.hpp"
#include "obs/trace.hpp"

namespace genas {

FilterEngine::FilterEngine(SchemaPtr schema, EngineOptions options)
    : schema_(std::move(schema)),
      options_(std::move(options)),
      profiles_(schema_) {
  GENAS_REQUIRE(schema_ != nullptr, ErrorCode::kInvalidArgument,
                "filter engine requires a schema");
  if (options_.prior.has_value()) {
    GENAS_REQUIRE(options_.prior->schema() == schema_,
                  ErrorCode::kInvalidArgument,
                  "prior distribution schema differs from engine schema");
  }
  if (options_.adaptive.has_value()) {
    adaptive_.emplace(schema_, *options_.adaptive);
  }
}

ProfileId FilterEngine::subscribe(Profile profile) {
  return profiles_.add(std::move(profile));
}

ProfileId FilterEngine::subscribe(std::string_view expression) {
  return subscribe(parse_profile(schema_, expression));
}

void FilterEngine::unsubscribe(ProfileId id) { profiles_.remove(id); }

void FilterEngine::set_priority(ProfileId id, double weight) {
  profiles_.set_weight(id, weight);
}

JointDistribution FilterEngine::effective_distribution() const {
  if (adaptive_.has_value() &&
      adaptive_->observations() >= adaptive_->options().min_observations) {
    return adaptive_->estimate();
  }
  if (options_.prior.has_value()) return *options_.prior;
  std::vector<DiscreteDistribution> marginals;
  marginals.reserve(schema_->attribute_count());
  for (const Attribute& attribute : schema_->attributes()) {
    marginals.push_back(shapes::equal(attribute.domain.size()));
  }
  return JointDistribution::independent(schema_, std::move(marginals));
}

void FilterEngine::rebuild_locked(const JointDistribution& distribution) {
  const std::uint64_t start = obs::now_ns();
  // Swap the cost slab when only the ranking can have changed: same profile
  // set, same attribute order, and a value order whose scan keys read
  // nothing but cell intervals and P_e. Anything else builds afresh.
  TreeConfig config = make_tree_config(profiles_, options_.policy, distribution);
  const FlatProfileTree* live =
      snapshot_ != nullptr ? snapshot_->flat.get() : nullptr;
  const bool rank_only = live != nullptr &&
                         live->source_version() == profiles_.version() &&
                         live->rerankable(config);
  // Build off to the side, then swap the snapshot pointer in one shot: a
  // caller holding the previous snapshot keeps matching against it.
  if (rank_only) {
    snapshot_ = std::make_shared<const MatchSnapshot>(MatchSnapshot{
        nullptr, std::make_shared<const FlatProfileTree>(live->rerank(config))});
  } else {
    auto tree = std::make_shared<const ProfileTree>(
        ProfileTree::build(profiles_, config));
    auto flat =
        std::make_shared<const FlatProfileTree>(FlatProfileTree::compile(*tree));
    snapshot_ = std::make_shared<const MatchSnapshot>(
        MatchSnapshot{std::move(tree), std::move(flat)});
    ++full_build_count_;
  }
  config_ = std::move(config);
  ranked_.reset();
  ++rebuild_count_;
  if (adaptive_.has_value()) adaptive_->mark_rebuilt(distribution);
  last_rebuild_ns_ = obs::now_ns() - start;
}

void FilterEngine::rebuild() { rebuild_locked(effective_distribution()); }

void FilterEngine::ensure_fresh() {
  if (snapshot_ == nullptr ||
      snapshot_->flat->source_version() != profiles_.version()) {
    rebuild();
  }
}

const ProfileTree& FilterEngine::tree() {
  ensure_fresh();
  if (snapshot_->tree != nullptr) return *snapshot_->tree;
  if (ranked_ == nullptr) {
    ranked_ = std::make_unique<const ProfileTree>(
        ProfileTree::build(profiles_, config_));
  }
  return *ranked_;
}

std::shared_ptr<const MatchSnapshot> FilterEngine::snapshot() {
  ensure_fresh();
  return snapshot_;
}

bool FilterEngine::observe(std::span<const Event> events) {
  if (!adaptive_.has_value()) return false;
  for (const Event& event : events) adaptive_->observe(event);
  if (!adaptive_->should_rebuild()) return false;
  rebuild_locked(adaptive_->estimate());
  return true;
}

EngineMatch FilterEngine::match(const Event& event) {
  GENAS_REQUIRE(event.schema() == schema_, ErrorCode::kInvalidArgument,
                "event schema differs from engine schema");
  ensure_fresh();

  EngineMatch outcome;
  const FlatMatch result = snapshot_->flat->match(event);
  outcome.operations = result.operations;
  outcome.matched.assign(result.matched, result.matched + result.matched_count);
  outcome.rebuilt = observe({&event, 1});
  return outcome;
}

EngineBatchMatch FilterEngine::match_batch(std::span<const Event> events,
                                           std::vector<ProfileId>& matched,
                                           std::vector<std::size_t>& offsets) {
  matched.clear();
  offsets.clear();
  offsets.reserve(events.size() + 1);
  offsets.push_back(0);

  EngineBatchMatch outcome;
  if (events.empty()) return outcome;

  for (const Event& event : events) {
    GENAS_REQUIRE(event.schema() == schema_, ErrorCode::kInvalidArgument,
                  "event schema differs from engine schema");
  }
  ensure_fresh();

  // One snapshot serves the whole batch; the adaptive controller observes
  // every event, but a drift rebuild is deferred to the batch boundary so
  // the batch matches one consistent tree.
  const FlatProfileTree& flat = *snapshot_->flat;
  for (const Event& event : events) {
    const FlatMatch result = flat.match(event);
    outcome.operations += result.operations;
    if (result.matched_count > 0) ++outcome.matched_events;
    matched.insert(matched.end(), result.matched,
                   result.matched + result.matched_count);
    offsets.push_back(matched.size());
  }
  outcome.rebuilt = observe(events);
  return outcome;
}

void FilterEngine::set_policy(OrderingPolicy policy) {
  options_.policy = std::move(policy);
  snapshot_.reset();  // force a full rebuild on next use
}

}  // namespace genas
