#include "match/tree_matcher.hpp"

namespace genas {

TreeMatcher::TreeMatcher(const ProfileSet& profiles, OrderingPolicy policy,
                         std::optional<JointDistribution> event_distribution)
    : policy_(std::move(policy)),
      distribution_(std::move(event_distribution)) {
  rebuild(profiles);
}

void TreeMatcher::rebuild(const ProfileSet& profiles) {
  tree_ = std::make_unique<const ProfileTree>(
      build_tree(profiles, policy_, distribution_));
  flat_ = std::make_unique<const FlatProfileTree>(
      FlatProfileTree::compile(*tree_));
}

MatchOutcome TreeMatcher::match(const Event& event) const {
  const FlatMatch result = flat_->match(event);
  MatchOutcome outcome;
  outcome.operations = result.operations;
  outcome.matched.assign(result.matched, result.matched + result.matched_count);
  return outcome;
}

}  // namespace genas
