// GENAS — Matcher adapter over the profile tree.
//
// Wraps a ProfileTree (with any ordering policy) behind the common Matcher
// interface so the benchmark harness and broker can swap algorithms freely.
#pragma once

#include <memory>
#include <optional>

#include "core/ordering_policy.hpp"
#include "match/matcher.hpp"
#include "tree/flat_tree.hpp"
#include "tree/profile_tree.hpp"

namespace genas {

class TreeMatcher final : public Matcher {
 public:
  TreeMatcher(const ProfileSet& profiles, OrderingPolicy policy,
              std::optional<JointDistribution> event_distribution);

  std::string_view name() const noexcept override { return "tree"; }

  /// Matches against the flat compiled form.
  MatchOutcome match(const Event& event) const override;

  void rebuild(const ProfileSet& profiles) override;

  const ProfileTree& tree() const noexcept { return *tree_; }
  const FlatProfileTree& flat() const noexcept { return *flat_; }

 private:
  OrderingPolicy policy_;
  std::optional<JointDistribution> distribution_;
  std::unique_ptr<const ProfileTree> tree_;
  std::unique_ptr<const FlatProfileTree> flat_;
};

}  // namespace genas
