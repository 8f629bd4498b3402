// genas_bench — the five workloads' inputs: a fixed subscription set per
// workload and an event pool drawn from --seed.
//
// Every workload uses a 3-attribute [0,99] integer schema and a pool of
// kPool pre-sampled events. An event's timestamp is its global sequence
// number, so the pool index of sequence s is s % kPool; a run publishes the
// pool over and over, and the reference is computed once per pool index.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/filter_engine.hpp"
#include "ens/composite.hpp"

namespace gb {

inline constexpr std::size_t kPool = 65536;
inline constexpr std::size_t kBatch = 256;
/// filter_drift: P_e flips every kPhase events (pool halves).
inline constexpr std::size_t kPhase = kPool / 2;

/// One composite subscription over two of the workload's profiles.
struct CompositeSpec {
  std::uint32_t left = 0;
  std::uint32_t right = 0;
  bool sequence = true;  ///< seq(left, right, w); else conj(left, right, w)
  genas::Timestamp window = 32;
};

struct Inputs {
  genas::SchemaPtr schema;
  /// Subscriptions in registration order; position = reference index.
  std::vector<genas::Profile> profiles;
  /// kPool events, event i stamped with time i.
  std::vector<genas::Event> pool;
  /// Engine options of the workload's brokers.
  genas::EngineOptions engine;
  /// P_e, for Eq. 2 (a 50/50 mixture of the two phases for filter_drift).
  std::optional<genas::JointDistribution> event_distribution;
  /// Composite subscriptions (socket_ladder) and the broker's watermark skew.
  std::vector<CompositeSpec> composites;
  genas::Timestamp composite_skew = 64;
};

/// Inputs of `workload` for `seed`; throws std::invalid_argument for an
/// unknown name.
Inputs make_inputs(const std::string& workload, std::uint64_t seed);

/// The first `max_profiles` of `inputs`' profiles with its pool and engine
/// options, plus `composite_count` seq/conj composites over them: the shape
/// the in-process, mesh and socket probes use on other workloads' inputs.
Inputs probe_inputs(const Inputs& inputs, std::size_t max_profiles,
                    std::size_t composite_count);

/// `inputs` with profiles and pool rebuilt on `schema`, an equal schema
/// object (a socket client decodes its own copy from the handshake, and
/// profiles and events must carry the client's).
Inputs rebase(const Inputs& inputs, const genas::SchemaPtr& schema);

/// Service-level expression of `spec` over `inputs`' profiles.
genas::CompositeExprPtr composite_expression(const Inputs& inputs,
                                             const CompositeSpec& spec);

}  // namespace gb
