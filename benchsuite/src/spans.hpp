// genas_bench — harness-side spans for the traced run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (nothing inside the library is instrumented). A span
// holds its name, start, end, parent (from a per-thread stack) and request
// id (event sequence number or batch id). Aggregates — count, corrected
// duration and self time (duration minus the child spans) — are kept per
// thread and per name online; raw spans go into a preallocated per-thread
// buffer and are written at exit as Chrome-trace JSON.
//
// Every steady_clock read costs tens of nanoseconds on a virtualized host,
// which is the same order as the cheapest layers. calibrate() measures what
// an empty span adds inside itself and to its parent, and every recorded
// duration is corrected by those amounts, so self times estimate the
// untraced cost.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace gb::spans {

enum class Name : std::uint8_t {
  kEnsPublishBatch,   ///< Broker::publish_batch
  kEnsPublish,        ///< Broker::publish
  kMeshPublishBatch,  ///< MeshNetwork::publish_batch (incl. backpressure)
  kMeshPublish,       ///< MeshNetwork::publish
  kMeshDeliver,       ///< harness callback on a mesh worker (sampled)
  kNetPublish,        ///< RemoteBrokerClient::publish
  kNetFlush,          ///< RemoteBrokerClient::flush
  kNetDeliver,        ///< harness callback on the client reader (sampled)
  kBenchCheck,        ///< delivery-ledger verification
  kBenchCopy,         ///< copying a chunk into the vector a mesh call takes
  kBenchWait,         ///< waiting for deliveries before reusing ledger slots
  kCount,
};

const char* name(Name name) noexcept;

/// Enables recording for this process (the traced run); off by default.
void set_enabled(bool enabled) noexcept;

/// Windows of a traced run alternate between recording and not: spans
/// record only while the process is enabled and active.
void set_active(bool active) noexcept;

/// Measures the empty-span overhead used to correct durations. Call once
/// before any span records.
void calibrate();

/// Scoped span. A root span (no open span on this thread) records only
/// when `sampled`; a child of a recording span always records. `weight` is
/// the number of events the span covers, for per-event self times.
class Span {
 public:
  Span(Name name, std::uint64_t request, bool sampled = true,
       std::uint64_t weight = 1) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool recording_ = false;
};

/// Aggregate of one span name across threads.
struct Aggregate {
  std::uint64_t count = 0;     ///< spans recorded
  std::uint64_t weight = 0;    ///< events those spans covered
  double total_ns = 0;         ///< corrected durations
  double self_ns = 0;          ///< corrected durations minus children
  LatencyHistogram durations;  ///< corrected per-span durations
};

/// Merged aggregate of `name`. Only call while no thread is recording.
Aggregate aggregate(Name name);

/// Clears every aggregate (raw spans are kept for the trace file). Only
/// call while no thread is recording.
void reset_aggregates();

/// Writes every stored span as Chrome-trace JSON ("X" events, µs).
void write_chrome_trace(const std::string& path);

}  // namespace gb::spans
