#include "spans.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace gb::spans {
namespace {

constexpr std::size_t kNames = static_cast<std::size_t>(Name::kCount) + 1;
constexpr std::size_t kCalibrate = kNames - 1;  // internal, never reported
constexpr std::size_t kMaxDepth = 16;
/// Raw spans kept per thread and name for the trace file (the first ones
/// recorded); aggregates keep counting past the cap.
constexpr std::size_t kStoredPerName = 2048;

struct Record {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t request = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint8_t name = 0;
};

struct Frame {
  std::uint64_t start = 0;
  std::uint64_t request = 0;
  std::uint64_t weight = 0;
  double child_ns = 0;
  std::uint32_t id = 0;
  std::uint8_t name = 0;
};

struct PerName {
  std::uint64_t count = 0;
  std::uint64_t weight = 0;
  double total_ns = 0;
  double self_ns = 0;
  LatencyHistogram durations;
};

struct ThreadState {
  std::uint32_t tid = 0;
  std::array<Frame, kMaxDepth> stack{};
  std::size_t depth = 0;
  std::uint32_t next_id = 1;
  std::array<PerName, kNames> per_name;
  std::array<std::size_t, kNames> stored{};
  std::vector<Record> records;
};

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_active{false};
double g_inner_ns = 0;  // an empty span's own measured duration
double g_outer_ns = 0;  // what an empty span adds to its parent

std::mutex g_threads_mutex;
std::vector<std::unique_ptr<ThreadState>> g_threads;  // outlive their threads

ThreadState& state() {
  thread_local ThreadState* local = nullptr;
  if (local == nullptr) {
    auto fresh = std::make_unique<ThreadState>();
    fresh->records.reserve(4 * kStoredPerName);
    const std::scoped_lock lock(g_threads_mutex);
    fresh->tid = static_cast<std::uint32_t>(g_threads.size() + 1);
    local = fresh.get();
    g_threads.push_back(std::move(fresh));
  }
  return *local;
}

void begin(ThreadState& ts, std::size_t name, std::uint64_t request,
           std::uint64_t weight) {
  Frame& frame = ts.stack[ts.depth++];
  frame.name = static_cast<std::uint8_t>(name);
  frame.request = request;
  frame.weight = weight;
  frame.child_ns = 0;
  frame.id = ts.next_id++;
  frame.start = now_ns();
}

void end(ThreadState& ts) {
  const std::uint64_t stop = now_ns();
  const Frame& frame = ts.stack[--ts.depth];
  const double raw = static_cast<double>(stop - frame.start);
  const double duration = std::max(0.0, raw - g_inner_ns);
  const double self = std::max(0.0, duration - frame.child_ns);
  PerName& agg = ts.per_name[frame.name];
  ++agg.count;
  agg.weight += frame.weight;
  agg.total_ns += duration;
  agg.self_ns += self;
  agg.durations.record(static_cast<std::uint64_t>(duration));
  std::uint32_t parent = 0;
  if (ts.depth > 0) {
    Frame& up = ts.stack[ts.depth - 1];
    up.child_ns += duration + g_outer_ns;
    parent = up.id;
  }
  if (frame.name != kCalibrate && ts.stored[frame.name] < kStoredPerName) {
    ++ts.stored[frame.name];
    ts.records.push_back(
        Record{frame.start, stop, frame.request, frame.id, parent, frame.name});
  }
}

}  // namespace

const char* name(Name name) noexcept {
  switch (name) {
    case Name::kEnsPublishBatch: return "ens.publish_batch";
    case Name::kEnsPublish: return "ens.publish";
    case Name::kMeshPublishBatch: return "mesh.publish_batch";
    case Name::kMeshPublish: return "mesh.publish";
    case Name::kMeshDeliver: return "mesh.deliver";
    case Name::kNetPublish: return "net.publish";
    case Name::kNetFlush: return "net.flush";
    case Name::kNetDeliver: return "net.deliver";
    case Name::kBenchCheck: return "bench.check";
    case Name::kBenchCopy: return "bench.copy";
    case Name::kBenchWait: return "bench.wait";
    case Name::kCount: break;
  }
  return "calibrate";
}

void set_enabled(bool enabled) noexcept {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

void set_active(bool active) noexcept {
  g_active.store(active, std::memory_order_relaxed);
}

void calibrate() {
  ThreadState& ts = state();
  g_inner_ns = 0;
  g_outer_ns = 0;
  constexpr int kTrials = 64;
  constexpr int kPerTrial = 256;
  std::vector<double> outer;
  outer.reserve(kTrials);
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t a = now_ns();
    for (int i = 0; i < kPerTrial; ++i) {
      begin(ts, kCalibrate, 0, 1);
      end(ts);
    }
    outer.push_back(static_cast<double>(now_ns() - a) / kPerTrial);
  }
  g_inner_ns = ts.per_name[kCalibrate].durations.quantile(0.5);
  g_outer_ns = summarize(outer).median;
  ts.per_name[kCalibrate] = PerName{};
}

Span::Span(Name name, std::uint64_t request, bool sampled,
           std::uint64_t weight) noexcept {
  if (!g_enabled.load(std::memory_order_relaxed) ||
      !g_active.load(std::memory_order_relaxed)) {
    return;
  }
  ThreadState& ts = state();
  if ((ts.depth == 0 && !sampled) || ts.depth == kMaxDepth) return;
  begin(ts, static_cast<std::size_t>(name), request, weight);
  recording_ = true;
}

Span::~Span() {
  if (recording_) end(state());
}

Aggregate aggregate(Name name) {
  Aggregate out;
  const std::size_t index = static_cast<std::size_t>(name);
  const std::scoped_lock lock(g_threads_mutex);
  for (const auto& ts : g_threads) {
    const PerName& agg = ts->per_name[index];
    out.count += agg.count;
    out.weight += agg.weight;
    out.total_ns += agg.total_ns;
    out.self_ns += agg.self_ns;
    out.durations.merge(agg.durations);
  }
  return out;
}

void reset_aggregates() {
  const std::scoped_lock lock(g_threads_mutex);
  for (const auto& ts : g_threads) {
    for (PerName& agg : ts->per_name) agg = PerName{};
  }
}

void write_chrome_trace(const std::string& path) {
  const std::scoped_lock lock(g_threads_mutex);
  std::uint64_t origin = UINT64_MAX;
  for (const auto& ts : g_threads) {
    for (const Record& r : ts->records) origin = std::min(origin, r.start);
  }
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buffer[320];
  for (const auto& ts : g_threads) {
    for (const Record& r : ts->records) {
      std::snprintf(
          buffer, sizeof buffer,
          "%s\n{\"name\":\"%s\",\"cat\":\"genas\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu,"
          "\"id\":%u,\"parent\":%u}}",
          first ? "" : ",", name(static_cast<Name>(r.name)), ts->tid,
          static_cast<double>(r.start - origin) / 1000.0,
          static_cast<double>(r.end - r.start) / 1000.0,
          static_cast<unsigned long long>(r.request), r.id, r.parent);
      out << buffer;
      first = false;
    }
  }
  out << "\n]}\n";
}

}  // namespace gb::spans
