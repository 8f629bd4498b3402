#include "wire/batch.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"

namespace genas::wire {

namespace {

[[noreturn]] void parse_fail(const std::string& what) {
  throw_error(ErrorCode::kParse, "wire: " + what);
}

/// Same remapping as codec.cpp's: constructor validation failures seen from
/// the wire are parse errors.
template <typename Fn>
auto as_parse(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const Error& e) {
    if (e.code() == ErrorCode::kParse) throw;
    throw_error(ErrorCode::kParse, std::string("wire: ") + e.what());
  }
}

}  // namespace

std::vector<DomainIndex> EventArena::checkout(std::size_t capacity) {
  std::vector<DomainIndex> v;
  if (!spare_.empty()) {
    v = std::move(spare_.back());
    spare_.pop_back();
    v.clear();
  }
  v.reserve(capacity);
  return v;
}

void EventArena::recycle(Event&& event) {
  if (spare_.size() >= kMaxSpare) return;
  std::vector<DomainIndex> v = event.take_indices();
  if (v.capacity() == 0) return;
  spare_.push_back(std::move(v));
}

void EventArena::recycle_all(std::vector<Event>& events) {
  for (Event& event : events) recycle(std::move(event));
  events.clear();
}

std::size_t decode_event_batch(std::span<const std::uint8_t> frame,
                               const SchemaPtr& schema, EventArena& arena,
                               std::vector<Event>& events,
                               std::vector<std::uint64_t>& tokens) {
  if (peek_type(frame) != MessageType::kEventBatch) {
    parse_fail("decode_event_batch requires a kEventBatch frame");
  }
  return as_parse([&]() -> std::size_t {
    GENAS_REQUIRE(schema != nullptr, ErrorCode::kInvalidArgument,
                  "event decoding requires a schema");
    Reader r(frame.subspan(kFrameHeaderSize));
    const std::size_t attributes = schema->attribute_count();
    const std::uint32_t batch = r.count(r.u32(), attributes * 8 + 8);
    if (batch == 0) parse_fail("empty event batch");
    const std::uint8_t has_tokens = r.u8();
    if (has_tokens > 1) parse_fail("event batch token flag must be 0 or 1");
    events.reserve(events.size() + batch);
    tokens.reserve(tokens.size() + batch);
    for (std::uint32_t i = 0; i < batch; ++i) {
      std::vector<DomainIndex> indices = arena.checkout(attributes);
      for (std::size_t a = 0; a < attributes; ++a) {
        const std::uint64_t raw = r.u64();
        const std::int64_t domain_size = schema->attribute(a).domain.size();
        if (raw >= static_cast<std::uint64_t>(domain_size)) {
          parse_fail("event index " + std::to_string(raw) +
                     " outside domain of '" + schema->attribute(a).name + "'");
        }
        indices.push_back(static_cast<DomainIndex>(raw));
      }
      const Timestamp time = r.i64();
      events.push_back(Event::from_indices(schema, std::move(indices), time));
    }
    if (has_tokens == 1) {
      for (std::uint32_t i = 0; i < batch; ++i) tokens.push_back(r.u64());
    } else {
      tokens.insert(tokens.end(), batch, 0);
    }
    r.expect_done();
    return batch;
  });
}

void EventBatchBuilder::append(const Event& event, std::uint64_t token) {
  if (count_ == 0) {
    length_at_ = detail::begin_frame(writer_, MessageType::kEventBatch);
    count_at_ = writer_.size();
    writer_.u32(0);  // event count, patched by take_frame
    flag_at_ = writer_.size();
    writer_.u8(0);  // has_tokens, patched when any token is nonzero
    attr_count_ = static_cast<std::uint32_t>(event.indices().size());
  }
  GENAS_CHECK(event.indices().size() == attr_count_,
              "batched events must share one schema");
  for (const DomainIndex index : event.indices()) {
    writer_.u64(static_cast<std::uint64_t>(index));
  }
  writer_.i64(event.time());
  // The token run starts at the first nonzero token, back-filling the
  // earlier events with 0: a token-free batch allocates nothing here.
  if (token != 0 || !tokens_.empty()) {
    tokens_.resize(count_, 0);
    tokens_.push_back(token);
  }
  ++count_;
}

std::vector<std::uint8_t> EventBatchBuilder::take_frame() {
  GENAS_CHECK(count_ > 0, "take_frame on an empty batch builder");
  writer_.patch_u32(count_at_, static_cast<std::uint32_t>(count_));
  if (!tokens_.empty()) {
    writer_.patch_u8(flag_at_, 1);
    for (const std::uint64_t token : tokens_) writer_.u64(token);
  }
  std::vector<std::uint8_t> frame = detail::end_frame(writer_, length_at_);
  reset();
  return frame;
}

void EventBatchBuilder::reset() noexcept {
  writer_.clear();
  tokens_.clear();
  count_ = 0;
}

void DeliveryBatchBuilder::append(std::uint64_t key, const Event& event) {
  if (count_ == 0) {
    length_at_ = detail::begin_frame(writer_, MessageType::kDeliveryBatch);
    count_at_ = writer_.size();
    writer_.u32(0);  // delivery count, patched by take_frame
    attr_count_ = static_cast<std::uint32_t>(event.indices().size());
  }
  GENAS_CHECK(event.indices().size() == attr_count_,
              "batched deliveries must share one schema");
  writer_.u64(key);
  for (const DomainIndex index : event.indices()) {
    writer_.u64(static_cast<std::uint64_t>(index));
  }
  writer_.i64(event.time());
  ++count_;
}

std::vector<std::uint8_t> DeliveryBatchBuilder::take_frame() {
  GENAS_CHECK(count_ > 0, "take_frame on an empty batch builder");
  writer_.patch_u32(count_at_, static_cast<std::uint32_t>(count_));
  std::vector<std::uint8_t> frame = detail::end_frame(writer_, length_at_);
  reset();
  return frame;
}

void DeliveryBatchBuilder::reset() noexcept {
  writer_.clear();
  count_ = 0;
}

std::vector<std::uint8_t> frame_event_batch(
    std::span<const Event> events, std::span<const std::uint64_t> tokens) {
  GENAS_REQUIRE(!events.empty(), ErrorCode::kInvalidArgument,
                "an event batch frame needs at least one event");
  GENAS_REQUIRE(tokens.empty() || tokens.size() == events.size(),
                ErrorCode::kInvalidArgument,
                "event batch tokens must be one per event");
  EventBatchBuilder builder;
  for (std::size_t i = 0; i < events.size(); ++i) {
    builder.append(events[i], tokens.empty() ? 0 : tokens[i]);
  }
  return builder.take_frame();
}

std::vector<std::uint8_t> frame_delivery_batch(
    std::span<const std::uint64_t> keys, std::span<const Event> events) {
  GENAS_REQUIRE(!events.empty(), ErrorCode::kInvalidArgument,
                "a delivery batch frame needs at least one delivery");
  GENAS_REQUIRE(keys.size() == events.size(), ErrorCode::kInvalidArgument,
                "delivery batch keys must be one per event");
  DeliveryBatchBuilder builder;
  for (std::size_t i = 0; i < events.size(); ++i) {
    builder.append(keys[i], events[i]);
  }
  return builder.take_frame();
}

}  // namespace genas::wire
