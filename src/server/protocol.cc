#include "server/protocol.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace pbfs {
namespace server {
namespace {

// ---- Little-endian append and read helpers ----
//
// The wire is little-endian and so is every supported host (x86_64,
// aarch64), so a value's wire bytes are its object bytes: scalars and
// whole arrays are copied with one append or one memcpy, never byte by
// byte.
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies integers in host byte order");

// Unsigned wire representation of an integral or enum type (lazy, so
// underlying_type is only instantiated for enums).
template <typename T, typename = void>
struct WireRep {
  using type = T;
};
template <typename T>
struct WireRep<T, std::enable_if_t<std::is_enum_v<T>>> {
  using type = std::underlying_type_t<T>;
};
template <typename T>
using WireUint = std::make_unsigned_t<typename WireRep<T>::type>;

// Payload bytes of each message up to its first array: request id and
// kind, then the fixed fields.
constexpr size_t kHeaderBytes = 8 + 1;
constexpr size_t kQueryRequestFixedBytes = kHeaderBytes + 1 + 1 + 4 + 4 + 2 + 2;
constexpr size_t kQueryResponseFixedBytes =
    kHeaderBytes + 1 + 1 + 1 + 8 + 2 + 2 + 2 + 8;
// One edge update on the wire: u32 u, u32 v, u8 insert.
constexpr size_t kUpdateWireBytes = 2 * sizeof(Vertex) + 1;
constexpr size_t kTraceBlockBytes = 1 + sizeof(uint64_t);

// Reserves the whole frame and the 4-byte length prefix on
// construction and patches the prefix on Finish, so encoders write the
// payload straight into the output string with one allocation.
class FrameWriter {
 public:
  FrameWriter(std::string* out, size_t payload_bytes)
      : out_(out), start_(out->size()), end_(start_ + 4 + payload_bytes) {
    out_->reserve(end_);
    Put<uint32_t>(0);  // placeholder
  }
  // Appends `count` unsigned integers in wire order.
  template <typename U>
  void PutArray(const U* data, size_t count) {
    static_assert(std::is_unsigned_v<U>);
    out_->append(reinterpret_cast<const char*>(data), count * sizeof(U));
  }
  template <typename T>
  void Put(T value) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    const auto v = static_cast<WireUint<T>>(value);
    PutArray(&v, 1);
  }
  void Finish() {
    PBFS_DCHECK(out_->size() == end_);
    const auto len = static_cast<uint32_t>(out_->size() - start_ - 4);
    std::memcpy(out_->data() + start_, &len, sizeof(len));
  }

 private:
  std::string* out_;
  size_t start_;
  size_t end_;
};

// ---- Bounds-checked little-endian reader over one payload ----

class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  // Reads `count` unsigned integers, or nothing (returning false) when
  // fewer than count * sizeof(U) bytes remain.
  template <typename U>
  bool GetArray(U* out, size_t count) {
    static_assert(std::is_unsigned_v<U>);
    const size_t bytes = count * sizeof(U);
    if (remaining() < bytes) return false;
    if (bytes > 0) std::memcpy(out, data_.data() + pos_, bytes);
    pos_ += bytes;
    return true;
  }
  template <typename T>
  bool Get(T* out) {
    WireUint<T> v = 0;
    if (!GetArray(&v, 1)) return false;
    *out = static_cast<T>(v);
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// Shared frame-level scaffolding: checks the length prefix against the
// buffer and the limit, and exposes the payload.
DecodeStatus SplitFrame(std::string_view buffer, size_t max_frame_bytes,
                        std::string_view* payload, size_t* frame_bytes,
                        std::string* error) {
  if (buffer.size() < 4) return DecodeStatus::kNeedMore;
  uint32_t len = 0;
  std::memcpy(&len, buffer.data(), sizeof(len));
  if (len > max_frame_bytes) {
    if (error != nullptr) {
      *error = "frame length " + std::to_string(len) + " exceeds limit " +
               std::to_string(max_frame_bytes);
    }
    return DecodeStatus::kOversized;
  }
  if (buffer.size() - 4 < len) return DecodeStatus::kNeedMore;
  *payload = buffer.substr(4, len);
  *frame_bytes = 4 + static_cast<size_t>(len);
  return DecodeStatus::kOk;
}

DecodeStatus Malformed(std::string* error, const char* why) {
  if (error != nullptr) *error = why;
  return DecodeStatus::kMalformed;
}

}  // namespace

const char* PriorityName(Priority priority) {
  switch (priority) {
    case Priority::kHigh:
      return "high";
    case Priority::kNormal:
      return "normal";
    case Priority::kLow:
      return "low";
  }
  return "unknown";
}

const char* DecodeStatusName(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kNeedMore:
      return "need_more";
    case DecodeStatus::kMalformed:
      return "malformed";
    case DecodeStatus::kOversized:
      return "oversized";
  }
  return "unknown";
}

bool operator==(const UpdateRequest& a, const UpdateRequest& b) {
  if (a.request_id != b.request_id || a.updates.size() != b.updates.size()) {
    return false;
  }
  for (size_t i = 0; i < a.updates.size(); ++i) {
    if (a.updates[i].u != b.updates[i].u || a.updates[i].v != b.updates[i].v ||
        a.updates[i].insert != b.updates[i].insert) {
      return false;
    }
  }
  return true;
}

// ---- Encoders ----

void EncodeQueryRequest(const QueryRequest& msg, std::string* out) {
  const bool traced = msg.trace_id != 0;
  FrameWriter w(out, kQueryRequestFixedBytes + 4 +
                         msg.targets.size() * sizeof(Vertex) +
                         (traced ? kTraceBlockBytes : 0));
  w.Put(msg.request_id);
  w.Put(MessageKind::kQuery);
  // QueryType has no fixed underlying type; pin it to its one-byte
  // wire representation explicitly.
  w.Put(static_cast<uint8_t>(msg.type));
  w.Put(msg.priority);
  w.Put(msg.source);
  w.Put(msg.deadline_ms);
  w.Put(msg.max_hops);
  w.Put(msg.tolerance);
  w.Put(static_cast<uint32_t>(msg.targets.size()));
  w.PutArray(msg.targets.data(), msg.targets.size());
  if (traced) {
    w.Put(static_cast<uint8_t>(msg.trace_sampled ? 1 : 0));
    w.Put(msg.trace_id);
  }
  w.Finish();
}

void EncodeUpdateRequest(const UpdateRequest& msg, std::string* out) {
  FrameWriter w(out, kHeaderBytes + 4 + msg.updates.size() * kUpdateWireBytes);
  w.Put(msg.request_id);
  w.Put(MessageKind::kEdgeUpdates);
  w.Put(static_cast<uint32_t>(msg.updates.size()));
  for (const EdgeUpdate& u : msg.updates) {
    w.Put(u.u);
    w.Put(u.v);
    w.Put(static_cast<uint8_t>(u.insert ? 1 : 0));
  }
  w.Finish();
}

void EncodeQueryResponse(const QueryResponse& msg, std::string* out) {
  FrameWriter w(out, kQueryResponseFixedBytes + 4 +
                         msg.levels.size() * sizeof(Level) + 4 +
                         msg.reachable.size() + 4 +
                         msg.khop_sizes.size() * sizeof(uint64_t));
  w.Put(msg.request_id);
  w.Put(MessageKind::kQuery);
  w.Put(static_cast<uint8_t>(msg.type));  // see EncodeQueryRequest
  w.Put(msg.status);
  w.Put(static_cast<uint8_t>(msg.sketch_resolved ? 1 : 0));
  w.Put(msg.snapshot_version);
  w.Put(msg.distance);
  w.Put(msg.bound_lower);
  w.Put(msg.bound_upper);
  w.Put(msg.vertices_reached);
  w.Put(static_cast<uint32_t>(msg.levels.size()));
  w.PutArray(msg.levels.data(), msg.levels.size());
  w.Put(static_cast<uint32_t>(msg.reachable.size()));
  w.PutArray(msg.reachable.data(), msg.reachable.size());
  w.Put(static_cast<uint32_t>(msg.khop_sizes.size()));
  w.PutArray(msg.khop_sizes.data(), msg.khop_sizes.size());
  w.Finish();
}

void EncodeUpdateResponse(const UpdateResponse& msg, std::string* out) {
  FrameWriter w(out, kHeaderBytes + 8 + 4);
  w.Put(msg.request_id);
  w.Put(MessageKind::kEdgeUpdates);
  w.Put(msg.content_version);
  w.Put(msg.num_applied);
  w.Finish();
}

// ---- Decoders ----

DecodeStatus DecodeRequest(std::string_view buffer, size_t max_frame_bytes,
                           Request* out, size_t* consumed,
                           std::string* error) {
  std::string_view payload;
  size_t frame_bytes = 0;
  DecodeStatus s = SplitFrame(buffer, max_frame_bytes, &payload, &frame_bytes,
                              error);
  if (s != DecodeStatus::kOk) return s;

  PayloadReader r(payload);
  Request req;
  uint64_t request_id = 0;
  uint8_t kind = 0;
  if (!r.Get(&request_id) || !r.Get(&kind)) {
    return Malformed(error, "payload shorter than header");
  }
  switch (kind) {
    case static_cast<uint8_t>(MessageKind::kQuery): {
      req.kind = MessageKind::kQuery;
      QueryRequest& q = req.query;
      q.request_id = request_id;
      uint8_t type = 0;
      uint8_t priority = 0;
      uint32_t num_targets = 0;
      if (!r.Get(&type) || !r.Get(&priority) || !r.Get(&q.source) ||
          !r.Get(&q.deadline_ms) || !r.Get(&q.max_hops) ||
          !r.Get(&q.tolerance) || !r.Get(&num_targets)) {
        return Malformed(error, "truncated query fields");
      }
      if (type > static_cast<uint8_t>(QueryType::kPointToPointDistance)) {
        return Malformed(error, "unknown query type");
      }
      if (priority >= kNumPriorities) {
        return Malformed(error, "unknown priority");
      }
      q.type = static_cast<QueryType>(type);
      q.priority = static_cast<Priority>(priority);
      // Frames end either right after the targets (legacy client: the
      // server mints a trace id) or after a 9-byte trace block.
      const size_t targets_bytes = size_t{num_targets} * sizeof(Vertex);
      const bool has_trace = r.remaining() == targets_bytes + kTraceBlockBytes;
      if (!has_trace && r.remaining() != targets_bytes) {
        return Malformed(error, "target count disagrees with frame length");
      }
      q.targets.resize(num_targets);
      r.GetArray(q.targets.data(), num_targets);
      if (has_trace) {
        uint8_t sampled = 0;
        r.Get(&sampled);
        r.Get(&q.trace_id);
        if (sampled > 1) return Malformed(error, "sampled flag not 0/1");
        if (q.trace_id == 0) return Malformed(error, "zero trace id");
        q.trace_sampled = sampled != 0;
      }
      break;
    }
    case static_cast<uint8_t>(MessageKind::kEdgeUpdates): {
      req.kind = MessageKind::kEdgeUpdates;
      UpdateRequest& u = req.updates;
      u.request_id = request_id;
      uint32_t count = 0;
      if (!r.Get(&count)) return Malformed(error, "truncated update count");
      if (r.remaining() != size_t{count} * kUpdateWireBytes) {
        return Malformed(error, "update count disagrees with frame length");
      }
      u.updates.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint8_t insert = 0;
        r.Get(&u.updates[i].u);
        r.Get(&u.updates[i].v);
        r.Get(&insert);
        if (insert > 1) return Malformed(error, "insert flag not 0/1");
        u.updates[i].insert = insert != 0;
      }
      break;
    }
    default:
      return Malformed(error, "unknown message kind");
  }
  if (!r.Done()) return Malformed(error, "trailing bytes after message");
  *out = std::move(req);
  *consumed = frame_bytes;
  return DecodeStatus::kOk;
}

DecodeStatus DecodeResponse(std::string_view buffer, size_t max_frame_bytes,
                            Response* out, size_t* consumed,
                            std::string* error) {
  std::string_view payload;
  size_t frame_bytes = 0;
  DecodeStatus s = SplitFrame(buffer, max_frame_bytes, &payload, &frame_bytes,
                              error);
  if (s != DecodeStatus::kOk) return s;

  PayloadReader r(payload);
  Response resp;
  uint64_t request_id = 0;
  uint8_t kind = 0;
  if (!r.Get(&request_id) || !r.Get(&kind)) {
    return Malformed(error, "payload shorter than header");
  }
  switch (kind) {
    case static_cast<uint8_t>(MessageKind::kQuery): {
      resp.kind = MessageKind::kQuery;
      QueryResponse& q = resp.query;
      q.request_id = request_id;
      uint8_t type = 0;
      uint8_t status = 0;
      uint8_t sketch = 0;
      if (!r.Get(&type) || !r.Get(&status) || !r.Get(&sketch) ||
          !r.Get(&q.snapshot_version) || !r.Get(&q.distance) ||
          !r.Get(&q.bound_lower) || !r.Get(&q.bound_upper) ||
          !r.Get(&q.vertices_reached)) {
        return Malformed(error, "truncated response fields");
      }
      if (type > static_cast<uint8_t>(QueryType::kPointToPointDistance)) {
        return Malformed(error, "unknown query type");
      }
      if (status > static_cast<uint8_t>(QueryStatus::kShed)) {
        return Malformed(error, "unknown status");
      }
      if (sketch > 1) return Malformed(error, "sketch flag not 0/1");
      q.type = static_cast<QueryType>(type);
      q.status = static_cast<QueryStatus>(status);
      q.sketch_resolved = sketch != 0;
      uint32_t num_levels = 0;
      if (!r.Get(&num_levels) ||
          r.remaining() < size_t{num_levels} * sizeof(Level)) {
        return Malformed(error, "level count disagrees with frame length");
      }
      q.levels.resize(num_levels);
      r.GetArray(q.levels.data(), num_levels);
      uint32_t num_reachable = 0;
      if (!r.Get(&num_reachable) || r.remaining() < size_t{num_reachable}) {
        return Malformed(error, "reachable count disagrees with frame length");
      }
      q.reachable.resize(num_reachable);
      r.GetArray(q.reachable.data(), num_reachable);
      if (std::any_of(q.reachable.begin(), q.reachable.end(),
                      [](uint8_t flag) { return flag > 1; })) {
        return Malformed(error, "reachable flag not 0/1");
      }
      uint32_t num_khop = 0;
      if (!r.Get(&num_khop) ||
          r.remaining() != size_t{num_khop} * sizeof(uint64_t)) {
        return Malformed(error, "khop count disagrees with frame length");
      }
      q.khop_sizes.resize(num_khop);
      r.GetArray(q.khop_sizes.data(), num_khop);
      break;
    }
    case static_cast<uint8_t>(MessageKind::kEdgeUpdates): {
      resp.kind = MessageKind::kEdgeUpdates;
      UpdateResponse& u = resp.update;
      u.request_id = request_id;
      if (!r.Get(&u.content_version) || !r.Get(&u.num_applied)) {
        return Malformed(error, "truncated update ack");
      }
      break;
    }
    default:
      return Malformed(error, "unknown message kind");
  }
  if (!r.Done()) return Malformed(error, "trailing bytes after message");
  *out = std::move(resp);
  *consumed = frame_bytes;
  return DecodeStatus::kOk;
}

}  // namespace server
}  // namespace pbfs
