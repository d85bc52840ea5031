// Wire protocol for the PBFS query server: length-prefixed binary
// frames over a byte stream (TCP).
//
// Every frame is
//
//   u32  payload_len   (little-endian, bytes that follow)
//   u8[] payload       (payload_len bytes)
//
// and the payload is a self-describing message: a u64 request id, a
// message-kind byte, then kind-specific fields. All integers are
// little-endian; there is no padding, no alignment, and every
// variable-length field is preceded by an explicit count, so a decoder
// can validate a frame without trusting the peer. Decoding is
// incremental: `DecodeRequest`/`DecodeResponse` consume zero or one
// frame from the front of a buffer and report kNeedMore when the
// buffer ends mid-frame, which is what a poll-loop reader wants.
//
// Request payloads (client -> server):
//
//   kQuery:        u8 query_type, u8 priority, u32 source,
//                  u32 deadline_ms (relative to receipt; 0 = none),
//                  u16 max_hops, u16 tolerance,
//                  u32 num_targets, u32 targets[num_targets],
//                  [optional: u8 trace_sampled, u64 trace_id]
//   kEdgeUpdates:  u32 num_updates, {u32 u, u32 v, u8 insert}[...]
//
// The trailing trace block is the client's distributed-tracing
// context: a non-zero trace id this query should be recorded under,
// and a sampled flag (1 forces span-tree retention server-side). It is
// optional *by frame length*: a frame that ends after the targets is a
// legacy frame and the server mints a trace id itself, so old clients
// interoperate unchanged. When present the block must be exactly 9
// bytes with a non-zero id and a 0/1 flag — anything else is
// malformed, never guessed at.
//
// Response payloads (server -> client):
//
//   kQuery:        u8 query_type, u8 status, u8 sketch_resolved,
//                  u64 snapshot_version,
//                  u16 distance, u16 bound_lower, u16 bound_upper,
//                  u64 vertices_reached,
//                  u32 num_levels,    u16 levels[...],
//                  u32 num_reachable, u8  reachable[...],
//                  u32 num_khop,      u64 khop_sizes[...]
//   kEdgeUpdates:  u64 content_version, u32 num_applied
//
// A malformed payload (unknown kind, out-of-range enum byte, count
// inconsistent with the payload length, trailing bytes) is a protocol
// error: the server closes the connection rather than guessing. So is
// an edge update naming a vertex outside the served graph, which the
// server checks after decoding (the decoder does not know |V|). A
// frame whose declared length exceeds the decoder's limit is reported
// as kOversized *before* buffering the body, so a hostile 4 GiB
// length prefix costs nothing.
#ifndef PBFS_SERVER_PROTOCOL_H_
#define PBFS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/query.h"
#include "graph/delta.h"
#include "graph/types.h"

namespace pbfs {
namespace server {

enum class MessageKind : uint8_t {
  kQuery = 1,
  kEdgeUpdates = 2,
};

// Admission priority. Lower value = served first. On the wire as u8;
// anything > kLow is malformed.
enum class Priority : uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};
inline constexpr int kNumPriorities = 3;
const char* PriorityName(Priority priority);

// ---- Request messages ----

struct QueryRequest {
  uint64_t request_id = 0;
  QueryType type = QueryType::kLevels;
  Priority priority = Priority::kNormal;
  Vertex source = 0;
  // Deadline relative to server receipt of the frame; 0 = no deadline.
  uint32_t deadline_ms = 0;
  Level max_hops = 0;    // kKHop only
  Level tolerance = 0;   // kPointToPointDistance only
  std::vector<Vertex> targets;
  // Client tracing context. Encoded (as the optional trailing block)
  // only when trace_id != 0; trace_sampled is meaningful only then.
  uint64_t trace_id = 0;
  bool trace_sampled = false;

  bool operator==(const QueryRequest&) const = default;
};

struct UpdateRequest {
  uint64_t request_id = 0;
  std::vector<EdgeUpdate> updates;
};
bool operator==(const UpdateRequest& a, const UpdateRequest& b);

// Tagged union of everything a client may send.
struct Request {
  MessageKind kind = MessageKind::kQuery;
  QueryRequest query;     // valid when kind == kQuery
  UpdateRequest updates;  // valid when kind == kEdgeUpdates
};

// ---- Response messages ----

struct QueryResponse {
  uint64_t request_id = 0;
  QueryType type = QueryType::kLevels;
  QueryStatus status = QueryStatus::kOk;
  bool sketch_resolved = false;
  uint64_t snapshot_version = 0;
  Level distance = 0;
  Level bound_lower = 0;
  Level bound_upper = 0;
  uint64_t vertices_reached = 0;
  std::vector<Level> levels;
  std::vector<uint8_t> reachable;
  std::vector<uint64_t> khop_sizes;

  bool operator==(const QueryResponse&) const = default;
};

struct UpdateResponse {
  uint64_t request_id = 0;
  uint64_t content_version = 0;
  uint32_t num_applied = 0;

  bool operator==(const UpdateResponse&) const = default;
};

struct Response {
  MessageKind kind = MessageKind::kQuery;
  QueryResponse query;    // valid when kind == kQuery
  UpdateResponse update;  // valid when kind == kEdgeUpdates
};

// ---- Encode ----

// Each appends one complete frame (length prefix included) to *out.
void EncodeQueryRequest(const QueryRequest& msg, std::string* out);
void EncodeUpdateRequest(const UpdateRequest& msg, std::string* out);
void EncodeQueryResponse(const QueryResponse& msg, std::string* out);
void EncodeUpdateResponse(const UpdateResponse& msg, std::string* out);

// ---- Decode ----

enum class DecodeStatus : uint8_t {
  kOk,         // one frame decoded; *consumed bytes were used
  kNeedMore,   // buffer ends mid-frame; feed more bytes and retry
  kMalformed,  // payload fails validation; connection is poisoned
  kOversized,  // declared length exceeds max_frame_bytes
};
const char* DecodeStatusName(DecodeStatus status);

// Frames a query server is willing to buffer per request. Responses
// can be much larger (a kLevels result is 2 bytes/vertex), so clients
// decode with kMaxResponseBytes.
inline constexpr size_t kMaxRequestBytes = size_t{1} << 20;
inline constexpr size_t kMaxResponseBytes = size_t{256} << 20;

// Attempt to decode one frame from the front of `buffer`. On kOk the
// frame occupied the first *consumed bytes. On any other status *out
// and *consumed are untouched; on kMalformed/kOversized *error (if
// non-null) gets a short human-readable reason.
DecodeStatus DecodeRequest(std::string_view buffer, size_t max_frame_bytes,
                           Request* out, size_t* consumed,
                           std::string* error = nullptr);
DecodeStatus DecodeResponse(std::string_view buffer, size_t max_frame_bytes,
                            Response* out, size_t* consumed,
                            std::string* error = nullptr);

}  // namespace server
}  // namespace pbfs

#endif  // PBFS_SERVER_PROTOCOL_H_
