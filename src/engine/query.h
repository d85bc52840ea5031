// Typed BFS queries and results for the concurrent query engine.
//
// A Query is one independent traversal request from one client: the
// engine answers it from a coalesced MS-PBFS batch's result sink, or
// from the level array of a single-source fallback run (see
// query_engine.h). The types cover the BFS applications named in
// the paper's introduction: full distance labelings, point-to-point
// distances, reachability, and k-hop neighborhood enumeration — plus
// kPointToPointDistance, the sketch-served single-pair distance that
// resolves without a traversal when the engine's Cluster-BFS sketch
// bounds pinch (see sketch/sketch.h and docs/sketches.md).
#ifndef PBFS_ENGINE_QUERY_H_
#define PBFS_ENGINE_QUERY_H_

#include <cstdint>
#include <vector>

#include "bfs/common.h"
#include "graph/types.h"
#include "obs/query_trace.h"
#include "sketch/bounds.h"

namespace pbfs {

enum class QueryType {
  kLevels,        // full level array from the source
  kDistances,     // hop distance to each listed target
  kReachability,  // one reachable flag per listed target
  kKHop,          // cumulative neighborhood sizes for hops 0..max_hops
  kPointToPointDistance,  // distance to targets[0], sketch fast path
};

const char* QueryTypeName(QueryType type);

struct Query {
  QueryType type = QueryType::kLevels;
  Vertex source = 0;
  // Targets for kDistances / kReachability; may be empty, may repeat.
  // kPointToPointDistance requires exactly one target.
  std::vector<Vertex> targets;
  // kPointToPointDistance: the widest lower/upper bound gap the caller
  // accepts from the sketch fast path. 0 (the default) demands the
  // exact distance — the query still resolves inline when the sketch
  // bounds pinch, and otherwise traverses. Larger values trade
  // accuracy for microsecond answers; the served distance is then the
  // upper bound, at most `tolerance` above the truth.
  Level tolerance = 0;
  // Traversal radius for kKHop. A batch stops once its depth covers
  // the largest radius and its other answers are known, so small radii
  // stay cheap even through the engine. The default matches the wire's
  // (server::QueryRequest::max_hops): a k-hop query names its radius.
  Level max_hops = 0;
  // Absolute monotonic deadline on the NowNanos() clock; 0 = none. A
  // query whose deadline has passed when the dispatcher picks it up
  // completes with kDeadlineExceeded without being traversed.
  int64_t deadline_ns = 0;
  // Test/ops fault injection: the dispatcher sleeps this long while
  // executing the batch containing this query, simulating a slow
  // traversal so watchdog and latency telemetry can be exercised
  // end-to-end. 0 (the default) costs nothing.
  double debug_delay_ms = 0;
  // Per-query trace record (obs/query_trace.h), carried by value
  // through every stage and handed back in QueryResult::trace. Callers
  // may set trace.trace_id (0 = mint one) and trace.sampled (force
  // retention). The server fills identity and its boundaries before
  // Submit; for a record with no kReceived stamp the engine fills
  // them, and then also closes the record when the query completes.
  obs::QueryTraceRecord trace;
};

enum class QueryStatus : uint8_t {
  kOk,
  kInvalid,           // source or a target out of [0, num_vertices)
  kCancelled,         // Cancel() before dispatch, or engine shutdown
  kDeadlineExceeded,  // deadline passed before dispatch
  // Rejected by server-side admission control before reaching the
  // engine: the bounded admission queue was full, or the estimated
  // wait already exceeded the query's deadline (src/server/). The
  // engine itself never produces this status.
  kShed,
};

const char* QueryStatusName(QueryStatus status);
// The trace-store outcome a completion status is recorded as.
obs::QueryOutcome TraceOutcome(QueryStatus status);

struct QueryResult {
  QueryStatus status = QueryStatus::kOk;
  // kLevels: one entry per vertex. kDistances: one entry per target
  // (kLevelUnreached when unreachable).
  std::vector<Level> levels;
  // kReachability: one 0/1 flag per target.
  std::vector<uint8_t> reachable;
  // kKHop: cumulative neighborhood sizes for hops 0..max_hops
  // (excluding the source itself).
  std::vector<uint64_t> khop_sizes;
  // kLevels only: vertices with a finite level (including the source).
  uint64_t vertices_reached = 0;
  // kPointToPointDistance: the served hop distance — exact after a
  // traversal, the sketch upper bound (within Query::tolerance of the
  // truth) when sketch_resolved. kLevelUnreached when unreachable.
  Level distance = kLevelUnreached;
  // kPointToPointDistance: bounds bracketing the true distance at the
  // query's snapshot (lower == upper == distance on the exact path).
  DistanceBounds distance_bounds;
  // kPointToPointDistance: true when a fresh sketch answered inline
  // without a traversal or a batch slot.
  bool sketch_resolved = false;
  // Content version of the graph snapshot the query was answered from
  // (the snapshot current at admission time; see graph/snapshot.h).
  // 0 for queries that never reached a traversal (cancelled, expired,
  // invalid, or rejected at shutdown).
  uint64_t snapshot_version = 0;
  // The query's trace record, with every engine boundary the query
  // reached stamped. Already finished (delivered, outcome set) when
  // the engine opened it; otherwise the opener finishes it.
  obs::QueryTraceRecord trace;
};

}  // namespace pbfs

#endif  // PBFS_ENGINE_QUERY_H_
