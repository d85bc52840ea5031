// Request-scoped tracing with tail-based retention.
//
// PR 3's Tracer answers "what did this thread do"; this store answers
// "why was THIS query slow". Every query admitted anywhere (wire frame
// or in-process Submit) opens one entry keyed by its trace id and
// collects boundary timestamps as it crosses the pipeline:
//
//   received -> admitted -> taken -> submitted -> dispatched
//            -> kernel_done -> delivered
//
// Stages are defined as the deltas between consecutive boundaries
// (decode, queue, gate, coalesce, kernel, deliver), so the stage
// durations telescope: their sum equals the wire-measured latency
// (delivered - received) by construction, with missing boundaries
// forward-filled at Finish. That identity is what lets a slowlog line
// be audited against the latency histogram it is an exemplar for.
//
// Retention is tail-based: every query is recorded while open, but at
// Finish only the interesting ones — slow (absolute threshold or a
// multiple of the rolling p99), shed, expired, errored, or explicitly
// client-sampled — are kept, in a bounded drop-oldest ring. Retained
// queries also replay their stage spans into the Tracer rings (tagged
// with a `trace` arg) so /debug/trace?trace_id=N shows one causal tree
// per query, and emit one JSON slowlog line through an optional sink.
//
// Threading: one mutex guards the open table and retained ring. The
// writers are the server poll/submit/completion threads and the engine
// dispatcher — per-query work, never the per-edge BFS hot path. All
// entry points take the timestamp from the caller (NowNanos()), so
// fake-clock tests drive the store deterministically.
//
// The store is always on: the server and the engine stamp every query
// whether or not a trace session is active (the cost is measured in
// docs/observability.md, "Always-on cost").
#ifndef PBFS_OBS_QUERY_TRACE_H_
#define PBFS_OBS_QUERY_TRACE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/live/metrics_registry.h"
#include "obs/live/rolling_window.h"

namespace pbfs {
namespace obs {

// Per-query trace identity, minted by the first layer that sees the
// query (wire decode, or engine Submit for in-process callers) or
// accepted from the client frame. sampled forces retention regardless
// of latency — a client debugging one request sets it and gets the
// span tree even when the query is fast.
struct TraceContext {
  uint64_t trace_id = 0;  // 0 = none assigned yet
  bool sampled = false;
};

// Boundary timestamps. kNumQueryStageBounds-1 stage intervals lie
// between consecutive boundaries.
enum class QueryStageBound : uint8_t {
  kReceived = 0,    // frame decoded / Submit entered
  kAdmitted = 1,    // admission queue accepted the ticket
  kTaken = 2,       // submit loop dequeued it
  kSubmitted = 3,   // engine Submit returned (inflight gate passed)
  kDispatched = 4,  // dispatcher pulled it into a batch
  kKernelDone = 5,  // BFS kernel produced the answer
  kDelivered = 6,   // response queued to the wire / promise fulfilled
};
inline constexpr int kNumQueryStageBounds = 7;
inline constexpr int kNumQueryStageSpans = kNumQueryStageBounds - 1;

// Interval names, index i covering [bound i, bound i+1).
const char* QueryStageSpanName(int i);

// Why Finish classified the query the way it did. Callers map their
// own status enums (engine QueryStatus, wire status) onto this.
enum class QueryOutcome : uint8_t {
  kOk = 0,
  kShed = 1,
  kExpired = 2,
  kError = 3,
};

// Which layer opened the entry. The server opens entries for wire
// queries before the engine sees them; the engine opens entries only
// for queries nobody opened yet (in-process Submit). Finish is a no-op
// unless the finishing layer matches the opener, so the engine
// completing a server-owned query cannot close the record before the
// response reaches the wire.
enum class TraceOwner : uint8_t { kServer = 0, kEngine = 1 };

struct QueryTraceRecord {
  uint64_t trace_id = 0;
  uint64_t request_id = 0;
  uint64_t session_id = 0;  // 0 for in-process queries
  uint8_t query_type = 0;   // engine QueryType value
  uint8_t priority = 0;
  QueryOutcome outcome = QueryOutcome::kOk;
  const char* retain_reason = "";  // "slow"|"shed"|"expired"|"error"|"sampled"
  const char* shed_reason = "";    // admission detail when outcome == kShed
  bool sampled = false;
  int64_t bounds_ns[kNumQueryStageBounds] = {};  // forward-filled, monotone
  int64_t wire_latency_ns = 0;                   // delivered - received
  uint32_t batch_width = 0;  // MS batch width it rode (0 = none recorded)
  uint64_t batch_seq = 0;    // dispatcher batch sequence number
  uint64_t snapshot_version = 0;

  int64_t StageDurNs(int i) const {
    return bounds_ns[i + 1] - bounds_ns[i];
  }
  // One structured slowlog line (JSON object, no trailing newline).
  std::string ToJson() const;
};

class QueryTraceStore {
 public:
  struct Options {
    // Open-entry table cap; admissions beyond it are counted in
    // dropped_total and not tracked.
    size_t max_open = 4096;
    // Retained ring cap (drop-oldest).
    size_t max_retained = 256;
    // Absolute slow threshold in milliseconds; <= 0 disables.
    double slow_ms = 250.0;
    // Relative trigger: retain when wire latency >= p99 * p99_factor,
    // once the rolling window holds at least min_p99_samples. <= 0
    // disables.
    double p99_factor = 4.0;
    uint64_t min_p99_samples = 200;
    int64_t p99_window_ns = int64_t{30} * 1000 * 1000 * 1000;
    // Called with each retained query's JSON line (no newline), from
    // under the store lock — keep it cheap (buffered stream write).
    std::function<void(const std::string&)> slowlog_sink;
    // Replay retained stage spans into Tracer rings (tagged `trace`).
    bool emit_spans = true;
  };

  struct BeginInfo {
    uint64_t request_id = 0;
    uint64_t session_id = 0;
    uint8_t query_type = 0;
    uint8_t priority = 0;
    bool sampled = false;
  };

  struct Stats {
    uint64_t open = 0;
    uint64_t retained = 0;  // current ring size
    uint64_t retained_slow = 0;
    uint64_t retained_shed = 0;
    uint64_t retained_expired = 0;
    uint64_t retained_error = 0;
    uint64_t retained_sampled = 0;
    uint64_t discarded_total = 0;  // finished fast, nothing kept
    uint64_t dropped_total = 0;    // open-table overflow
    double effective_slow_ms = 0;  // current retention threshold
    uint64_t retained_total() const {
      return retained_slow + retained_shed + retained_expired +
             retained_error + retained_sampled;
    }
  };

  // Highest-latency retained query per priority, for exemplar metrics.
  struct Exemplar {
    uint64_t trace_id = 0;
    double latency_ms = 0;
  };
  static constexpr int kMaxPriorities = 8;

  static QueryTraceStore& Get();

  // Replaces options and clears all state (tests, demo startup).
  void Configure(const Options& options);
  Options options() const;

  // Non-zero, unique within the process.
  uint64_t MintTraceId();

  // Opens an entry. No-op (false) when the id is already open — which
  // is how the engine defers to a server-owned entry — or the table is
  // full (counted in dropped_total).
  bool Begin(uint64_t trace_id, TraceOwner owner, const BeginInfo& info,
             int64_t received_ns);

  // Records a boundary. First write wins; unknown ids are ignored.
  void Stamp(uint64_t trace_id, QueryStageBound bound, int64_t ts_ns);

  // Batch/snapshot facts only the dispatcher knows.
  void AnnotateBatch(uint64_t trace_id, uint32_t batch_width,
                     uint64_t batch_seq);
  void AnnotateSnapshot(uint64_t trace_id, uint64_t snapshot_version);
  void SetShedReason(uint64_t trace_id, const char* reason);

  // Closes the entry (owner must match the opener): stamps kDelivered
  // if missing, forward-fills gaps, decides retention, feeds the
  // rolling p99, emits spans + slowlog for retained entries.
  void Finish(uint64_t trace_id, TraceOwner owner, QueryOutcome outcome,
              int64_t now_ns);

  // Copy of the retained ring, oldest first.
  std::vector<QueryTraceRecord> Retained() const;
  // Retained entries as newline-separated JSON (the /debug/slowlog
  // body), newest last. `only_trace_id` != 0 filters to one query.
  std::string SlowlogJson(uint64_t only_trace_id = 0) const;

  Stats GetStats(int64_t now_ns) const;
  Exemplar exemplar(uint8_t priority) const;

  // Appends the pbfs_query_trace_* families. Registered as a
  // MetricsRegistry collector by whoever owns the registry.
  void CollectMetrics(ExpositionWriter& writer, int64_t now_ns) const;

 private:
  QueryTraceStore() = default;

  struct OpenEntry {
    QueryTraceRecord record;
    TraceOwner owner = TraceOwner::kServer;
  };

  double EffectiveSlowMsLocked(int64_t now_ns) const;
  void RetainLocked(QueryTraceRecord&& record);
  static void EmitSpans(const QueryTraceRecord& record);

  mutable std::mutex mutex_;
  Options options_;
  std::unordered_map<uint64_t, OpenEntry> open_;
  std::deque<QueryTraceRecord> retained_;
  // Pointer: RollingWindow's const options make it non-assignable, and
  // Configure replaces the window shape.
  std::unique_ptr<RollingWindow> latency_window_;
  Exemplar exemplars_[kMaxPriorities];
  uint64_t retained_slow_ = 0;
  uint64_t retained_shed_ = 0;
  uint64_t retained_expired_ = 0;
  uint64_t retained_error_ = 0;
  uint64_t retained_sampled_ = 0;
  uint64_t discarded_total_ = 0;
  uint64_t dropped_total_ = 0;
  uint64_t id_counter_ = 0;
  uint64_t id_seed_ = 0;
};

}  // namespace obs
}  // namespace pbfs

#endif  // PBFS_OBS_QUERY_TRACE_H_
