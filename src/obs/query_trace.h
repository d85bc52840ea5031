// Request-scoped tracing with tail-based retention.
//
// The Tracer answers "what did this thread do"; this store answers
// "why was THIS query slow". Every query (wire frame or in-process
// Submit) carries one QueryTraceRecord by value (Query::trace, handed
// back in QueryResult::trace) and each layer writes the boundaries it
// owns straight into it, one writer per field:
//
//   received -> admitted -> taken -> submitted -> dispatched
//            -> kernel_done -> delivered
//
// Stages are the deltas between consecutive boundaries (decode, queue,
// gate, coalesce, kernel, deliver), so their durations telescope: the
// sum equals the wire-measured latency (delivered - received) by
// construction, with missing boundaries forward-filled at Finish. That
// identity is what lets a slowlog line be audited against the latency
// histogram it is an exemplar for.
//
// The store is touched once per query, at Finish, by the layer that
// opened the record. Retention is tail-based: only slow (absolute
// threshold or a multiple of the rolling p99), shed, expired, errored
// or client-sampled queries are kept, in a bounded drop-oldest ring.
// Retained queries also replay their stage spans into the Tracer rings
// (tagged with a `trace` arg) so /debug/trace?trace_id=N shows one
// causal tree per query, and emit one JSON slowlog line through an
// optional sink.
//
// Threading: one mutex guards the retention state; Finish and the
// readers take it, MintTraceId is one atomic increment. Timestamps come
// from the caller (NowNanos()), so fake-clock tests drive the store
// deterministically. The store is always on, trace session or not (the
// cost is measured in docs/observability.md, "Always-on cost").
#ifndef PBFS_OBS_QUERY_TRACE_H_
#define PBFS_OBS_QUERY_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/live/metrics_registry.h"
#include "obs/live/rolling_window.h"

namespace pbfs {
namespace obs {

// Boundary timestamps. kNumQueryStageBounds-1 stage intervals lie
// between consecutive boundaries.
enum class QueryStageBound : uint8_t {
  kReceived = 0,    // frame decoded / Submit entered
  kAdmitted = 1,    // admission queue accepted the query
  kTaken = 2,       // submit loop dequeued it
  kSubmitted = 3,   // engine Submit admitted it (inflight gate passed)
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

// One query's trace, carried by value inside the query (Query::trace)
// and handed back in its QueryResult. Identity comes from the first
// layer that sees the query (wire decode, or engine Submit for
// in-process callers); trace_id is accepted from the client frame or
// minted. sampled forces retention regardless of latency — a client
// debugging one request sets it and gets the span tree even when the
// query is fast. A bound of 0 means "not reached".
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

  int64_t& bound(QueryStageBound b) {
    return bounds_ns[static_cast<int>(b)];
  }
  int64_t bound(QueryStageBound b) const {
    return bounds_ns[static_cast<int>(b)];
  }
  int64_t StageDurNs(int i) const {
    return bounds_ns[i + 1] - bounds_ns[i];
  }
  // One structured slowlog line (JSON object, no trailing newline).
  std::string ToJson() const;
};

class QueryTraceStore {
 public:
  struct Options {
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

  struct Stats {
    uint64_t retained = 0;  // current ring size
    uint64_t retained_slow = 0;
    uint64_t retained_shed = 0;
    uint64_t retained_expired = 0;
    uint64_t retained_error = 0;
    uint64_t retained_sampled = 0;
    uint64_t discarded_total = 0;  // finished fast, nothing kept
    double effective_slow_ms = 0;  // current retention threshold
    // Every Finish lands in exactly one of these counters.
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

  // Non-zero, unique within the process. Lock-free.
  uint64_t MintTraceId();

  // Closes one query's record, which the caller owns: stamps kDelivered
  // at now_ns, forward-fills gaps, sets the outcome and wire latency (in
  // `record`, so the caller sees the finished record), then decides
  // retention, feeds the rolling p99, and emits spans + slowlog for
  // retained records. Call exactly once per query.
  void Finish(QueryTraceRecord& record, QueryOutcome outcome, int64_t now_ns);

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
  QueryTraceStore();

  double EffectiveSlowMsLocked(int64_t now_ns) const;
  void RetainLocked(const QueryTraceRecord& record);
  static void EmitSpans(const QueryTraceRecord& record);

  const uint64_t id_seed_;
  std::atomic<uint64_t> id_counter_{0};

  mutable std::mutex mutex_;
  Options options_;
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
};

}  // namespace obs
}  // namespace pbfs

#endif  // PBFS_OBS_QUERY_TRACE_H_
