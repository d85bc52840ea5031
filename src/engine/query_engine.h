// Concurrent BFS query engine: admits independent single-source
// queries from many client threads and amortizes them into multi-source
// batches.
//
// MS-BFS exists because real workloads run many concurrent BFS
// traversals (Then et al., VLDB 2015); the kernels in this library
// accept 64-1024 sources per batch but the driver binaries submit them
// one call at a time. The engine closes that gap: Submit() enqueues a
// typed Query and returns a future; a dispatcher thread coalesces
// whatever is pending into one batch, picks the smallest supported
// bitset width that fits (falling back to a single-source kernel for a
// lone query), runs it on the shared Executor, and fans the batch's
// result sink back out into per-query results. Point queries read
// their few answers from the sink, which ends the traversal once they
// are known; only kLevels queries get whole level rows.
//
// Dynamic graphs: ApplyUpdates() mutates the edge set in batches. Every
// query resolves against the immutable snapshot current at admission
// time (pinned in Submit, stamped into QueryResult::snapshot_version),
// so in-flight queries never observe a half-applied batch. A background
// Compactor, started by the first ApplyUpdates(), folds accumulated
// deltas into a fresh CSR and swaps it in; the superseded CSR is freed
// when the last query pinned to it completes. Engines that never call
// ApplyUpdates() spawn no extra threads and
// traverse the base CSR through a null-overlay view whose cost is one
// predicted branch.
//
// Threading model: Submit/Cancel/Stats/Drain/ApplyUpdates are
// thread-safe and may be called from any number of client threads. All
// traversal work runs on the dispatcher thread, which is therefore the
// executor's single coordinating thread — clients never touch the
// WorkerPool directly, and one engine must be the executor's only
// coordinator while it is alive (the compactor and the sketch
// rebuilder each run on their own private pool). Kernel instances are
// created lazily per width and reused across batches while the
// snapshot is unchanged, preserving the paper's one-instance memory
// footprint (Figure 3) no matter how many clients are connected.
#ifndef PBFS_ENGINE_QUERY_ENGINE_H_
#define PBFS_ENGINE_QUERY_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bfs/common.h"
#include "bfs/multi_source.h"
#include "bfs/result_sink.h"
#include "bfs/single_source.h"
#include "engine/query.h"
#include "graph/compactor.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "obs/live/rolling_window.h"
#include "sched/executor.h"
#include "sketch/rebuilder.h"
#include "util/stats.h"

namespace pbfs {
namespace obs {
class ExpositionWriter;
class MetricsRegistry;
}  // namespace obs

struct QueryEngineOptions {
  // Cap on the adaptive batch width; one of kSupportedWidths.
  int max_batch_width = 1024;
  // How long the dispatcher lingers after finding pending queries to
  // let a batch fill before launching it partially occupied. The
  // latency/occupancy trade-off knob: 0 dispatches immediately.
  double coalesce_wait_ms = 0.25;
  // Cluster-BFS distance sketches (sketch/sketch.h): when enabled, a
  // background SketchRebuilder keeps a sketch of the current snapshot,
  // and kPointToPointDistance queries whose bounds satisfy their
  // tolerance resolve inline in Submit() — no traversal, no batch
  // slot. Disabled by default: p2p queries then always traverse.
  bool enable_sketches = false;
  SketchOptions sketch;
  // Workers in the rebuilder's private pool; <= 1 rebuilds on a
  // SerialExecutor instead.
  int sketch_workers = 2;
  // Fault injection: each compaction and sketch build waits this long
  // after pinning its snapshot (MaintenanceLoop::DebugDelay), so races
  // against an in-flight cycle can be exercised deterministically.
  double maintenance_debug_delay_ms = 0;
  // Traversal tuning applied to every dispatch. max_level acts as an
  // engine-wide radius cap; a batch without kLevels queries also stops
  // as soon as its answers are known (bfs/result_sink.h).
  BfsOptions bfs;
};

// Snapshot of the engine's lifetime counters (Stats()).
struct QueryEngineStats {
  uint64_t queries_admitted = 0;
  uint64_t queries_completed = 0;  // finished with kOk
  uint64_t queries_cancelled = 0;
  uint64_t queries_expired = 0;  // deadline passed before dispatch
  uint64_t queries_invalid = 0;
  uint64_t batches_run = 0;   // multi-query dispatches
  uint64_t single_runs = 0;   // lone-query fallback dispatches
  uint64_t update_batches = 0;        // ApplyUpdates calls
  uint64_t edge_updates_applied = 0;  // EdgeUpdates across those calls
  // Point-to-point sketch path: hits resolved inline from a fresh
  // sketch; fallbacks traversed because the bound gap exceeded the
  // query's tolerance; stale = no sketch yet or its content_version
  // lagged the query's snapshot (also traversed — never answered from
  // an outdated sketch).
  uint64_t sketch_hits = 0;
  uint64_t sketch_fallbacks = 0;
  uint64_t sketch_stale = 0;
  // Queries per batch slot (batch size / chosen width), one sample per
  // multi-query dispatch. Mean occupancy near 1 means coalescing is
  // filling the bitset widths it pays for.
  StreamingStats batch_occupancy;
  // Submit-to-dispatch wall time per traversed query.
  StreamingStats coalesce_wait_ms;
  // End-to-end submit-to-completion latency, one sample per query that
  // finishes kOk (so count() always equals queries_completed). Log
  // buckets from 1 us up; quantiles via Histogram::Quantile.
  Histogram latency_ms{/*min_bound=*/1e-3, /*growth=*/2.0,
                       /*num_log_buckets=*/32};
  // Sketch bound gap (upper - lower) per p2p query that consulted a
  // fresh sketch, hits and fallbacks alike (fallbacks with an
  // unreached upper bound are skipped — the gap is undefined).
  Histogram sketch_bound_gap{/*min_bound=*/1.0, /*growth=*/2.0,
                             /*num_log_buckets=*/12};

  std::string ToString() const;
};

class QueryEngine {
 public:
  // Ticket for one submitted query. The future becomes ready when the
  // query is traversed, cancelled, expired, or rejected.
  struct Submission {
    uint64_t id = 0;
    std::future<QueryResult> result;
  };

  // `graph` and `executor` are borrowed and must outlive the engine.
  // `graph` becomes the base of snapshot version 1; after compaction
  // replaces it the engine no longer reads it.
  QueryEngine(const Graph& graph, Executor* executor,
              QueryEngineOptions options = {});
  // Stops the dispatcher; queries still queued complete as kCancelled.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  // Thread-safe. Never blocks on traversal work.
  Submission Submit(Query query);

  // Thread-safe. True if the query was still awaiting dispatch and is
  // now completed as kCancelled; false once it was dispatched (its
  // result arrives normally) or already finished.
  bool Cancel(uint64_t id);

  // Thread-safe. Blocks until every admitted query has been completed
  // (traversed, cancelled, expired, or rejected). Does not wait for
  // background compaction; see WaitCompactorIdle().
  void Drain();

  // Thread-safe. Publishes one batch of edge mutations as a new
  // snapshot and nudges the background compactor. Queries admitted
  // before the call keep their pinned pre-update snapshot; queries
  // admitted after see the batch. Returns the content version whose
  // snapshots contain the batch (the value stamped into their results).
  uint64_t ApplyUpdates(std::span<const EdgeUpdate> updates);

  // Thread-safe. Blocks until the compactor has folded every published
  // delta into a flat CSR. No-op when ApplyUpdates was never called.
  void WaitCompactorIdle();

  // Thread-safe. Blocks until the sketch rebuilder has published a
  // sketch current as of some recent snapshot. No-op when sketches are
  // disabled.
  void WaitSketchIdle();

  QueryEngineStats Stats() const;
  SnapshotStats SnapshotInfo() const;
  // Zero-valued until the first ApplyUpdates.
  Compactor::Stats CompactorStats() const;
  // Zero-valued when sketches are disabled.
  SketchRebuilder::Stats SketchStats() const;
  // The rebuilder's published sketch; null when sketches are disabled
  // or the first build hasn't finished. Thread-safe.
  std::shared_ptr<const ClusterSketch> CurrentSketch() const;

  const QueryEngineOptions& options() const { return options_; }
  // Fixed at construction: updates churn edges, never vertices.
  Vertex num_vertices() const { return num_vertices_; }

  // ---- Live telemetry ----

  // One admitted-but-not-completed query: still queued or inside the
  // batch currently executing. Fed to the stall watchdog so a query
  // stuck in a wedged batch is visible before its future resolves.
  struct InFlightQuery {
    uint64_t id = 0;
    int64_t submit_ns = 0;
    QueryType type = QueryType::kLevels;
  };
  std::vector<InFlightQuery> InFlightQueries() const;

  // Queries awaiting dispatch (excludes the executing batch).
  size_t QueueDepth() const;

  // Registers a scrape-time collector on `registry` exporting windowed
  // per-type latency quantiles, batch occupancy, queue depth, snapshot
  // and compaction gauges, and the lifetime counters. The engine
  // withdraws the collector in its destructor; `registry` must outlive
  // the engine.
  void ExportLiveMetrics(obs::MetricsRegistry* registry);

 private:
  struct PendingQuery {
    uint64_t id = 0;
    Query query;
    std::promise<QueryResult> promise;
    // The snapshot current at admission; the whole batch containing
    // this query traverses it.
    SnapshotManager::Ref snapshot;
    // True when Submit opened query.trace (an in-process caller): the
    // engine then closes the record at completion.
    bool owns_trace = false;

    int64_t submit_ns() const {
      return query.trace.bound(obs::QueryStageBound::kSubmitted);
    }
  };

  void DispatcherMain();
  // Pops traversable queries sharing the queue front's snapshot version
  // (up to max_batch_width), completing expired and invalid ones in
  // place. Requires mutex_ held.
  std::vector<PendingQuery> TakeBatchLocked();
  // Runs one batch (no lock held) and fulfills its promises. Returns
  // the width the batch occupied (1 for the single-query fallback).
  int ExecuteBatch(std::vector<PendingQuery>& batch);
  // Smallest supported width >= count, capped at max_batch_width.
  int PickWidth(size_t count) const;
  // Rebinds the cached kernels to `snap`'s graph when the snapshot
  // changed since the last dispatch. Dispatcher thread only.
  void BindKernels(const SnapshotManager::Ref& snap);
  // The MS-PBFS instance of `width` bound to kernels_snapshot_'s graph,
  // created on first use.
  MultiSourceBfsBase* BatchKernel(int width);
  bool IsValid(const Query& query) const;
  // Runs `batch` (level_rows of them kLevels) on `kernel` into sink_,
  // with the kLevels rows in levels_ in batch order.
  void RunIntoSink(const std::vector<PendingQuery>& batch, size_t level_rows,
                   std::span<const Vertex> sources,
                   MultiSourceBfsBase* kernel);
  // The answer read off one full level row.
  QueryResult ExtractResult(const Query& query, const Level* row) const;
  // The answer of a non-kLevels query at batch slot `slot`, read off
  // sink_ after RunIntoSink.
  QueryResult SinkResult(const Query& query, int slot) const;
  void CompleteLocked(PendingQuery& pending, QueryStatus status);
  // The sketch fast path, called by Submit() under mutex_ for valid
  // p2p queries. True when the query was answered inline (promise
  // fulfilled, counters, latency and trace recorded, never enqueued);
  // false when it must traverse. A traversed p2p query stops its batch
  // once its target resolves, at or below the sketch's upper bound.
  bool TryAnswerFromSketchLocked(Query& query, bool owns_trace,
                                 const SnapshotManager::Ref& snapshot,
                                 uint64_t id,
                                 std::promise<QueryResult>& promise);

  // Appends the engine's exposition families. Called by the registered
  // collector under the registry lock; takes mutex_ itself, so callers
  // must not already hold it (lock order: registry -> engine).
  void CollectLiveMetrics(obs::ExpositionWriter& writer) const;

  Executor* executor_;
  const QueryEngineOptions options_;
  const Vertex num_vertices_;  // fixed: updates only churn edges

  SnapshotManager snapshots_;

  // Background maintenance, each on its own thread and private pool.
  // The compactor starts both on the first ApplyUpdates, so static
  // workloads pay no extra threads. The rebuilder exists only when
  // options_.enable_sketches; its first build starts in the
  // constructor. Both are internally synchronized. Declared after
  // snapshots_, which they borrow, so they stop before it goes away.
  Compactor compactor_;
  std::unique_ptr<SketchRebuilder> rebuilder_;

  // Dispatcher-thread-only state: the SMS-PBFS instance for lone
  // queries and MS-PBFS instances cached per width, all bound to
  // kernels_snapshot_'s graph, the reusable level rows (one per kLevels
  // query of the batch, or one for a lone query) and the batch result
  // sink. The pin keeps the bound graph alive across batches.
  SnapshotManager::Ref kernels_snapshot_;
  std::unique_ptr<SingleSourceBfsBase> single_kernel_;
  std::vector<std::pair<int, std::unique_ptr<MultiSourceBfsBase>>>
      batch_kernels_;
  std::vector<Level> levels_;
  BatchSink sink_;
  // Dispatch sequence number linking per-query kernel stage spans to
  // the engine.batch span they rode (obs/query_trace.h).
  uint64_t batch_seq_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // wakes the dispatcher
  std::condition_variable done_cv_;  // wakes Drain()
  std::deque<PendingQuery> pending_;
  uint64_t next_id_ = 1;
  uint64_t outstanding_ = 0;  // admitted but not yet completed
  bool stopping_ = false;
  QueryEngineStats stats_;

  // Queries inside the batch currently executing (the dispatcher has
  // popped them off pending_ but their promises are unresolved).
  // Guarded by mutex_.
  std::vector<InFlightQuery> executing_;
  // Rolling windows behind the windowed quantiles: one latency window
  // per query type plus one for batch occupancy. Internally locked;
  // written by the dispatcher, read at scrape time.
  static constexpr int kNumQueryTypes = 5;
  obs::RollingWindow latency_windows_[kNumQueryTypes];
  obs::RollingWindow occupancy_window_;
  obs::MetricsRegistry* live_registry_ = nullptr;  // set by ExportLiveMetrics

  std::thread dispatcher_;
};

}  // namespace pbfs

#endif  // PBFS_ENGINE_QUERY_ENGINE_H_
