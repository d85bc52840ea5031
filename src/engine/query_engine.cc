#include "engine/query_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "algorithms/khop.h"
#include "bfs/multi_source.h"
#include "obs/live/metrics_registry.h"
#include "obs/profiler/sampling_profiler.h"
#include "obs/query_trace.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace {

// Completes query `id`: hands its trace record back in the result,
// fulfills the promise, and emits the terminal query.done instant with
// the result's status. Every completion goes through here, so exactly
// one query.done is emitted per admitted query — the obs engine test
// counts them against queries_admitted. The engine closes only the
// trace records it opened (in-process Submit); the server closes a wire
// query's record once the response is queued.
void HandBack(uint64_t id, const pbfs::obs::QueryTraceRecord& trace,
              bool owns_trace, pbfs::QueryResult result,
              std::promise<pbfs::QueryResult>& promise) {
  const pbfs::QueryStatus status = result.status;
  result.trace = trace;
  if (owns_trace) {
    pbfs::obs::QueryTraceStore::Get().Finish(
        result.trace, pbfs::TraceOutcome(status), pbfs::NowNanos());
  }
  promise.set_value(std::move(result));
  pbfs::obs::Tracer& tracer = pbfs::obs::Tracer::Get();
  if (!tracer.enabled()) return;
  pbfs::obs::TraceEvent event =
      pbfs::obs::MakeInstant("query.done", pbfs::NowNanos());
  event.AddArg("query", id);
  event.AddArg("status", static_cast<uint64_t>(status));
  tracer.Record(event);
}

// False when `target` is certainly unreachable from `source` without a
// traversal: a vertex without edges reaches only itself. The batch sink
// records such targets as unreachable, so an isolated endpoint does not
// hold its batch to the component's last level.
bool MayReach(const pbfs::Graph& graph, pbfs::Vertex source,
              pbfs::Vertex target) {
  return source == target ||
         (graph.Degree(source) > 0 && graph.Degree(target) > 0);
}

}  // namespace

namespace pbfs {

const char* QueryTypeName(QueryType type) {
  switch (type) {
    case QueryType::kLevels:
      return "levels";
    case QueryType::kDistances:
      return "distances";
    case QueryType::kReachability:
      return "reachability";
    case QueryType::kKHop:
      return "khop";
    case QueryType::kPointToPointDistance:
      return "p2p_distance";
  }
  return "unknown";
}

const char* QueryStatusName(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kInvalid:
      return "invalid";
    case QueryStatus::kCancelled:
      return "cancelled";
    case QueryStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case QueryStatus::kShed:
      return "shed";
  }
  return "unknown";
}

obs::QueryOutcome TraceOutcome(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk:
      return obs::QueryOutcome::kOk;
    case QueryStatus::kDeadlineExceeded:
      return obs::QueryOutcome::kExpired;
    case QueryStatus::kShed:
      return obs::QueryOutcome::kShed;
    case QueryStatus::kInvalid:
    case QueryStatus::kCancelled:
      break;
  }
  return obs::QueryOutcome::kError;
}

std::string QueryEngineStats::ToString() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "queries: %llu admitted, %llu ok, %llu cancelled, %llu expired, "
      "%llu invalid | dispatches: %llu batches, %llu single | "
      "updates: %llu batches, %llu edges | "
      "sketch: %llu hits, %llu fallbacks, %llu stale | "
      "occupancy: mean %.2f (min %.2f, max %.2f) | "
      "coalesce wait: mean %.3f ms (max %.3f ms) | "
      "latency: p50 %.3f ms, p99 %.3f ms, max %.3f ms",
      static_cast<unsigned long long>(queries_admitted),
      static_cast<unsigned long long>(queries_completed),
      static_cast<unsigned long long>(queries_cancelled),
      static_cast<unsigned long long>(queries_expired),
      static_cast<unsigned long long>(queries_invalid),
      static_cast<unsigned long long>(batches_run),
      static_cast<unsigned long long>(single_runs),
      static_cast<unsigned long long>(update_batches),
      static_cast<unsigned long long>(edge_updates_applied),
      static_cast<unsigned long long>(sketch_hits),
      static_cast<unsigned long long>(sketch_fallbacks),
      static_cast<unsigned long long>(sketch_stale),
      batch_occupancy.mean(), batch_occupancy.min(), batch_occupancy.max(),
      coalesce_wait_ms.mean(), coalesce_wait_ms.max(),
      latency_ms.Quantile(0.5), latency_ms.Quantile(0.99), latency_ms.max());
  return buf;
}

QueryEngine::QueryEngine(const Graph& graph, Executor* executor,
                         QueryEngineOptions options)
    : executor_(executor),
      options_(std::move(options)),
      num_vertices_(graph.num_vertices()),
      snapshots_(SnapshotManager::Borrow(graph)),
      compactor_(&snapshots_, options_.maintenance_debug_delay_ms) {
  PBFS_CHECK(executor_ != nullptr);
  PBFS_CHECK(IsSupportedWidth(options_.max_batch_width));
  PBFS_CHECK(options_.coalesce_wait_ms >= 0);
  kernels_snapshot_ = snapshots_.Pin();
  single_kernel_ = MakeSmsPbfs(kernels_snapshot_->graph(), SmsVariant::kBit,
                               executor_);
  if (options_.enable_sketches) {
    rebuilder_ = std::make_unique<SketchRebuilder>(
        &snapshots_, options_.sketch, options_.sketch_workers,
        options_.maintenance_debug_delay_ms);
  }
  dispatcher_ = std::thread([this] { DispatcherMain(); });
}

QueryEngine::~QueryEngine() {
  // Withdraw the scrape collector before any member it reads goes away;
  // a scrape racing the destructor sees the registry without us.
  if (live_registry_ != nullptr) live_registry_->RemoveCollectors(this);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  dispatcher_.join();
  // After the dispatcher no traversal can pin new snapshots; stop the
  // rebuilder (it joins its in-flight cycle). The compactor then stops
  // the same way, and the snapshot manager last: members destruct in
  // reverse declaration order.
  rebuilder_.reset();
}

QueryEngine::Submission QueryEngine::Submit(Query query) {
  Submission submission;
  std::promise<QueryResult> promise;
  submission.result = promise.get_future();
  std::lock_guard<std::mutex> lock(mutex_);
  submission.id = next_id_++;
  ++stats_.queries_admitted;
  if (obs::Tracer::Get().enabled()) {
    obs::TraceEvent event = obs::MakeInstant("query.submit", NowNanos());
    event.AddArg("query", submission.id);
    event.AddArg("type", static_cast<uint64_t>(query.type));
    obs::Tracer::Get().Record(event);
  }
  // A record with no kReceived stamp comes from an in-process caller:
  // the engine opens it here and closes it at completion. A wire
  // query's record arrives opened by the server, which closes it.
  const int64_t submit_ns = NowNanos();
  obs::QueryTraceRecord& trace = query.trace;
  const bool owns_trace = trace.bound(obs::QueryStageBound::kReceived) == 0;
  if (owns_trace) {
    if (trace.trace_id == 0) {
      trace.trace_id = obs::QueryTraceStore::Get().MintTraceId();
    }
    trace.request_id = submission.id;
    trace.query_type = static_cast<uint8_t>(query.type);
    trace.priority = 1;  // in-process queries have no wire priority
    trace.bound(obs::QueryStageBound::kReceived) = submit_ns;
  }
  trace.bound(obs::QueryStageBound::kSubmitted) = submit_ns;
  if (stopping_) {
    QueryResult result;
    result.status = QueryStatus::kCancelled;
    ++stats_.queries_cancelled;
    HandBack(submission.id, trace, owns_trace, std::move(result), promise);
    return submission;
  }
  // Pinning under mutex_ (lock order: engine mutex_ -> snapshot mu_)
  // makes snapshot versions monotone in queue order, so the dispatcher's
  // same-version batching never splits more than one version boundary.
  SnapshotManager::Ref snapshot = snapshots_.Pin();
  if (query.type == QueryType::kPointToPointDistance &&
      rebuilder_ != nullptr && IsValid(query) &&
      TryAnswerFromSketchLocked(query, owns_trace, snapshot, submission.id,
                                promise)) {
    // Answered inline from a fresh sketch: no batch slot, no
    // outstanding_ — the query was never pending.
    return submission;
  }
  ++outstanding_;
  PendingQuery pending{submission.id, std::move(query), std::move(promise),
                       std::move(snapshot), owns_trace};
  pending_.push_back(std::move(pending));
  work_cv_.notify_one();
  return submission;
}

bool QueryEngine::TryAnswerFromSketchLocked(
    Query& query, bool owns_trace, const SnapshotManager::Ref& snapshot,
    uint64_t id, std::promise<QueryResult>& promise) {
  std::shared_ptr<const ClusterSketch> sketch = rebuilder_->Current();
  if (sketch == nullptr ||
      sketch->content_version() != snapshot->content_version()) {
    // No sketch yet, or it was built for a different edge set than this
    // query's snapshot: never answer from it — degrade to the exact
    // traversal path instead.
    ++stats_.sketch_stale;
    return false;
  }
  const DistanceBounds bounds = sketch->Query(query.source, query.targets[0]);
  if (bounds.upper != kLevelUnreached) {
    stats_.sketch_bound_gap.Add(
        static_cast<double>(bounds.upper - bounds.lower));
  }
  if (bounds.upper == kLevelUnreached ||
      bounds.upper - bounds.lower > query.tolerance) {
    // Fresh but too loose for this query's tolerance (or no cluster
    // connects the pair): traverse.
    ++stats_.sketch_fallbacks;
    return false;
  }
  ++stats_.sketch_hits;
  ++stats_.queries_completed;
  QueryResult result;
  result.status = QueryStatus::kOk;
  result.distance = bounds.upper;
  result.distance_bounds = bounds;
  result.sketch_resolved = true;
  result.snapshot_version = snapshot->content_version();
  obs::QueryTraceRecord& trace = query.trace;
  const int64_t done_ns = NowNanos();
  const double latency_ms =
      static_cast<double>(
          done_ns - trace.bound(obs::QueryStageBound::kSubmitted)) /
      1e6;
  stats_.latency_ms.Add(latency_ms);
  latency_windows_[static_cast<int>(query.type)].Add(latency_ms, done_ns);
  // Inline answer: the sketch stood in for dispatch + kernel, so the
  // dispatch/kernel boundaries collapse onto the completion instant.
  trace.bound(obs::QueryStageBound::kDispatched) = done_ns;
  trace.bound(obs::QueryStageBound::kKernelDone) = done_ns;
  trace.snapshot_version = result.snapshot_version;
  HandBack(id, trace, owns_trace, std::move(result), promise);
  return true;
}

bool QueryEngine::Cancel(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->id != id) continue;
    CompleteLocked(*it, QueryStatus::kCancelled);
    pending_.erase(it);
    return true;
  }
  return false;
}

void QueryEngine::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

QueryEngineStats QueryEngine::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

SnapshotStats QueryEngine::SnapshotInfo() const {
  return snapshots_.GetStats();
}

Compactor::Stats QueryEngine::CompactorStats() const {
  return compactor_.GetStats();
}

uint64_t QueryEngine::ApplyUpdates(std::span<const EdgeUpdate> updates) {
  obs::ScopedSpan span("engine.apply_updates");
  span.AddArg("ops", static_cast<uint64_t>(updates.size()));
  const uint64_t version = snapshots_.ApplyBatch(updates);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.update_batches;
    stats_.edge_updates_applied += updates.size();
  }
  compactor_.Notify();
  // The published sketch is now stale; p2p queries admitted before the
  // rebuild finishes fall back to exact traversals.
  if (rebuilder_ != nullptr) rebuilder_->Notify();
  span.AddArg("version", version);
  return version;
}

void QueryEngine::WaitSketchIdle() {
  if (rebuilder_ != nullptr) rebuilder_->WaitIdle();
}

SketchRebuilder::Stats QueryEngine::SketchStats() const {
  if (rebuilder_ == nullptr) return SketchRebuilder::Stats{};
  return rebuilder_->GetStats();
}

std::shared_ptr<const ClusterSketch> QueryEngine::CurrentSketch() const {
  if (rebuilder_ == nullptr) return nullptr;
  return rebuilder_->Current();
}

void QueryEngine::WaitCompactorIdle() { compactor_.WaitIdle(); }

void QueryEngine::CompleteLocked(PendingQuery& pending, QueryStatus status) {
  QueryResult result;
  result.status = status;
  switch (status) {
    case QueryStatus::kCancelled:
      ++stats_.queries_cancelled;
      break;
    case QueryStatus::kDeadlineExceeded:
      ++stats_.queries_expired;
      break;
    case QueryStatus::kInvalid:
      ++stats_.queries_invalid;
      break;
    case QueryStatus::kOk:
      break;
    case QueryStatus::kShed:
      // Admission control sheds before Submit; a pending query can
      // never complete with this status.
      PBFS_CHECK(false);
      break;
  }
  HandBack(pending.id, pending.query.trace, pending.owns_trace,
           std::move(result), pending.promise);
  PBFS_CHECK(outstanding_ > 0);
  --outstanding_;
  done_cv_.notify_all();
}

bool QueryEngine::IsValid(const Query& query) const {
  const Vertex n = num_vertices_;
  if (query.source >= n) return false;
  if (query.type == QueryType::kPointToPointDistance &&
      query.targets.size() != 1) {
    return false;
  }
  for (Vertex t : query.targets) {
    if (t >= n) return false;
  }
  return true;
}

void QueryEngine::DispatcherMain() {
  obs::Tracer::SetThreadLabel("engine-dispatcher", -1);
  obs::SamplingProfiler::RegisterCurrentThread();
  const int64_t linger_ns =
      static_cast<int64_t>(options_.coalesce_wait_ms * 1e6);
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
    if (stopping_) break;
    // Linger: give concurrent submitters a chance to fill the batch
    // before paying for a traversal. Every Submit() re-checks the size,
    // so a burst that reaches max_batch_width dispatches immediately.
    if (linger_ns > 0) {
      const int64_t linger_end = NowNanos() + linger_ns;
      while (!stopping_ && static_cast<int>(pending_.size()) <
                               options_.max_batch_width) {
        const int64_t now = NowNanos();
        if (now >= linger_end) break;
        work_cv_.wait_for(lock, std::chrono::nanoseconds(linger_end - now));
      }
      if (stopping_) break;
    }
    std::vector<PendingQuery> batch = TakeBatchLocked();
    if (batch.empty()) continue;
    // Popped off pending_ but not yet completed: record the batch so
    // InFlightQueries() (the watchdog's admission feed) still sees it.
    executing_.clear();
    for (const PendingQuery& q : batch) {
      executing_.push_back(InFlightQuery{q.id, q.submit_ns(), q.query.type});
    }
    lock.unlock();
    const int width = ExecuteBatch(batch);
    const int64_t batch_done_ns = NowNanos();
    lock.lock();
    executing_.clear();
    if (batch.size() == 1) {
      ++stats_.single_runs;
    } else {
      ++stats_.batches_run;
      const double occupancy = static_cast<double>(batch.size()) /
                               static_cast<double>(width);
      stats_.batch_occupancy.Add(occupancy);
      occupancy_window_.Add(occupancy, batch_done_ns);
    }
    stats_.queries_completed += batch.size();
    for (const PendingQuery& q : batch) {
      const double latency_ms =
          static_cast<double>(batch_done_ns - q.submit_ns()) / 1e6;
      stats_.latency_ms.Add(latency_ms);
      latency_windows_[static_cast<int>(q.query.type)].Add(latency_ms,
                                                           batch_done_ns);
    }
    PBFS_CHECK(outstanding_ >= batch.size());
    outstanding_ -= batch.size();
    done_cv_.notify_all();
    // Drop the batch (and its snapshot pins) with mutex_ released: when
    // they were the last pins on a superseded snapshot, its memory is
    // freed here, and Submit() should not wait on that.
    lock.unlock();
    batch.clear();
    lock.lock();
  }
  // Shutdown: everything still queued completes as cancelled.
  while (!pending_.empty()) {
    CompleteLocked(pending_.front(), QueryStatus::kCancelled);
    pending_.pop_front();
  }
}

std::vector<QueryEngine::PendingQuery> QueryEngine::TakeBatchLocked() {
  std::vector<PendingQuery> batch;
  const int64_t now = NowNanos();
  uint64_t batch_version = 0;
  while (!pending_.empty() &&
         batch.size() < static_cast<size_t>(options_.max_batch_width)) {
    // A batch traverses exactly one snapshot: stop at the first query
    // pinned to a different version than the queue front (expired and
    // invalid queries never traverse, so they drain regardless).
    if (!batch.empty()) {
      const PendingQuery& front = pending_.front();
      const bool traversable =
          (front.query.deadline_ns == 0 || now < front.query.deadline_ns) &&
          IsValid(front.query);
      if (traversable && front.snapshot->version() != batch_version) break;
    }
    PendingQuery pending = std::move(pending_.front());
    pending_.pop_front();
    if (pending.query.deadline_ns != 0 && now >= pending.query.deadline_ns) {
      CompleteLocked(pending, QueryStatus::kDeadlineExceeded);
      continue;
    }
    if (!IsValid(pending.query)) {
      CompleteLocked(pending, QueryStatus::kInvalid);
      continue;
    }
    stats_.coalesce_wait_ms.Add(
        static_cast<double>(now - pending.submit_ns()) / 1e6);
    if (batch.empty()) batch_version = pending.snapshot->version();
    batch.push_back(std::move(pending));
  }
  return batch;
}

int QueryEngine::PickWidth(size_t count) const {
  for (int w : kSupportedWidths) {
    if (static_cast<size_t>(w) >= count) return w;
  }
  return options_.max_batch_width;
}

void QueryEngine::BindKernels(const SnapshotManager::Ref& snap) {
  if (snap == kernels_snapshot_) return;
  // The snapshot moved: drop every kernel bound to the old graph view
  // and re-pin. Width instances rebuild lazily, so a burst after an
  // update pays one state allocation per width it actually uses.
  single_kernel_.reset();
  batch_kernels_.clear();
  kernels_snapshot_ = snap;
  single_kernel_ = MakeSmsPbfs(kernels_snapshot_->graph(), SmsVariant::kBit,
                               executor_);
}

MultiSourceBfsBase* QueryEngine::BatchKernel(int width) {
  for (auto& [w, kernel] : batch_kernels_) {
    if (w == width) return kernel.get();
  }
  batch_kernels_.emplace_back(
      width, MakeMsPbfs(kernels_snapshot_->graph(), width, executor_));
  return batch_kernels_.back().second.get();
}

int QueryEngine::ExecuteBatch(std::vector<PendingQuery>& batch) {
  const Vertex n = num_vertices_;
  const size_t count = batch.size();
  const uint64_t batch_seq = ++batch_seq_;
  const int64_t dispatch_ns = NowNanos();
  obs::ScopedSpan batch_span(count == 1 ? "engine.single" : "engine.batch");
  batch_span.AddArg("queries", count);
  batch_span.AddArg("batch", batch_seq);
  BindKernels(batch.front().snapshot);
  const uint64_t content_version = batch.front().snapshot->content_version();
  batch_span.AddArg("snapshot", content_version);
  std::vector<Vertex> sources(count);
  size_t level_rows = 0;
  double inject_delay_ms = 0;
  for (size_t i = 0; i < count; ++i) {
    const Query& q = batch[i].query;
    sources[i] = q.source;
    if (q.type == QueryType::kLevels) ++level_rows;
    inject_delay_ms = std::max(inject_delay_ms, q.debug_delay_ms);
  }
  if (inject_delay_ms > 0) {
    // Fault injection (Query::debug_delay_ms): stall the dispatcher as
    // a pathologically slow traversal would.
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(inject_delay_ms));
  }

  const int width = count == 1 ? 1 : PickWidth(count);
  MultiSourceBfsBase* kernel = count == 1 ? nullptr : BatchKernel(width);
  batch_span.AddArg("width", static_cast<uint64_t>(width));
  // Every rider crossed the dispatch boundary together; the batch
  // facts (width, sequence) are what explain a query that was fast
  // alone but slow sharing a sweep with 63 strangers.
  for (PendingQuery& q : batch) {
    q.query.trace.bound(obs::QueryStageBound::kDispatched) = dispatch_ns;
    q.query.trace.batch_width = static_cast<uint32_t>(width);
    q.query.trace.batch_seq = batch_seq;
  }
  // A lone query, or a batch of kLevels queries only, runs the
  // full-levels kernel into one row per query; any other batch runs
  // into sink_, with rows only for its kLevels queries.
  //  * All-kLevels batches skip sink_ because its rows read slower: a
  //    40-query kLevels burst on the perfbench levels_kron graph took
  //    30.9 ms median on the full-levels kernel against 33.2 ms through
  //    sink_, and 44.6 against 47.0 ms in a second set (10 interleaved
  //    pairs each, full-levels faster in 7 of each; 4 workers).
  //  * A lone query runs the single-source kernel, which has no sink:
  //    a lone target query traverses its source's whole component, and
  //    a lone k-hop query caps the traversal at its radius. A lone
  //    sketch-fallback p2p query on the perfbench point_static graph
  //    takes 3.6 ms median this way, 2.7 ms when capped at the sketch's
  //    upper bound, and 5.6 ms through sink_ on the width-64 kernel.
  const bool full_rows = count == 1 || level_rows == count;
  if (full_rows) {
    // resize, not assign: the kernels overwrite every entry of a row
    // (unreached vertices get kLevelUnreached), so re-zeroing the
    // reused buffer would only add a memory pass per batch.
    levels_.resize(count * static_cast<size_t>(n));
    if (count == 1) {
      BfsOptions options = options_.bfs;
      if (batch[0].query.type == QueryType::kKHop) {
        options.max_level = std::min(options.max_level,
                                     batch[0].query.max_hops);
      }
      single_kernel_->Run(sources[0], options, levels_.data());
    } else {
      kernel->Run(sources, options_.bfs, levels_.data());
    }
  } else {
    RunIntoSink(batch, level_rows, sources, kernel);
  }
  const int64_t kernel_done_ns = NowNanos();
  size_t row = 0;  // levels_ holds the rows in batch order
  for (size_t i = 0; i < count; ++i) {
    const Query& q = batch[i].query;
    QueryResult result =
        full_rows || q.type == QueryType::kLevels
            ? ExtractResult(q, levels_.data() + row++ * n)
            : SinkResult(q, static_cast<int>(i));
    result.snapshot_version = content_version;
    obs::QueryTraceRecord& trace = batch[i].query.trace;
    trace.bound(obs::QueryStageBound::kKernelDone) = kernel_done_ns;
    trace.snapshot_version = content_version;
    HandBack(batch[i].id, trace, batch[i].owns_trace, std::move(result),
             batch[i].promise);
  }
  return width;
}

void QueryEngine::RunIntoSink(const std::vector<PendingQuery>& batch,
                              size_t level_rows,
                              std::span<const Vertex> sources,
                              MultiSourceBfsBase* kernel) {
  const Vertex n = num_vertices_;
  const Graph& graph = kernels_snapshot_->graph();
  levels_.resize(level_rows * static_cast<size_t>(n));
  sink_.Reset(n, executor_->num_workers());
  size_t row = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i].query;
    const int slot = static_cast<int>(i);
    switch (q.type) {
      case QueryType::kLevels:
        sink_.AddRow(slot, levels_.data() + row++ * n);
        break;
      case QueryType::kKHop:
        sink_.AddKHop(slot, q.max_hops);
        break;
      case QueryType::kDistances:
      case QueryType::kReachability:
      case QueryType::kPointToPointDistance:
        for (Vertex t : q.targets) {
          if (MayReach(graph, q.source, t)) {
            sink_.AddTarget(slot, t);
          } else {
            sink_.AddUnreachableTarget(slot, t);
          }
        }
        break;
    }
  }
  sink_.Seal();
  kernel->Run(sources, options_.bfs, sink_);
}

namespace {

// kDistances, kReachability and kPointToPointDistance answers, given
// the distance of each target.
template <typename LevelOf>
void FillTargetAnswers(const Query& query, LevelOf&& level_of,
                       QueryResult* result) {
  switch (query.type) {
    case QueryType::kDistances:
      result->levels.reserve(query.targets.size());
      for (Vertex t : query.targets) result->levels.push_back(level_of(t));
      break;
    case QueryType::kReachability:
      result->reachable.reserve(query.targets.size());
      for (Vertex t : query.targets) {
        result->reachable.push_back(level_of(t) != kLevelUnreached ? 1 : 0);
      }
      break;
    case QueryType::kPointToPointDistance: {
      // Exact path (sketch miss, stale sketch, or sketches disabled):
      // the traversal pins the bounds on the true distance.
      const Level distance = level_of(query.targets[0]);
      result->distance = distance;
      result->distance_bounds.lower = distance;
      result->distance_bounds.upper = distance;
      break;
    }
    case QueryType::kLevels:
    case QueryType::kKHop:
      PBFS_CHECK(false);
      break;
  }
}

}  // namespace

QueryResult QueryEngine::ExtractResult(const Query& query,
                                       const Level* row) const {
  const Vertex n = num_vertices_;
  QueryResult result;
  switch (query.type) {
    case QueryType::kLevels: {
      // Single pass: copy the row and count reached vertices while it
      // is still in cache, instead of a copy pass plus a scan pass.
      result.levels.resize(n);
      uint64_t reached = 0;
      for (Vertex v = 0; v < n; ++v) {
        const Level level = row[v];
        result.levels[v] = level;
        reached += level != kLevelUnreached ? 1 : 0;
      }
      result.vertices_reached = reached;
      break;
    }
    case QueryType::kKHop:
      result.khop_sizes = KHopSizesFromLevels(
          {row, static_cast<size_t>(n)}, query.max_hops);
      break;
    default:
      FillTargetAnswers(query, [row](Vertex t) { return row[t]; }, &result);
      break;
  }
  return result;
}

QueryResult QueryEngine::SinkResult(const Query& query, int slot) const {
  QueryResult result;
  if (query.type == QueryType::kKHop) {
    result.khop_sizes = sink_.KHopSizes(slot, query.max_hops);
    return result;
  }
  FillTargetAnswers(
      query, [&](Vertex t) { return sink_.TargetLevel(slot, t); }, &result);
  return result;
}

std::vector<QueryEngine::InFlightQuery> QueryEngine::InFlightQueries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<InFlightQuery> in_flight = executing_;
  in_flight.reserve(executing_.size() + pending_.size());
  for (const PendingQuery& q : pending_) {
    in_flight.push_back(InFlightQuery{q.id, q.submit_ns(), q.query.type});
  }
  return in_flight;
}

size_t QueryEngine::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

void QueryEngine::ExportLiveMetrics(obs::MetricsRegistry* registry) {
  PBFS_CHECK(registry != nullptr);
  live_registry_ = registry;
  registry->AddCollector(
      this, [this](obs::ExpositionWriter& writer) {
        CollectLiveMetrics(writer);
      });
}

void QueryEngine::CollectLiveMetrics(obs::ExpositionWriter& writer) const {
  const int64_t now = NowNanos();
  uint64_t counter_values[12];
  double queue_depth, inflight;
  Histogram bound_gap{/*min_bound=*/1.0, /*growth=*/2.0,
                      /*num_log_buckets=*/12};
  obs::RollingWindow::Stats latency[kNumQueryTypes];
  obs::RollingWindow::Stats occupancy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counter_values[0] = stats_.queries_admitted;
    counter_values[1] = stats_.queries_completed;
    counter_values[2] = stats_.queries_cancelled;
    counter_values[3] = stats_.queries_expired;
    counter_values[4] = stats_.queries_invalid;
    counter_values[5] = stats_.batches_run;
    counter_values[6] = stats_.single_runs;
    counter_values[7] = stats_.update_batches;
    counter_values[8] = stats_.edge_updates_applied;
    counter_values[9] = stats_.sketch_hits;
    counter_values[10] = stats_.sketch_fallbacks;
    counter_values[11] = stats_.sketch_stale;
    bound_gap = stats_.sketch_bound_gap;
    queue_depth = static_cast<double>(pending_.size());
    inflight = static_cast<double>(outstanding_);
  }
  const SnapshotStats snapshot = snapshots_.GetStats();
  const Compactor::Stats compaction = CompactorStats();
  const SketchRebuilder::Stats sketch = SketchStats();
  // The rolling windows carry their own locks; read them outside
  // mutex_ so a scrape never extends the dispatcher's critical section.
  for (int t = 0; t < kNumQueryTypes; ++t) {
    latency[t] = latency_windows_[t].WindowStats(now);
  }
  occupancy = occupancy_window_.WindowStats(now);

  static const char* const kCounterNames[12] = {
      "pbfs_engine_queries_admitted_total",
      "pbfs_engine_queries_completed_total",
      "pbfs_engine_queries_cancelled_total",
      "pbfs_engine_queries_expired_total",
      "pbfs_engine_queries_invalid_total",
      "pbfs_engine_dispatch_batches_total",
      "pbfs_engine_dispatch_singles_total",
      "pbfs_engine_update_batches_total",
      "pbfs_engine_edge_updates_total",
      "pbfs_sketch_hits_total",
      "pbfs_sketch_fallbacks_total",
      "pbfs_sketch_stale_total"};
  static const char* const kCounterHelp[12] = {
      "Queries accepted by Submit().",
      "Queries completed with status ok.",
      "Queries completed as cancelled.",
      "Queries whose deadline passed before dispatch.",
      "Queries rejected for out-of-range vertices.",
      "Multi-query coalesced dispatches.",
      "Lone-query fallback dispatches.",
      "ApplyUpdates() batches published.",
      "Edge updates across all published batches.",
      "Point-to-point queries answered inline from a fresh sketch.",
      "Point-to-point queries traversed because the sketch bounds "
      "exceeded the query's tolerance.",
      "Point-to-point queries traversed because no sketch matched "
      "their snapshot's content version."};
  for (int i = 0; i < 12; ++i) {
    writer.BeginFamily(kCounterNames[i], kCounterHelp[i], "counter");
    writer.Sample(kCounterNames[i], {},
                  static_cast<double>(counter_values[i]));
  }
  writer.BeginFamily("pbfs_engine_queue_depth",
                     "Queries awaiting dispatch.", "gauge");
  writer.Sample("pbfs_engine_queue_depth", {}, queue_depth);
  writer.BeginFamily("pbfs_engine_inflight_queries",
                     "Admitted queries not yet completed (queued or "
                     "executing).",
                     "gauge");
  writer.Sample("pbfs_engine_inflight_queries", {}, inflight);

  // Dynamic-graph surfaces: snapshot progression, live delta size, and
  // compaction progress (see docs/dynamic.md).
  writer.BeginFamily("pbfs_engine_snapshot_version",
                     "Publication version of the current snapshot "
                     "(bumps on updates and compaction swaps).",
                     "gauge");
  writer.Sample("pbfs_engine_snapshot_version", {},
                static_cast<double>(snapshot.version));
  writer.BeginFamily("pbfs_engine_snapshot_content_version",
                     "Content version of the current snapshot (bumps "
                     "only when the edge set changes).",
                     "gauge");
  writer.Sample("pbfs_engine_snapshot_content_version", {},
                static_cast<double>(snapshot.content_version));
  writer.BeginFamily("pbfs_engine_snapshot_retired",
                     "Superseded snapshots a query still holds.",
                     "gauge");
  writer.Sample("pbfs_engine_snapshot_retired", {},
                static_cast<double>(snapshot.retired));
  writer.BeginFamily("pbfs_engine_delta_patched_vertices",
                     "Vertices whose adjacency lives in the current "
                     "snapshot's overlay rather than the base CSR.",
                     "gauge");
  writer.Sample("pbfs_engine_delta_patched_vertices", {},
                static_cast<double>(snapshot.overlay_patched_vertices));
  writer.BeginFamily("pbfs_engine_delta_edge_delta",
                     "Directed CSR entries the overlay adds (positive) "
                     "or removes (negative) vs the base.",
                     "gauge");
  writer.Sample("pbfs_engine_delta_edge_delta", {},
                static_cast<double>(snapshot.overlay_edge_delta));
  writer.BeginFamily("pbfs_engine_compactions_total",
                     "Delta-to-CSR compaction cycles completed.",
                     "counter");
  writer.Sample("pbfs_engine_compactions_total", {},
                static_cast<double>(compaction.compactions));
  writer.BeginFamily("pbfs_engine_compaction_duration_ms",
                     "Duration of the most recent compaction cycle.",
                     "gauge");
  writer.Sample("pbfs_engine_compaction_duration_ms", {},
                compaction.last_duration_ms);

  // Sketch surfaces (see docs/sketches.md). Emitted even when sketches
  // are disabled (all zero) so dashboards and the exposition smoke can
  // rely on the families existing.
  writer.BeginFamily("pbfs_sketch_rebuilds_total",
                     "Sketch rebuild cycles completed.", "counter");
  writer.Sample("pbfs_sketch_rebuilds_total", {},
                static_cast<double>(sketch.rebuilds));
  writer.BeginFamily("pbfs_sketch_rebuild_duration_ms",
                     "Duration of the most recent sketch rebuild.",
                     "gauge");
  writer.Sample("pbfs_sketch_rebuild_duration_ms", {},
                sketch.last_build_ms);
  writer.BeginFamily("pbfs_sketch_content_version",
                     "Content version the published sketch was built "
                     "from (0 until the first build).",
                     "gauge");
  writer.Sample("pbfs_sketch_content_version", {},
                static_cast<double>(sketch.content_version));
  writer.BeginFamily("pbfs_sketch_bytes",
                     "Bytes of the published sketch store.", "gauge");
  writer.Sample("pbfs_sketch_bytes", {},
                static_cast<double>(sketch.sketch_bytes));
  const uint64_t consulted = counter_values[9] + counter_values[10];
  writer.BeginFamily("pbfs_sketch_hit_ratio",
                     "Fraction of fresh-sketch consultations answered "
                     "inline (hits / (hits + fallbacks)).",
                     "gauge");
  writer.Sample("pbfs_sketch_hit_ratio", {},
                consulted > 0 ? static_cast<double>(counter_values[9]) /
                                    static_cast<double>(consulted)
                              : 0.0);
  writer.BeginFamily("pbfs_sketch_bound_gap",
                     "Sketch bound gap (upper - lower) per "
                     "point-to-point query that consulted a fresh "
                     "sketch.",
                     "histogram");
  writer.HistogramSamples("pbfs_sketch_bound_gap", {}, bound_gap);

  // Windowed (not lifetime) quantiles: the whole point of the rolling
  // windows. Types with no samples in the window emit only _sum/_count
  // so dashboards see an explicit zero rather than a stale quantile.
  writer.BeginFamily("pbfs_engine_query_latency_ms",
                     "Submit-to-completion latency over the rolling "
                     "window, per query type.",
                     "summary");
  for (int t = 0; t < kNumQueryTypes; ++t) {
    const std::vector<obs::MetricLabel> labels = {
        {"type", QueryTypeName(static_cast<QueryType>(t))}};
    obs::ExpositionWriter::SummaryData data;
    data.sum = latency[t].sum;
    data.count = latency[t].count;
    if (latency[t].count > 0) {
      data.quantiles = {{0.5, latency[t].p50},
                        {0.95, latency[t].p95},
                        {0.99, latency[t].p99}};
    }
    writer.SummarySamples("pbfs_engine_query_latency_ms", labels, data);
  }
  writer.BeginFamily("pbfs_engine_batch_occupancy",
                     "Queries per batch slot over the rolling window "
                     "(multi-query dispatches only).",
                     "summary");
  obs::ExpositionWriter::SummaryData occ;
  occ.sum = occupancy.sum;
  occ.count = occupancy.count;
  if (occupancy.count > 0) {
    occ.quantiles = {{0.5, occupancy.p50},
                     {0.95, occupancy.p95},
                     {0.99, occupancy.p99}};
  }
  writer.SummarySamples("pbfs_engine_batch_occupancy", {}, occ);
}

}  // namespace pbfs
