// Snapshot-consistency edge cases for the dynamic query engine
// (satellite of the replay harness in dynamic_replay_test.cc).
//
// Verifies the admission-time pinning contract under adversarial
// timing: a query admitted before ApplyUpdates must traverse the old
// snapshot even when compaction completes while it is still queued;
// Cancel() and Drain() must not block on an in-flight compaction; and
// the engine destructor must cleanly stop a compactor mid-compaction.
// Compaction timing is made deterministic with
// maintenance_debug_delay_ms fault injection.

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "graph/generators.h"
#include "sched/worker_pool.h"

namespace pbfs {
namespace {

Query LevelsQuery(Vertex source) {
  Query query;
  query.type = QueryType::kLevels;
  query.source = source;
  return query;
}

// The headline consistency guarantee: a query admitted before an update
// batch sees the pre-update snapshot even if the batch is published AND
// compacted into a fresh CSR before the query is dispatched. The
// result is deterministic regardless of dispatch timing because the
// snapshot is pinned at admission, not at dispatch.
TEST(SnapshotConsistencyTest, AdmittedBeforeUpdateSeesOldSnapshot) {
  const Vertex n = 64;
  Graph graph = Path(n);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  QueryEngineOptions options;
  // Long linger: the query normally stays queued across the whole
  // update + compaction sequence below.
  options.coalesce_wait_ms = 250;
  QueryEngine engine(graph, &pool, options);

  QueryEngine::Submission before = engine.Submit(LevelsQuery(0));

  // Disconnect the source, publish, and compact to a fresh CSR.
  const std::vector<EdgeUpdate> cut = {{0, 1, /*insert=*/false}};
  ASSERT_EQ(engine.ApplyUpdates(cut), 2u);
  engine.WaitCompactorIdle();
  ASSERT_GE(engine.CompactorStats().compactions, 1u);
  ASSERT_GE(engine.SnapshotInfo().compact_swaps, 1u);

  QueryResult old_result = before.result.get();
  ASSERT_EQ(old_result.status, QueryStatus::kOk);
  EXPECT_EQ(old_result.snapshot_version, 1u);
  EXPECT_EQ(old_result.vertices_reached, static_cast<uint64_t>(n));
  ASSERT_EQ(old_result.levels.size(), static_cast<size_t>(n));
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_EQ(old_result.levels[v], static_cast<Level>(v)) << "vertex " << v;
  }

  // A query admitted after the update sees the cut chain.
  QueryResult new_result = engine.Submit(LevelsQuery(0)).result.get();
  ASSERT_EQ(new_result.status, QueryStatus::kOk);
  EXPECT_EQ(new_result.snapshot_version, 2u);
  EXPECT_EQ(new_result.vertices_reached, 1u);
}

// Cancel() and Drain() concern queued queries only; neither may block
// on the compactor. With a 1s injected compaction delay, both return
// while the compaction is still in flight.
TEST(SnapshotConsistencyTest, CancelAndDrainDuringInFlightCompaction) {
  Graph graph = ErdosRenyi(256, 512, /*seed=*/11);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  QueryEngineOptions options;
  options.coalesce_wait_ms = 1000;  // keep the query queued
  options.maintenance_debug_delay_ms = 1000;
  QueryEngine engine(graph, &pool, options);

  QueryEngine::Submission sub = engine.Submit(LevelsQuery(0));
  const std::vector<EdgeUpdate> batch = {{1, 200, /*insert=*/true}};
  ASSERT_EQ(engine.ApplyUpdates(batch), 2u);

  EXPECT_TRUE(engine.Cancel(sub.id));
  EXPECT_EQ(sub.result.get().status, QueryStatus::kCancelled);
  engine.Drain();
  // Drain returned while the compactor was still sleeping inside its
  // injected delay.
  EXPECT_EQ(engine.CompactorStats().compactions, 0u);

  engine.WaitCompactorIdle();
  EXPECT_GE(engine.CompactorStats().compactions, 1u);
  EXPECT_EQ(engine.SnapshotInfo().overlay_patched_vertices, 0u);
}

// Destroying the engine while a compaction is mid-flight must stop the
// dispatcher and join the compactor without deadlock or leak (ASan/TSan
// legs make this assertion meaningful).
TEST(SnapshotConsistencyTest, DestructorDuringInFlightCompaction) {
  Graph graph = ErdosRenyi(256, 512, /*seed=*/13);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  {
    QueryEngineOptions options;
    options.maintenance_debug_delay_ms = 200;
    QueryEngine engine(graph, &pool, options);
    const std::vector<EdgeUpdate> batch = {{2, 100, /*insert=*/true}};
    engine.ApplyUpdates(batch);
    // Let the compactor pin the snapshot and enter its injected delay.
    // The engine destructs here: the delay is cut short and the fold in
    // flight runs on the compactor's pool while the destructor joins.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

// A batch whose net change is empty still publishes a new content
// version, but the overlay replay folds it back to the base CSR, so
// there is nothing to compact: WaitCompactorIdle returns with no fold
// counted. A batch that deletes a real edge leaves an overlay, which
// the compactor folds.
TEST(SnapshotConsistencyTest, NetEmptyBatchPublishesWithoutCompacting) {
  Graph graph = Path(64);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);

  const std::vector<EdgeUpdate> churn = {{0, 10, /*insert=*/true},
                                         {0, 10, /*insert=*/false}};
  ASSERT_EQ(engine.ApplyUpdates(churn), 2u);
  SnapshotStats info = engine.SnapshotInfo();
  EXPECT_EQ(info.content_version, 2u);
  EXPECT_EQ(info.overlay_patched_vertices, 0u);
  engine.WaitCompactorIdle();
  EXPECT_EQ(engine.CompactorStats().compactions, 0u);
  EXPECT_EQ(engine.SnapshotInfo().compact_swaps, 0u);

  const std::vector<EdgeUpdate> cut = {{31, 32, /*insert=*/false}};
  ASSERT_EQ(engine.ApplyUpdates(cut), 3u);
  EXPECT_GT(engine.SnapshotInfo().overlay_patched_vertices, 0u);
  engine.WaitCompactorIdle();
  EXPECT_GE(engine.CompactorStats().compactions, 1u);
  EXPECT_EQ(engine.SnapshotInfo().overlay_patched_vertices, 0u);
}

// Version bookkeeping across a publish/compact/free cycle: versions
// are monotone, content versions count exactly the update batches,
// compaction leaves no overlay behind, and retired snapshots drain to
// zero once the dispatcher rebinds off the old snapshot.
TEST(SnapshotConsistencyTest, VersionsAdvanceAndRetiredSnapshotsDrain) {
  Graph graph = ErdosRenyi(128, 256, /*seed=*/17);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  QueryEngineOptions options;
  options.coalesce_wait_ms = 0;
  QueryEngine engine(graph, &pool, options);

  // Before any update: WaitCompactorIdle is a no-op and the compactor
  // was never started.
  engine.WaitCompactorIdle();
  EXPECT_EQ(engine.CompactorStats().compactions, 0u);
  SnapshotStats info = engine.SnapshotInfo();
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.content_version, 1u);
  EXPECT_EQ(info.retired, 0u);

  uint64_t last_version = info.version;
  for (uint64_t k = 0; k < 3; ++k) {
    const Vertex u = static_cast<Vertex>(k);
    const std::vector<EdgeUpdate> batch = {
        {u, static_cast<Vertex>(u + 50), /*insert=*/true},
        {u, static_cast<Vertex>(u + 51), /*insert=*/true},
    };
    ASSERT_EQ(engine.ApplyUpdates(batch), 2 + k);
    info = engine.SnapshotInfo();
    EXPECT_EQ(info.content_version, 2 + k);
    EXPECT_GT(info.version, last_version);
    last_version = info.version;
    EXPECT_EQ(info.publishes, k + 1);
  }
  QueryEngineStats stats = engine.Stats();
  EXPECT_EQ(stats.update_batches, 3u);
  EXPECT_EQ(stats.edge_updates_applied, 6u);

  engine.WaitCompactorIdle();
  info = engine.SnapshotInfo();
  EXPECT_EQ(info.content_version, 4u);  // swaps keep the content version
  EXPECT_EQ(info.overlay_patched_vertices, 0u);
  EXPECT_EQ(info.overlay_edge_delta, 0);
  EXPECT_GE(info.compact_swaps, 1u);

  // The dispatcher still pins the construction-time snapshot for its
  // cached kernels; one traversal rebinds it to the compacted snapshot,
  // after which no query holds a superseded snapshot. The batch's
  // own pin is dropped on the dispatcher thread shortly after the
  // future resolves, hence the poll.
  QueryResult result = engine.Submit(LevelsQuery(0)).result.get();
  ASSERT_EQ(result.status, QueryStatus::kOk);
  EXPECT_EQ(result.snapshot_version, 4u);
  for (int i = 0; i < 500 && engine.SnapshotInfo().retired != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  info = engine.SnapshotInfo();
  EXPECT_EQ(info.retired, 0u);
}

}  // namespace
}  // namespace pbfs
