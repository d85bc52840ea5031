// Property tests for the delta/overlay layer beneath the dynamic query
// engine (graph/delta.h, graph/snapshot.h).
//
// Core property: for any base CSR and any update sequence, the overlay
// view (base + frozen AdjacencyOverlay) must be observationally
// identical — Degree, Neighbors, num_directed_edges — to the CSR
// rebuilt from scratch with Graph::FromEdges on the updated edge set.
// Randomized over the differential corpus families; failures print the
// PBFS_DIFF_SEED reproduction banner. Also covers overlay chaining,
// no-op update sequences, RebaseOverlay after a compaction swap,
// MaterializeEdges round trips, concurrent ApplyBatch publishers, and
// snapshot lifetime under SnapshotManager.

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_util.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
#include "sched/worker_pool.h"

namespace pbfs {
namespace {

using diff::CorpusGraph;
using diff::MakeCorpus;
using diff::ReproNote;
using dyn::ApplyToSet;
using dyn::EdgeSet;
using dyn::GraphToSet;
using dyn::SetToEdges;

// Random mix of inserts and deletes, biased so deletes find present
// edges; self loops occur naturally when u == v (the overlay builder
// drops them, the oracle skips them).
std::vector<EdgeUpdate> RandomUpdates(const Graph& base, int count, Rng& rng) {
  const Vertex n = base.num_vertices();
  std::vector<EdgeUpdate> ops;
  ops.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    EdgeUpdate op;
    op.insert = rng.NextBounded(100) < 60;
    op.u = static_cast<Vertex>(rng.NextBounded(n));
    if (!op.insert && base.Degree(op.u) > 0 && rng.NextBounded(100) < 70) {
      // Delete a real incident edge.
      auto neighbors = base.Neighbors(op.u);
      op.v = neighbors[rng.NextBounded(neighbors.size())];
    } else {
      op.v = static_cast<Vertex>(rng.NextBounded(n));
    }
    ops.push_back(op);
  }
  return ops;
}

// Asserts `view` and `expected` describe the same graph, adjacency list
// by adjacency list.
void ExpectSameGraph(const Graph& view, const Graph& expected,
                     const std::string& note) {
  ASSERT_EQ(view.num_vertices(), expected.num_vertices()) << note;
  ASSERT_EQ(view.num_directed_edges(), expected.num_directed_edges()) << note;
  for (Vertex v = 0; v < expected.num_vertices(); ++v) {
    ASSERT_EQ(view.Degree(v), expected.Degree(v)) << "vertex " << v << " "
                                                  << note;
    auto got = view.Neighbors(v);
    auto want = expected.Neighbors(v);
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "vertex " << v << " neighbor index " << i << " " << note;
    }
  }
}

TEST(DeltaOverlayPropertyTest, OverlayViewMatchesRebuiltCsr) {
  for (int trial = 0; trial < diff::NumTrials(); ++trial) {
    const uint64_t seed = diff::TrialSeed(static_cast<uint64_t>(trial));
    SCOPED_TRACE(ReproNote(seed));
    Rng rng(seed);
    for (const CorpusGraph& gc : MakeCorpus(seed)) {
      if (gc.graph.num_vertices() < 2) continue;
      const int count = 1 + static_cast<int>(rng.NextBounded(64));
      const std::vector<EdgeUpdate> ops = RandomUpdates(gc.graph, count, rng);

      auto overlay = ApplyUpdatesToOverlay(gc.graph, nullptr, ops);
      const Graph view = Graph::OverlayView(gc.graph, overlay.get());

      EdgeSet set = GraphToSet(gc.graph);
      ApplyToSet(set, ops);
      const Graph rebuilt =
          Graph::FromEdges(gc.graph.num_vertices(), SetToEdges(set));
      ExpectSameGraph(view, rebuilt, "graph=" + gc.name);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DeltaOverlayPropertyTest, ChainedOverlaysMatchRebuiltCsr) {
  for (int trial = 0; trial < diff::NumTrials(); ++trial) {
    const uint64_t seed = diff::TrialSeed(100 + static_cast<uint64_t>(trial));
    SCOPED_TRACE(ReproNote(seed));
    Rng rng(seed);
    for (const CorpusGraph& gc : MakeCorpus(seed)) {
      if (gc.graph.num_vertices() < 2) continue;
      EdgeSet set = GraphToSet(gc.graph);
      std::shared_ptr<const AdjacencyOverlay> overlay;
      // Three generations of patches stacked on one base; each
      // generation's overlay replaces the previous one wholesale.
      for (int gen = 0; gen < 3; ++gen) {
        const int count = 1 + static_cast<int>(rng.NextBounded(32));
        const std::vector<EdgeUpdate> ops =
            RandomUpdates(gc.graph, count, rng);
        overlay = ApplyUpdatesToOverlay(gc.graph, overlay.get(), ops);
        ApplyToSet(set, ops);
      }
      const Graph view = Graph::OverlayView(gc.graph, overlay.get());
      const Graph rebuilt =
          Graph::FromEdges(gc.graph.num_vertices(), SetToEdges(set));
      ExpectSameGraph(view, rebuilt, "graph=" + gc.name);
      if (HasFatalFailure()) return;
    }
  }
}

// Update sequences whose net effect is nothing must produce no overlay
// at all — the immutable fast path stays patch-free.
TEST(DeltaOverlayPropertyTest, NetNoOpUpdatesProduceNullOverlay) {
  Graph base = Path(16);  // edges (v, v+1)
  const std::vector<EdgeUpdate> noop = {
      {3, 4, true},    // duplicate insert of a present edge
      {4, 3, true},    // same edge, reversed endpoints
      {9, 12, false},  // delete of an absent edge
      {5, 5, true},    // self loop (dropped)
      {7, 8, false},   // delete-then-reinsert nets out
      {7, 8, true},
      {10, 14, true},  // insert-then-delete nets out
      {10, 14, false},
  };
  auto overlay = ApplyUpdatesToOverlay(base, nullptr, noop);
  EXPECT_EQ(overlay, nullptr);

  // Chaining onto a real overlay: reverting a patched vertex back to
  // its base list keeps a conservative base-equal patch (an in-flight
  // compaction may have folded the old patch into its fresh CSR, and
  // the rebase can only override vertices the overlay still mentions).
  // The view equals the base, and the patch dies at the next swap.
  const std::vector<EdgeUpdate> insert = {{0, 8, true}};
  auto patched = ApplyUpdatesToOverlay(base, nullptr, insert);
  ASSERT_NE(patched, nullptr);
  EXPECT_EQ(patched->num_patched(), 2u);  // both endpoints
  const std::vector<EdgeUpdate> revert = {{0, 8, false}};
  auto reverted = ApplyUpdatesToOverlay(base, patched.get(), revert);
  ASSERT_NE(reverted, nullptr);
  EXPECT_EQ(reverted->num_patched(), 2u);
  ExpectSameGraph(Graph::OverlayView(base, reverted.get()), base,
                  "reverted view");
  // A compaction swap onto an identical fresh CSR sheds the base-equal
  // patches.
  EXPECT_EQ(RebaseOverlay(base, reverted.get()), nullptr);
}

// RebaseOverlay after a compaction swap: patches the fresh CSR already
// contains are dropped; patches published after the compactor pinned
// its input survive, and the rebased view still matches the oracle.
TEST(DeltaOverlayPropertyTest, RebaseDropsFoldedPatchesKeepsNewOnes) {
  Graph base = ErdosRenyi(200, 400, /*seed=*/23);
  const std::vector<EdgeUpdate> first = {{0, 100, true}, {1, 101, true}};
  auto overlay_a = ApplyUpdatesToOverlay(base, nullptr, first);
  ASSERT_NE(overlay_a, nullptr);

  // "Compaction": rebuild a fresh CSR equal to base + first.
  EdgeSet set = GraphToSet(base);
  ApplyToSet(set, first);
  const Graph fresh = Graph::FromEdges(base.num_vertices(), SetToEdges(set));

  // Everything folded in: nothing survives the rebase.
  EXPECT_EQ(RebaseOverlay(fresh, overlay_a.get()), nullptr);

  // A second batch published on the old base after the compactor
  // pinned: only its patches survive, and the rebased view equals the
  // full oracle.
  const std::vector<EdgeUpdate> second = {{2, 102, true}, {0, 100, false}};
  auto overlay_b = ApplyUpdatesToOverlay(base, overlay_a.get(), second);
  ASSERT_NE(overlay_b, nullptr);
  auto rebased = RebaseOverlay(fresh, overlay_b.get());
  ASSERT_NE(rebased, nullptr);
  ApplyToSet(set, second);
  const Graph rebuilt =
      Graph::FromEdges(base.num_vertices(), SetToEdges(set));
  ExpectSameGraph(Graph::OverlayView(fresh, rebased.get()), rebuilt,
                  "rebased view");
}

TEST(DeltaOverlayPropertyTest, MaterializeEdgesRoundTripsSerialAndParallel) {
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  for (int trial = 0; trial < diff::NumTrials(); ++trial) {
    const uint64_t seed = diff::TrialSeed(200 + static_cast<uint64_t>(trial));
    SCOPED_TRACE(ReproNote(seed));
    Rng rng(seed);
    Graph base = ErdosRenyi(300, 900, rng.Next());
    const std::vector<EdgeUpdate> ops = RandomUpdates(base, 48, rng);
    auto overlay = ApplyUpdatesToOverlay(base, nullptr, ops);
    const Graph view = Graph::OverlayView(base, overlay.get());

    EdgeSet set = GraphToSet(base);
    ApplyToSet(set, ops);
    const Graph rebuilt =
        Graph::FromEdges(base.num_vertices(), SetToEdges(set));

    const Graph serial =
        Graph::FromEdges(base.num_vertices(), MaterializeEdges(view));
    ExpectSameGraph(serial, rebuilt, "serial materialize");
    const Graph parallel =
        Graph::FromEdges(base.num_vertices(), MaterializeEdges(view, &pool));
    ExpectSameGraph(parallel, rebuilt, "parallel materialize");
    if (HasFatalFailure()) return;
  }
}

// Concurrent publishers: four threads publish disjoint batches while a
// reader pins and drops snapshots and one compaction swap lands mid-run.
// Every batch gets its own content version, and the final view equals
// the CSR rebuilt from the union of all batches.
TEST(DeltaOverlayPropertyTest, ConcurrentApplyBatchLosesNothing) {
  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 40;
  constexpr Vertex kRange = 64;  // writer t owns [t*kRange, (t+1)*kRange)
  const Vertex n = kWriters * kRange;
  const Graph base = ErdosRenyi(n, 512, /*seed=*/31);
  SnapshotManager manager(SnapshotManager::Borrow(base));

  // Each batch touches only its writer's range, so the union of the
  // batches does not depend on how publishers interleave.
  std::vector<std::vector<std::vector<EdgeUpdate>>> batches(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    Rng rng(static_cast<uint64_t>(t) + 1);
    const Vertex lo = static_cast<Vertex>(t) * kRange;
    for (int b = 0; b < kBatchesPerWriter; ++b) {
      std::vector<EdgeUpdate> batch;
      for (int i = 0; i < 6; ++i) {
        const Vertex u = lo + static_cast<Vertex>(rng.NextBounded(kRange));
        Vertex v = lo + static_cast<Vertex>(rng.NextBounded(kRange - 1));
        if (v >= u) ++v;  // never a self loop: every batch publishes
        batch.push_back({u, v, rng.NextBounded(100) < 70});
      }
      batches[t].push_back(std::move(batch));
    }
  }

  std::atomic<int> writers_done{0};
  std::vector<std::vector<uint64_t>> versions(kWriters);
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (const std::vector<EdgeUpdate>& batch : batches[t]) {
        versions[t].push_back(manager.ApplyBatch(batch));
      }
      writers_done.fetch_add(1);
    });
  }
  threads.emplace_back([&] {  // reader: pinned versions never go back
    uint64_t last = 0;
    while (writers_done.load() < kWriters) {
      SnapshotManager::Ref snap = manager.Pin();
      EXPECT_GE(snap->version(), last);
      last = snap->version();
      EXPECT_EQ(snap->graph().num_vertices(), n);
    }
  });
  threads.emplace_back([&] {  // one compaction, racing the publishers
    while (manager.GetStats().publishes < kWriters * kBatchesPerWriter / 2 &&
           writers_done.load() < kWriters) {
      std::this_thread::yield();
    }
    SnapshotManager::Ref cur = manager.Pin();
    auto fresh = std::make_shared<const Graph>(
        Graph::FromEdges(n, MaterializeEdges(cur->graph())));
    manager.InstallCompacted(cur->version(), std::move(fresh));
  });
  for (std::thread& t : threads) t.join();

  std::set<uint64_t> distinct;
  size_t published = 0;
  for (const std::vector<uint64_t>& v : versions) {
    distinct.insert(v.begin(), v.end());
    published += v.size();
  }
  const size_t total = static_cast<size_t>(kWriters * kBatchesPerWriter);
  EXPECT_EQ(published, total);
  EXPECT_EQ(distinct.size(), total);
  const SnapshotStats stats = manager.GetStats();
  EXPECT_EQ(stats.publishes, total);
  EXPECT_EQ(stats.compact_swaps, 1u);
  EXPECT_EQ(stats.content_version, 1 + total);

  EdgeSet set = GraphToSet(base);
  for (const auto& writer : batches) {
    for (const std::vector<EdgeUpdate>& batch : writer) ApplyToSet(set, batch);
  }
  ExpectSameGraph(manager.Pin()->graph(),
                  Graph::FromEdges(n, SetToEdges(set)), "final view");
}

// Snapshot lifetime is the shared_ptr's: a pinned superseded snapshot
// stays resident, and the old owned base CSR is freed (weak_ptr expiry)
// the moment the last Ref to it drops after a compaction swap — no
// reclaim call involved.
TEST(DeltaOverlayPropertyTest, SupersededBaseFreedWhenLastRefDrops) {
  auto owned = std::make_shared<const Graph>(Path(32));
  std::weak_ptr<const Graph> old_base = owned;
  SnapshotManager manager(std::move(owned));

  SnapshotManager::Ref pinned = manager.Pin();
  const std::vector<EdgeUpdate> batch = {{0, 9, true}};
  EXPECT_EQ(manager.ApplyBatch(batch), 2u);
  // Version 1 is superseded but the pin holds it.
  EXPECT_EQ(manager.GetStats().retired, 1u);
  EXPECT_EQ(pinned->graph().Degree(0), 1u);  // still the old chain

  // Compact: fold the overlay of the *current* snapshot into a fresh
  // owned CSR and swap it in.
  {
    SnapshotManager::Ref cur = manager.Pin();
    auto fresh = std::make_shared<const Graph>(Graph::FromEdges(
        cur->graph().num_vertices(), MaterializeEdges(cur->graph())));
    manager.InstallCompacted(cur->version(), fresh);
  }
  SnapshotStats stats = manager.GetStats();
  EXPECT_EQ(stats.compact_swaps, 1u);
  EXPECT_EQ(stats.content_version, 2u);
  EXPECT_EQ(stats.overlay_patched_vertices, 0u);
  // Version 2 (overlay on the old base) had no pin left and is gone;
  // the original base is still reachable through the pinned version 1.
  EXPECT_EQ(stats.retired, 1u);
  EXPECT_FALSE(old_base.expired());

  pinned.reset();  // the last Ref on the old base
  EXPECT_TRUE(old_base.expired()) << "old base CSR outlived its last Ref";
  EXPECT_EQ(manager.GetStats().retired, 0u);

  // The surviving snapshot answers from the compacted CSR.
  SnapshotManager::Ref after = manager.Pin();
  EXPECT_FALSE(after->has_overlay());
  EXPECT_EQ(after->graph().Degree(0), 2u);  // chain edge + inserted (0,9)
}

// Batches with no edge left after normalization publish nothing: the
// caller gets the current content version back and no snapshot moves.
TEST(DeltaOverlayPropertyTest, SelfLoopAndEmptyBatchesPublishNothing) {
  const Graph base = Path(16);
  SnapshotManager manager(SnapshotManager::Borrow(base));
  const std::vector<EdgeUpdate> grow = {{0, 8, true}};
  EXPECT_EQ(manager.ApplyBatch(grow), 2u);
  const SnapshotManager::Ref before = manager.Pin();

  const std::vector<EdgeUpdate> self_loops = {{3, 3, true}, {7, 7, false}};
  EXPECT_EQ(manager.ApplyBatch(self_loops), 2u);
  EXPECT_EQ(manager.ApplyBatch({}), 2u);

  const SnapshotStats stats = manager.GetStats();
  EXPECT_EQ(stats.version, 2u);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(manager.Pin(), before);  // the very same snapshot
}

}  // namespace
}  // namespace pbfs
