// Versioned immutable graph snapshots — the read side of the dynamic
// graph substrate.
//
// A GraphSnapshot freezes one logical graph state: a base CSR plus an
// optional AdjacencyOverlay, exposed to the traversal kernels as one
// Graph overlay view. Snapshots are immutable; SnapshotManager serializes
// publication of successors (update batches via ApplyBatch, compacted
// CSR swaps via InstallCompacted).
//
// Lifetime: Pin() hands out a shared_ptr to the current snapshot, and
// that shared_ptr is the only lifetime mechanism. A superseded snapshot's
// memory (including an owned base CSR replaced by compaction) is freed
// by whichever thread drops its last reference: the publisher that
// superseded it when no reader still holds it, else the last reader.
#ifndef PBFS_GRAPH_SNAPSHOT_H_
#define PBFS_GRAPH_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/delta.h"
#include "graph/graph.h"

namespace pbfs {

class SnapshotManager;

// One frozen graph state. `version` increases on every publication;
// `content_version` only when the edge set changes, so a compaction swap
// (same edges, fresh CSR) bumps `version` but not `content_version`.
// Queries are stamped with the content version they ran against.
class GraphSnapshot {
 public:
  const Graph& graph() const { return view_; }
  uint64_t version() const { return version_; }
  uint64_t content_version() const { return content_version_; }
  bool has_overlay() const { return overlay_ != nullptr; }
  size_t patched_vertices() const {
    return overlay_ != nullptr ? overlay_->num_patched() : 0;
  }
  int64_t overlay_edge_delta() const {
    return overlay_ != nullptr ? overlay_->directed_edge_delta : 0;
  }

 private:
  friend class SnapshotManager;
  GraphSnapshot(std::shared_ptr<const Graph> base,
                std::shared_ptr<const AdjacencyOverlay> overlay,
                uint64_t version, uint64_t content_version)
      : base_(std::move(base)),
        overlay_(std::move(overlay)),
        view_(Graph::OverlayView(*base_, overlay_.get())),
        version_(version),
        content_version_(content_version) {}

  std::shared_ptr<const Graph> base_;
  std::shared_ptr<const AdjacencyOverlay> overlay_;
  Graph view_;
  uint64_t version_;
  uint64_t content_version_;
};

// Aggregate counters for stats surfaces and live gauges.
struct SnapshotStats {
  uint64_t version = 0;
  uint64_t content_version = 0;
  uint64_t publishes = 0;      // update-batch publications
  uint64_t compact_swaps = 0;  // compacted-CSR publications
  uint64_t updates_applied = 0;  // non-self-loop ops folded into overlays
  size_t overlay_patched_vertices = 0;
  int64_t overlay_edge_delta = 0;  // directed entries vs current base
  size_t retired = 0;  // superseded snapshots a reader still holds
};

class SnapshotManager {
 public:
  // A pin on one snapshot: it stays alive while any copy is held.
  using Ref = std::shared_ptr<const GraphSnapshot>;

  // `base` becomes snapshot version 1. Use Borrow() for graphs owned by
  // the caller (they must outlive the manager — like QueryEngine's
  // borrowed graph); compaction replaces the base with an owned CSR
  // either way.
  explicit SnapshotManager(std::shared_ptr<const Graph> base);

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  // Non-owning shared_ptr aliasing a caller-owned graph.
  static std::shared_ptr<const Graph> Borrow(const Graph& graph) {
    return std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(),
                                        &graph);
  }

  // Pins the current snapshot. Thread-safe.
  Ref Pin() const;

  // Publishes one successor snapshot holding `updates`, applied in span
  // order (last wins for conflicting updates of one edge; self loops are
  // dropped). Endpoints must lie in [0, num_vertices). Thread-safe;
  // concurrent calls serialize on the publish lock, so a batch is never
  // split across two publications. Returns the content version of the
  // first snapshot containing `updates` — the current one, unchanged,
  // when the batch holds no edge other than self loops.
  uint64_t ApplyBatch(std::span<const EdgeUpdate> updates);

  // Publishes `fresh` (a compacted CSR equal to the snapshot that was
  // current at `compacted_from_version`) as the new base, rebasing any
  // overlay published since onto it. Called by the Compactor.
  void InstallCompacted(uint64_t compacted_from_version,
                        std::shared_ptr<const Graph> fresh);

  SnapshotStats GetStats() const;

 private:
  // Installs `next` as current_ and records its predecessor as retired.
  // mu_ held. Publishers keep their own reference to the predecessor
  // until they return, so a snapshot no reader holds is freed after
  // mu_ is released, never under it.
  void PublishLocked(Ref next);

  // Serializes publishers (ApplyBatch, InstallCompacted) so overlay
  // construction — too slow for mu_ — never races another publication.
  // Lock order: publish_mu_ before mu_.
  std::mutex publish_mu_;

  mutable std::mutex mu_;
  Ref current_;
  // Superseded snapshots, pruned of expired entries at each publication.
  std::vector<std::weak_ptr<const GraphSnapshot>> retired_;
  uint64_t publishes_ = 0;
  uint64_t compact_swaps_ = 0;
  uint64_t updates_applied_ = 0;
};

}  // namespace pbfs

#endif  // PBFS_GRAPH_SNAPSHOT_H_
