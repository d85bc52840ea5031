#include "graph/snapshot.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/check.h"

namespace pbfs {

SnapshotManager::SnapshotManager(std::shared_ptr<const Graph> base) {
  PBFS_CHECK(base != nullptr);
  PBFS_CHECK(!base->has_overlay());
  current_ = Ref(new GraphSnapshot(std::move(base), nullptr, /*version=*/1,
                                   /*content_version=*/1));
}

SnapshotManager::Ref SnapshotManager::Pin() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

void SnapshotManager::PublishLocked(Ref next) {
  std::erase_if(retired_, [](const std::weak_ptr<const GraphSnapshot>& w) {
    return w.expired();
  });
  retired_.push_back(current_);
  current_ = std::move(next);
}

uint64_t SnapshotManager::ApplyBatch(std::span<const EdgeUpdate> updates) {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  const Ref cur = Pin();
  const Vertex n = cur->graph().num_vertices();
  const size_t applied = static_cast<size_t>(
      std::count_if(updates.begin(), updates.end(), [n](const EdgeUpdate& u) {
        PBFS_CHECK(u.u < n && u.v < n);
        return u.u != u.v;
      }));
  if (applied == 0) {
    // Empty, or all self loops (normalization no-ops): the current
    // snapshot already covers the batch.
    return cur->content_version();
  }
  auto next = Ref(new GraphSnapshot(
      cur->base_, ApplyUpdatesToOverlay(*cur->base_, cur->overlay_.get(),
                                        updates),
      cur->version_ + 1, cur->content_version_ + 1));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++publishes_;
    updates_applied_ += applied;
    PublishLocked(std::move(next));
  }
  return cur->content_version_ + 1;
}

void SnapshotManager::InstallCompacted(uint64_t compacted_from_version,
                                       std::shared_ptr<const Graph> fresh) {
  PBFS_CHECK(fresh != nullptr && !fresh->has_overlay());
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  const Ref cur = Pin();
  PBFS_CHECK(cur->version_ >= compacted_from_version);
  // Patches published after the compactor pinned its input still differ
  // from the fresh CSR and must survive the swap; everything the
  // compaction folded in rebases away.
  std::shared_ptr<const AdjacencyOverlay> overlay =
      cur->version_ == compacted_from_version
          ? nullptr
          : RebaseOverlay(*fresh, cur->overlay_.get());
  auto next = Ref(new GraphSnapshot(std::move(fresh), std::move(overlay),
                                    cur->version_ + 1, cur->content_version_));
  PBFS_CHECK(next->graph().num_directed_edges() ==
             cur->graph().num_directed_edges());
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++compact_swaps_;
    PublishLocked(std::move(next));
  }
}

SnapshotStats SnapshotManager::GetStats() const {
  SnapshotStats stats;
  std::lock_guard<std::mutex> lock(mu_);
  stats.version = current_->version_;
  stats.content_version = current_->content_version_;
  stats.publishes = publishes_;
  stats.compact_swaps = compact_swaps_;
  stats.updates_applied = updates_applied_;
  stats.overlay_patched_vertices = current_->patched_vertices();
  stats.overlay_edge_delta = current_->overlay_edge_delta();
  stats.retired = static_cast<size_t>(std::count_if(
      retired_.begin(), retired_.end(),
      [](const std::weak_ptr<const GraphSnapshot>& w) { return !w.expired(); }));
  return stats;
}

}  // namespace pbfs
