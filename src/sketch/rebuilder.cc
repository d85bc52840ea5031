#include "sketch/rebuilder.h"

#include <utility>

#include "obs/trace.h"
#include "util/check.h"

namespace pbfs {

SketchRebuilder::SketchRebuilder(SnapshotManager* snapshots,
                                 const SketchOptions& sketch, int workers,
                                 double debug_delay_ms)
    : snapshots_(snapshots),
      options_(sketch),
      loop_("sketch-rebuilder", workers, debug_delay_ms,
            [this](Executor* executor) { return Rebuild(executor); }) {
  PBFS_CHECK(snapshots_ != nullptr);
  loop_.Notify();  // build the first sketch unprompted
}

std::shared_ptr<const ClusterSketch> SketchRebuilder::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

SketchRebuilder::Stats SketchRebuilder::GetStats() const {
  const MaintenanceLoop::Stats loop = loop_.GetStats();
  const std::shared_ptr<const ClusterSketch> sketch = Current();
  return Stats{
      .rebuilds = loop.runs,
      .last_build_ms = loop.last_ms,
      .total_build_ms = loop.total_ms,
      .sketch_bytes = sketch != nullptr ? sketch->SketchBytes() : 0,
      .content_version = sketch != nullptr ? sketch->content_version() : 0};
}

bool SketchRebuilder::Rebuild(Executor* executor) {
  std::shared_ptr<const ClusterSketch> fresh;
  {
    SnapshotManager::Ref snap = snapshots_->Pin();
    const uint64_t target = snap->content_version();
    const std::shared_ptr<const ClusterSketch> published = Current();
    if (published != nullptr && published->content_version() == target) {
      return false;
    }
    obs::ScopedSpan span("sketch.rebuild");
    span.AddArg("content_version", target);
    loop_.DebugDelay();
    fresh = BuildSketch(snap->graph(), target, executor, options_);
    // snap unpins here; the build never outlives its snapshot's graph
    // because every level it stored was read before this point.
  }
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(fresh);
  return true;
}

}  // namespace pbfs
