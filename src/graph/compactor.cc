#include "graph/compactor.h"

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "graph/parallel_build.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace pbfs {

Compactor::Compactor(SnapshotManager* snapshots, Executor* executor,
                     CompactorOptions options)
    : snapshots_(snapshots), executor_(executor), options_(options) {
  PBFS_CHECK(snapshots_ != nullptr && executor_ != nullptr);
  thread_ = std::thread([this] { Main(); });
}

Compactor::~Compactor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  thread_.join();
}

void Compactor::Notify() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    notified_ = true;
  }
  work_cv_.notify_one();
}

void Compactor::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return !busy_ && !notified_; });
}

Compactor::Stats Compactor::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool Compactor::StopRequested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stop_;
}

void Compactor::Main() {
  obs::Tracer::SetThreadLabel("compactor", -1);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || notified_; });
    if (stop_) return;
    // notified_ clears and busy_ sets under one lock hold, so WaitIdle
    // can never observe the gap between them.
    notified_ = false;
    busy_ = true;
    lock.unlock();
    // Keep folding until the snapshot published last is overlay-free;
    // updates landing mid-compaction rebase onto the fresh CSR and are
    // picked up by the next cycle.
    while (!StopRequested() && RunOnce()) {
    }
    lock.lock();
    busy_ = false;
    idle_cv_.notify_all();
  }
}

bool Compactor::RunOnce() {
  Timer timer;
  std::vector<Edge> edges;
  uint64_t from_version = 0;
  {
    SnapshotManager::Ref snap = snapshots_->Pin();
    if (!snap->has_overlay()) return false;
    from_version = snap->version();
    obs::ScopedSpan span("compactor.compact");
    span.AddArg("version", from_version);
    span.AddArg("patched_vertices",
                static_cast<uint64_t>(snap->patched_vertices()));
    if (options_.debug_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(options_.debug_delay_ms));
    }
    edges = MaterializeEdges(snap->graph(), executor_);
    auto fresh = std::make_shared<Graph>(
        BuildGraphParallel(snap->graph().num_vertices(), edges, executor_));
    snapshots_->InstallCompacted(from_version, std::move(fresh));
    // snap unpins here; with the engine's runner pins typically moved on
    // already, the pre-compaction CSR reclaims on this drain.
  }
  snapshots_->ReclaimDrained();
  const double duration_ms = timer.ElapsedMillis();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.compactions;
    stats_.last_duration_ms = duration_ms;
    stats_.total_duration_ms += duration_ms;
    stats_.last_edges = edges.size();
  }
  return true;
}

}  // namespace pbfs
