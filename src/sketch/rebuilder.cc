#include "sketch/rebuilder.h"

#include <chrono>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace pbfs {

SketchRebuilder::SketchRebuilder(SnapshotManager* snapshots,
                                 Executor* executor,
                                 SketchRebuilderOptions options)
    : snapshots_(snapshots), executor_(executor), options_(options) {
  PBFS_CHECK(snapshots_ != nullptr && executor_ != nullptr);
  thread_ = std::thread([this] { Main(); });
}

SketchRebuilder::~SketchRebuilder() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  thread_.join();
}

void SketchRebuilder::Notify() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    notified_ = true;
  }
  work_cv_.notify_one();
}

void SketchRebuilder::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return !busy_ && !notified_; });
}

std::shared_ptr<const ClusterSketch> SketchRebuilder::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

SketchRebuilder::Stats SketchRebuilder::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool SketchRebuilder::StopRequested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stop_;
}

void SketchRebuilder::Main() {
  obs::Tracer::SetThreadLabel("sketch-rebuilder", -1);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || notified_; });
    if (stop_) return;
    // notified_ clears and busy_ sets under one lock hold, so WaitIdle
    // can never observe the gap between them.
    notified_ = false;
    busy_ = true;
    lock.unlock();
    // Keep rebuilding until the sketch matches the snapshot published
    // last; updates landing mid-build are picked up by the next cycle.
    while (!StopRequested() && RunOnce()) {
    }
    lock.lock();
    busy_ = false;
    idle_cv_.notify_all();
  }
}

bool SketchRebuilder::RunOnce() {
  Timer timer;
  std::shared_ptr<const ClusterSketch> fresh;
  {
    SnapshotManager::Ref snap = snapshots_->Pin();
    const uint64_t target = snap->content_version();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (current_ != nullptr && current_->content_version() == target) {
        return false;
      }
    }
    obs::ScopedSpan span("sketch.rebuild");
    span.AddArg("content_version", target);
    if (options_.debug_delay_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(options_.debug_delay_ms));
    }
    fresh = BuildSketch(snap->graph(), target, executor_, options_.sketch);
    // snap unpins here; the build never outlives its snapshot's graph
    // because every level it stored was read before this point.
  }
  const double duration_ms = timer.ElapsedMillis();
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(fresh);
    ++stats_.rebuilds;
    stats_.last_build_ms = duration_ms;
    stats_.total_build_ms += duration_ms;
    stats_.sketch_bytes = current_->SketchBytes();
    stats_.content_version = current_->content_version();
  }
  return true;
}

}  // namespace pbfs
