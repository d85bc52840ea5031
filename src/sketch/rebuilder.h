// Background sketch refresh for dynamic graphs — the pin→build→swap
// cycle of graph/compactor.cc applied to Cluster-BFS sketches: whenever
// notified, a MaintenanceLoop (graph/maintenance_loop.h) pins the
// current snapshot, builds a fresh sketch tagged with that snapshot's
// content_version, and publishes it atomically. Readers grab the
// published sketch through Current() (a shared_ptr copy) and must
// compare its content_version against their own snapshot's before
// trusting its bounds — a stale sketch is never wrong-by-silence, only
// rejected (the engine then degrades to the exact traversal path).
#ifndef PBFS_SKETCH_REBUILDER_H_
#define PBFS_SKETCH_REBUILDER_H_

#include <cstdint>
#include <memory>
#include <mutex>

#include "graph/maintenance_loop.h"
#include "graph/snapshot.h"
#include "sched/executor.h"
#include "sketch/sketch.h"

namespace pbfs {

class SketchRebuilder {
 public:
  // `snapshots` is borrowed and must outlive the rebuilder. The loop
  // starts at once and builds the first sketch without waiting for a
  // Notify(), on a private pool of `workers` threads (a SerialExecutor
  // when workers <= 1). `debug_delay_ms` is fault injection: each build
  // waits this long after pinning its snapshot (MaintenanceLoop::
  // DebugDelay), inside the `sketch.rebuild` span.
  SketchRebuilder(SnapshotManager* snapshots, const SketchOptions& sketch,
                  int workers, double debug_delay_ms);

  SketchRebuilder(const SketchRebuilder&) = delete;
  SketchRebuilder& operator=(const SketchRebuilder&) = delete;

  // Wakes the background thread; it rebuilds until the published sketch
  // matches the current snapshot's content_version. Cheap and
  // thread-safe — call after every ApplyBatch.
  void Notify() { loop_.Notify(); }

  // Blocks until the thread is idle with no pending notification (the
  // published sketch is then current as of some recent snapshot).
  void WaitIdle() { loop_.WaitIdle(); }

  // The most recently published sketch; null until the first build
  // completes. Thread-safe.
  std::shared_ptr<const ClusterSketch> Current() const;

  // Fields are read one at a time: a read racing a build may pair the
  // new sketch's bytes and content_version with the previous rebuilds
  // count. Read after WaitIdle() for a settled view.
  struct Stats {
    uint64_t rebuilds = 0;
    double last_build_ms = 0;
    double total_build_ms = 0;
    uint64_t sketch_bytes = 0;      // of the published sketch
    uint64_t content_version = 0;   // of the published sketch
  };
  Stats GetStats() const;

 private:
  // One pin->build->publish cycle. False when the published sketch is
  // already current.
  bool Rebuild(Executor* executor);

  SnapshotManager* const snapshots_;
  const SketchOptions options_;

  mutable std::mutex mu_;  // guards current_
  std::shared_ptr<const ClusterSketch> current_;
  // Last: the loop's thread joins before the members above go away.
  MaintenanceLoop loop_;
};

}  // namespace pbfs

#endif  // PBFS_SKETCH_REBUILDER_H_
