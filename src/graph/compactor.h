// Background delta compaction for the dynamic graph substrate.
//
// Whenever notified and the current snapshot carries an overlay, the
// Compactor folds the overlay back into a fresh flat CSR: it pins the
// snapshot, flattens base + overlay to an edge list, rebuilds with the
// parallel_build machinery, and swaps the result in through
// SnapshotManager::InstallCompacted. Readers pinned to the old CSR keep
// traversing it; the old arrays are freed when the last pin on them is
// dropped (see graph/snapshot.h). The thread, its private pool and the idle/notify
// protocol are a MaintenanceLoop (graph/maintenance_loop.h).
#ifndef PBFS_GRAPH_COMPACTOR_H_
#define PBFS_GRAPH_COMPACTOR_H_

#include <cstdint>
#include <mutex>

#include "graph/maintenance_loop.h"
#include "graph/snapshot.h"
#include "sched/executor.h"

namespace pbfs {

class Compactor {
 public:
  // `snapshots` is borrowed and must outlive the compactor. No thread
  // or pool starts until the first Notify(); compaction then runs on a
  // small private pool. `debug_delay_ms` is fault injection: each fold
  // waits this long after pinning its snapshot (MaintenanceLoop::
  // DebugDelay), inside the `compactor.compact` span.
  Compactor(SnapshotManager* snapshots, double debug_delay_ms);

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  // Wakes the background thread; it compacts until the current snapshot
  // has no overlay. Cheap and thread-safe — call after every ApplyBatch.
  void Notify() { loop_.Notify(); }

  // Blocks until the thread is idle with no pending notification.
  // Returns at once when Notify() was never called.
  void WaitIdle() { loop_.WaitIdle(); }

  // Fields are read one at a time: a read racing a fold may pair its
  // last_edges with the previous compactions count. Read after
  // WaitIdle() for a settled view.
  struct Stats {
    uint64_t compactions = 0;
    double last_duration_ms = 0;
    double total_duration_ms = 0;
    uint64_t last_edges = 0;  // undirected edges in the last rebuild
  };
  Stats GetStats() const;

 private:
  // One pin->materialize->rebuild->swap cycle. False when the current
  // snapshot had nothing to compact.
  bool Compact(Executor* executor);

  SnapshotManager* const snapshots_;
  mutable std::mutex mu_;  // guards last_edges_
  uint64_t last_edges_ = 0;
  // Last: the loop's thread joins before the members above go away.
  MaintenanceLoop loop_;
};

}  // namespace pbfs

#endif  // PBFS_GRAPH_COMPACTOR_H_
