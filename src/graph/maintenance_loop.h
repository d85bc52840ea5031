// One background-maintenance loop for the dynamic graph substrate.
//
// Two jobs keep a changing graph servable behind the query path:
// folding deltas back into a flat CSR (graph/compactor.h) and
// refreshing Cluster-BFS sketches (sketch/rebuilder.h). Both are the
// same pin -> build -> swap cycle, driven the same way. This class is
// that driving, written once. It owns:
//
//  - the thread (with its trace label) and the notify/busy/stop/idle
//    state machine behind Notify() and WaitIdle();
//  - the step's private executor: a WorkerPool of `workers` unpinned
//    threads, or a SerialExecutor when workers <= 1. It must be private
//    because the step runs concurrently with query traversals, and a
//    WorkerPool tolerates only one coordinating thread;
//  - the fault-injection delay (DebugDelay()) and the per-cycle timing.
//
// Whenever notified, the thread calls the step until it returns false.
// The thread and the executor start the first time the loop has work
// (the first Notify()), so a loop that is never notified costs nothing.
#ifndef PBFS_GRAPH_MAINTENANCE_LOOP_H_
#define PBFS_GRAPH_MAINTENANCE_LOOP_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "sched/executor.h"

namespace pbfs {

class MaintenanceLoop {
 public:
  // One cycle of the job, run on the loop's executor. Returns false
  // when there was nothing to do; the loop then idles until the next
  // Notify().
  using Step = std::function<bool(Executor* executor)>;

  // `label` names the thread in traces and must be a string literal.
  // `debug_delay_ms` is the length of DebugDelay(); 0 costs nothing.
  MaintenanceLoop(const char* label, int workers, double debug_delay_ms,
                  Step step);
  // Stops after the step in flight (if any); never waits on new work. A
  // DebugDelay() in progress is cut short and its step runs to the end.
  ~MaintenanceLoop();

  MaintenanceLoop(const MaintenanceLoop&) = delete;
  MaintenanceLoop& operator=(const MaintenanceLoop&) = delete;

  // Wakes the loop; it steps until the step returns false.
  // Notifications arriving during a cycle coalesce into at most one
  // more cycle. Thread-safe, and cheap after the first call, which
  // creates the executor and starts the thread.
  void Notify();

  // Blocks until the loop is idle with no pending notification, i.e. a
  // step has returned false since the last Notify(). Returns at once on
  // a loop that was never notified.
  void WaitIdle();

  // Test/ops fault injection, called by the step once it has pinned its
  // input and found work: waits `debug_delay_ms`, so races against an
  // in-flight cycle (cancellation, teardown, stale reads) can be
  // exercised deterministically. A step that finds nothing to do pays
  // no delay. Returns early when the loop is being destroyed. Only the
  // step may call it.
  void DebugDelay();

  struct Stats {
    uint64_t runs = 0;    // steps that returned true
    double last_ms = 0;   // duration of the last such step
    double total_ms = 0;
  };
  Stats GetStats() const;

 private:
  void Main();

  const char* const label_;
  const int workers_;
  const double debug_delay_ms_;
  const Step step_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  bool stop_ = false;
  bool notified_ = false;
  bool busy_ = false;
  Stats stats_;

  // Both started by the first Notify(), under mu_; the executor is
  // destroyed after the thread joins.
  std::unique_ptr<Executor> executor_;
  std::thread thread_;
};

}  // namespace pbfs

#endif  // PBFS_GRAPH_MAINTENANCE_LOOP_H_
