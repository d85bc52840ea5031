// Persistent pool of pinned worker threads driving the work-stealing
// parallel for loop (Listing 7 of the paper).
//
// Workers are created once, pinned to CPUs socket-by-socket (worker 0..k
// on socket 0's cores, then socket 1, ...; Section 5.3.1), and reused
// across all BFS iterations so first-touch NUMA placement stays valid.
// Dispatching a loop costs one condition-variable broadcast; each task
// fetch is a single relaxed atomic fetch-add (see TaskQueues).
//
// Thread-compatibility: ParallelFor / ParallelForStatic / RunOnWorkers
// must be called from one coordinating thread at a time (the paper's
// main thread); the loops themselves run on the pool.
#ifndef PBFS_SCHED_WORKER_POOL_H_
#define PBFS_SCHED_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "platform/topology.h"
#include "sched/executor.h"
#include "sched/steal_policy.h"
#include "sched/task_queues.h"
#include "util/aligned_buffer.h"

namespace pbfs {

class WorkerPool : public Executor {
 public:
  struct Options {
    int num_workers = 1;
    bool pin_threads = true;
    // Topology used for pinning and NUMA bookkeeping; host topology is
    // detected when null.
    const Topology* topology = nullptr;
    // Explicit per-worker CPU ids (size >= num_workers). When empty,
    // workers fill the topology's sockets in order. Used by the
    // one-per-socket batch mode to confine a pool to one NUMA node.
    std::vector<int> cpus;
  };

  explicit WorkerPool(const Options& options);
  ~WorkerPool() override;

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_workers() const override { return num_workers_; }
  int NodeOfWorker(int worker_id) const override {
    return worker_nodes_[worker_id];
  }
  int num_nodes() const { return num_nodes_; }

  // Work-stealing loop over [0, total) in tasks of `split_size`.
  void ParallelFor(uint64_t total, uint32_t split_size,
                   const RangeBody& body) override;

  // Static partitioning: worker w processes the single contiguous range
  // [w*total/W, (w+1)*total/W). Used by the Figure 6/7 skew experiments
  // and by deterministic first-touch initialization.
  void ParallelForStatic(uint64_t total, const RangeBody& body);

  // No-steal loop: worker w executes exactly the tasks dealt to its
  // queue (w, w + W, w + 2W, ...), guaranteeing deterministic
  // first-touch page placement (Section 4.4).
  void FirstTouchFor(uint64_t total, uint32_t split_size,
                     const RangeBody& body) override;

  // Runs `fn(worker_id)` exactly once on every worker thread.
  void RunOnWorkers(const std::function<void(int worker_id)>& fn);

  // Installs a deterministic schedule perturbation for subsequent
  // ParallelFor loops (null restores the default schedule). Testing-only
  // (see steal_policy.h): must be called from the coordinating thread
  // between loops.
  void SetStealPolicy(const StealPolicy* policy) {
    queues_.SetStealPolicy(policy);
  }
  const StealPolicy* steal_policy() const { return queues_.steal_policy(); }

  // Cumulative scheduling counters since construction (or the last
  // ResetSchedulerStats). "Local" tasks were fetched from the worker's
  // own queue, "stolen" from another worker's. The paper's claim that
  // with balanced queues most tasks stay with their original workers is
  // directly observable here (see bench/sched_steals). While a trace
  // session is active the same counts are also recorded per loop as
  // "sched.worker_loop" trace spans, one per worker per ParallelFor.
  struct SchedulerStats {
    uint64_t local_tasks = 0;
    uint64_t stolen_tasks = 0;

    double StealFraction() const {
      uint64_t total = local_tasks + stolen_tasks;
      return total == 0 ? 0.0
                        : static_cast<double>(stolen_tasks) / total;
    }
  };

  SchedulerStats scheduler_stats() const {
    return {local_tasks_.load(std::memory_order_relaxed),
            stolen_tasks_.load(std::memory_order_relaxed)};
  }

  void ResetSchedulerStats() {
    local_tasks_.store(0, std::memory_order_relaxed);
    stolen_tasks_.store(0, std::memory_order_relaxed);
  }

  // Liveness signal for the stall watchdog. Each worker owns a
  // cache-line-private epoch bumped on every task fetch in the
  // work-stealing loop and once at each job start, plus a busy flag
  // spanning the job. A busy worker whose epoch is frozen is stuck
  // inside one task body.
  struct WorkerHeartbeat {
    int worker_id = -1;
    uint64_t epoch = 0;
    bool busy = false;
  };
  std::vector<WorkerHeartbeat> HeartbeatSamples() const;

 private:
  void WorkerMain(int worker_id, int cpu);
  void Dispatch(const std::function<void(int)>& job);

  int num_workers_;
  int num_nodes_ = 1;
  std::vector<int> worker_nodes_;
  std::vector<std::thread> threads_;
  TaskQueues queues_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t epoch_ = 0;
  int active_ = 0;
  bool stopping_ = false;
  const std::function<void(int)>* job_ = nullptr;

  std::atomic<uint64_t> local_tasks_{0};
  std::atomic<uint64_t> stolen_tasks_{0};

  // One cache line per worker: the owning worker writes relaxed, the
  // watchdog poll thread reads relaxed; no line is shared.
  struct alignas(kCacheLineSize) Heartbeat {
    std::atomic<uint64_t> epoch{0};
    std::atomic<bool> busy{false};
  };
  std::unique_ptr<Heartbeat[]> heartbeats_;
};

// Executor adapter that runs loops on a pool with static partitioning
// instead of work stealing (Figures 6/7).
class StaticExecutor : public Executor {
 public:
  explicit StaticExecutor(WorkerPool* pool) : pool_(pool) {}

  int num_workers() const override { return pool_->num_workers(); }
  int NodeOfWorker(int worker_id) const override {
    return pool_->NodeOfWorker(worker_id);
  }

  void ParallelFor(uint64_t total, uint32_t /*split_size*/,
                   const RangeBody& body) override {
    pool_->ParallelForStatic(total, body);
  }

 private:
  WorkerPool* pool_;
};

}  // namespace pbfs

#endif  // PBFS_SCHED_WORKER_POOL_H_
