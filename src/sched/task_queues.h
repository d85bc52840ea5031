// Work-stealing task queues — Listings 5 and 6 of the paper.
//
// All parallel loops in (S)MS-PBFS execute an operation for every vertex
// in the graph, so tasks are fixed-size ranges over [0, total). Tasks
// are dealt round-robin to per-worker queues (CreateTasks / Reset);
// workers drain their own queue with a single atomic fetch-add per task
// and steal from the other queues in order once their own is empty
// (FetchTask / Fetch). A per-worker cursor remembers where the last task
// was found so each queue is skipped at most once per loop.
//
// Because worker w's k-th task is simply global task k * num_workers + w,
// the queues never materialize task lists; a queue is just an atomic
// index plus a count, each on its own cache line.
#ifndef PBFS_SCHED_TASK_QUEUES_H_
#define PBFS_SCHED_TASK_QUEUES_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "sched/steal_policy.h"
#include "util/aligned_buffer.h"
#include "util/check.h"

namespace pbfs {

// A half-open vertex range [begin, end).
struct TaskRange {
  uint64_t begin = 0;
  uint64_t end = 0;

  bool empty() const { return begin >= end; }
  uint64_t size() const { return end - begin; }
};

class TaskQueues {
 public:
  explicit TaskQueues(int num_workers) : queues_(num_workers) {
    PBFS_CHECK(num_workers > 0);
  }

  TaskQueues(const TaskQueues&) = delete;
  TaskQueues& operator=(const TaskQueues&) = delete;

  // CreateTasks (Listing 5): splits [0, total) into ceil(total/split_size)
  // tasks and deals them round-robin to the worker queues. A zero-vertex
  // loop (total == 0) is valid and fully reinitializes the queues, so no
  // task count or split size from a previous loop survives into later
  // Fetch calls.
  void Reset(uint64_t total, uint32_t split_size) {
    PBFS_CHECK(split_size > 0);
    total_ = total;
    split_size_ = split_size;
    num_tasks_ = (total + split_size - 1) / split_size;
    const uint64_t workers = queues_.size();
    for (uint64_t w = 0; w < workers; ++w) {
      queues_[w].next_index.store(0, std::memory_order_relaxed);
      // Tasks w, w + W, w + 2W, ...
      queues_[w].num_tasks =
          num_tasks_ > w ? (num_tasks_ - w + workers - 1) / workers : 0;
    }
  }

  int num_workers() const { return static_cast<int>(queues_.size()); }
  uint64_t num_tasks() const { return num_tasks_; }
  uint32_t split_size() const { return split_size_; }

  // Installs a schedule perturbation (null restores the default probe
  // order). Testing-only: must be called between loops, never while
  // workers are fetching (see steal_policy.h).
  void SetStealPolicy(const StealPolicy* policy) { policy_ = policy; }
  const StealPolicy* steal_policy() const { return policy_; }

  // FetchTask (Listing 6). `steal_cursor` is worker-local scan state (the
  // offset where the previous task was found); initialize to 0 before
  // each parallel loop. Returns an empty range when all queues are
  // drained.
  TaskRange Fetch(int worker_id, int* steal_cursor) {
    const int workers = num_workers();
    PBFS_DCHECK(worker_id >= 0 && worker_id < workers);
    // Nothing dealt (zero-vertex loop, or Reset never called): return
    // empty without scanning queue state left over from earlier loops.
    if (num_tasks_ == 0) return {};
    const StealPolicy* policy = policy_;
    if (policy != nullptr) policy->OnFetch(worker_id, workers);
    for (int probe = 0; probe < workers; ++probe) {
      int offset;
      if (policy != nullptr) {
        offset = policy->ProbeOffset(worker_id, probe, workers,
                                     *steal_cursor);
        PBFS_DCHECK(offset >= 0 && offset < workers);
      } else {
        offset = (*steal_cursor + probe) % workers;
      }
      int i = (worker_id + offset) % workers;
      Queue& q = queues_[i];
      // Read before fetch-add so drained queues cost no atomic write
      // (and no cache-line invalidation for workers still using them).
      if (q.next_index.load(std::memory_order_relaxed) >= q.num_tasks) {
        continue;
      }
      uint64_t k = q.next_index.fetch_add(1, std::memory_order_relaxed);
      if (k >= q.num_tasks) continue;
      *steal_cursor = offset;
      uint64_t task = k * workers + static_cast<uint64_t>(i);
      uint64_t begin = task * split_size_;
      uint64_t end = begin + split_size_;
      if (end > total_) end = total_;
      return {begin, end};
    }
    return {};
  }

 private:
  struct alignas(kCacheLineSize) Queue {
    std::atomic<uint64_t> next_index{0};
    uint64_t num_tasks = 0;
  };

  std::vector<Queue> queues_;
  uint64_t total_ = 0;
  uint64_t num_tasks_ = 0;
  uint32_t split_size_ = 1;
  const StealPolicy* policy_ = nullptr;
};

}  // namespace pbfs

#endif  // PBFS_SCHED_TASK_QUEUES_H_
