// Deterministic schedule-perturbation hooks for the work-stealing
// scheduler.
//
// The paper's correctness claim — (S)MS-PBFS computes exactly the levels
// of its sequential counterparts regardless of how tasks interleave —
// is only testable if tests can *force* the interleavings that occur
// rarely under natural timing: every task stolen, one worker starved
// while the others drain its queue, queues visited in reverse. A
// StealPolicy injected into TaskQueues/WorkerPool overrides the probe
// order of TaskQueues::Fetch (and may stagger workers at loop start), so
// the differential suite can replay those pathological schedules
// deterministically.
//
// The hooks are always compiled in and gated at run time: with no policy
// installed (the default) Fetch pays one null-pointer check per call.
#ifndef PBFS_SCHED_STEAL_POLICY_H_
#define PBFS_SCHED_STEAL_POLICY_H_

#include <string>
#include <thread>
#include <vector>

namespace pbfs {

// Overrides how a worker scans the task queues. All methods must be
// thread-safe (they are called concurrently from every worker) and
// deterministic functions of their arguments, so a perturbed schedule
// replays identically run-to-run.
class StealPolicy {
 public:
  virtual ~StealPolicy() = default;

  // Offset of the queue probed at position `probe` (0 .. num_workers-1)
  // of one Fetch scan; the queue actually probed is
  // (worker_id + offset) % num_workers. For any fixed (worker_id,
  // steal_cursor) the offsets over probe = 0..num_workers-1 MUST form a
  // permutation of [0, num_workers): Fetch declares the loop drained
  // only after one full scan, so a repeated offset would skip a queue
  // and lose tasks.
  virtual int ProbeOffset(int worker_id, int probe, int num_workers,
                          int steal_cursor) const = 0;

  // Called once at the top of every Fetch; may yield to skew timing.
  virtual void OnFetch(int /*worker_id*/, int /*num_workers*/) const {}

  // Called once per worker when a ParallelFor loop starts, before the
  // first Fetch; may yield to delay a worker's entry into the loop.
  virtual void OnLoopStart(int /*worker_id*/, int /*num_workers*/) const {}
};

// Every worker probes all *other* queues before its own (offset
// sequence 1, 2, ..., W-1, 0), so with more than one worker nearly every
// task is a steal. Maximizes CAS/bitset write contention between
// workers that the default owner-first order avoids.
class StealHeavyPolicy : public StealPolicy {
 public:
  int ProbeOffset(int /*worker_id*/, int probe, int num_workers,
                  int /*steal_cursor*/) const override {
    return (probe + 1) % num_workers;
  }
};

// Probes queues in descending global index order (W-1, W-2, ..., 0)
// regardless of the worker's own id, inverting the round-robin dealing
// direction of Reset.
class ReversedOrderPolicy : public StealPolicy {
 public:
  int ProbeOffset(int worker_id, int probe, int num_workers,
                  int /*steal_cursor*/) const override {
    int target = num_workers - 1 - probe;
    return (target - worker_id % num_workers + num_workers) % num_workers;
  }
};

// Starves one victim worker: the victim yields repeatedly before
// entering each loop and before each fetch, and visits its own queue
// last; every other worker raids the victim's queue first. The victim's
// entire queue is typically consumed by thieves before it fetches
// anything — the "single-task-starvation" interleaving.
class StarvationPolicy : public StealPolicy {
 public:
  explicit StarvationPolicy(int victim, int victim_yields = 64)
      : victim_(victim), victim_yields_(victim_yields) {}

  int ProbeOffset(int worker_id, int probe, int num_workers,
                  int /*steal_cursor*/) const override {
    const int victim = victim_ % num_workers;
    if (worker_id == victim) {
      // Own queue last: 1, 2, ..., W-1, 0.
      return (probe + 1) % num_workers;
    }
    const int victim_offset = (victim - worker_id + num_workers) % num_workers;
    if (probe == 0) return victim_offset;
    // Remaining probes: offsets 0..W-1 except victim_offset, in order.
    int offset = probe - 1;
    if (offset >= victim_offset) ++offset;
    return offset % num_workers;
  }

  void OnFetch(int worker_id, int num_workers) const override {
    if (worker_id == victim_ % num_workers) Yield();
  }

  void OnLoopStart(int worker_id, int num_workers) const override {
    if (worker_id == victim_ % num_workers) Yield();
  }

 private:
  void Yield() const {
    for (int i = 0; i < victim_yields_; ++i) std::this_thread::yield();
  }

  int victim_;
  int victim_yields_;
};

// A named perturbation schedule, for uniform test enumeration.
struct NamedStealPolicy {
  std::string name;
  const StealPolicy* policy;
};

// The canonical perturbation schedules exercised by the sched suite:
// steal_heavy, starvation (victim 0), reversed. Pointers are to
// function-local statics and remain valid for the process lifetime.
inline const std::vector<NamedStealPolicy>& PerturbationSchedules() {
  static const StealHeavyPolicy steal_heavy;
  static const StarvationPolicy starvation(0);
  static const ReversedOrderPolicy reversed;
  static const std::vector<NamedStealPolicy> schedules = {
      {"steal_heavy", &steal_heavy},
      {"starvation", &starvation},
      {"reversed", &reversed},
  };
  return schedules;
}

}  // namespace pbfs

#endif  // PBFS_SCHED_STEAL_POLICY_H_
