// Priority + deadline-aware admission control in front of
// QueryEngine::Submit.
//
// The server never queues unboundedly: `Offer` either admits a query
// into a bounded three-priority queue or sheds it immediately with a
// reason the caller turns into a QueryStatus::kShed response. A query
// carries its own identity: the priority is query.trace.priority and
// the deadline query.deadline_ns.
//
// Two shed conditions:
//
//   kShedQueueFull — the queue holds max_queue queries across all
//     priorities. Under sustained overload this is the steady state:
//     the queue depth (and therefore accepted-query latency) stays
//     bounded while excess load is rejected in O(1).
//
//   kShedDeadline — the query carries a deadline and the *estimated*
//     wait already exceeds it. The estimate is a scalar cost model:
//     (queries queued at the same or higher priority + queries already
//     submitted downstream + 1) × an EWMA of recent per-query service
//     time (fed by OnServiced). Shedding at admission is strictly
//     better than letting the engine discover the missed deadline
//     after queueing: the client learns immediately and the slot goes
//     to a query that can still make it.
//
// Deadlines are also re-checked at dequeue (`Take` sets *expired*):
// the estimate is an estimate, and a query whose deadline passed
// while queued must not burn engine time.
//
// The clock is injectable (`Options::now_ns`) so deadline expiry is
// unit-tested with a fake clock and zero sleeps, following the
// StallWatchdog pattern. Thread-safe; Take blocks until a query or
// Stop().
#ifndef PBFS_SERVER_ADMISSION_H_
#define PBFS_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "engine/query.h"
#include "server/protocol.h"
#include "util/timer.h"

namespace pbfs {
namespace server {

enum class AdmitResult : uint8_t {
  kAdmitted,
  kShedQueueFull,
  kShedDeadline,
};
const char* AdmitResultName(AdmitResult result);

class AdmissionController {
 public:
  struct Options {
    // Total queued queries across all three priorities.
    size_t max_queue = 1024;
    // EWMA smoothing for the per-query service-cost model.
    double ewma_alpha = 0.2;
    // Cost assumed before the first OnServiced sample.
    double initial_cost_ms = 2.0;
    // Injectable monotonic clock; defaults to NowNanos.
    std::function<int64_t()> now_ns;
  };

  struct Stats {
    uint64_t admitted = 0;
    uint64_t shed_queue_full = 0;
    uint64_t shed_deadline = 0;
    uint64_t expired_in_queue = 0;  // deadline passed between Offer and Take
    size_t depth = 0;               // current queued queries
    double cost_ewma_ms = 0;        // current service-cost estimate
  };

  explicit AdmissionController(const Options& options);

  // Estimated queueing delay for a new query at `priority`, given
  // `downstream_inflight` queries already submitted to the engine.
  double EstimatedWaitMs(Priority priority, size_t downstream_inflight) const;

  // Admit or shed. On kAdmitted the query is queued and a blocked
  // Take is woken; otherwise the query is dropped and counted.
  AdmitResult Offer(Query query, size_t downstream_inflight);

  // Blocks for the highest-priority query (FIFO within a priority).
  // Returns false after Stop() (queued queries are then abandoned —
  // their sessions are closing). *expired is set when the query's
  // deadline passed while it queued; the caller must answer
  // kDeadlineExceeded without submitting.
  bool Take(Query* out, bool* expired);
  // Non-blocking Take, for fake-clock tests.
  bool TryTake(Query* out, bool* expired);

  // Feed one completed query's service time into the EWMA cost model.
  void OnServiced(double service_ms);

  // After Stop(): Offer sheds everything and Take returns false.
  void Stop();

  Stats GetStats() const;

 private:
  // The cost model: (queued at `priority` or above + downstream + 1)
  // x the service-cost EWMA.
  double WaitMsLocked(int priority, size_t downstream_inflight) const;
  bool TakeLocked(Query* out, bool* expired);

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Query> queues_[kNumPriorities];
  size_t depth_ = 0;
  double cost_ewma_ms_;
  Stats stats_;
  bool stopped_ = false;
};

}  // namespace server
}  // namespace pbfs

#endif  // PBFS_SERVER_ADMISSION_H_
