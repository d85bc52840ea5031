// Priority + deadline-aware admission control in front of
// QueryEngine::Submit.
//
// The server never queues unboundedly: `Offer` either admits a ticket
// into a bounded three-priority queue or sheds it immediately with a
// reason the caller turns into a QueryStatus::kShed response.
//
// Two shed conditions:
//
//   kShedQueueFull — the queue holds max_queue tickets across all
//     priorities. Under sustained overload this is the steady state:
//     the queue depth (and therefore accepted-query latency) stays
//     bounded while excess load is rejected in O(1).
//
//   kShedDeadline — the query carries a deadline and the *estimated*
//     wait already exceeds it. The estimate is a scalar cost model:
//     (tickets queued at the same or higher priority + queries already
//     submitted downstream + 1) × an EWMA of recent per-query service
//     time (fed by OnServiced). Shedding at admission is strictly
//     better than letting the engine discover the missed deadline
//     after queueing: the client learns immediately and the slot goes
//     to a query that can still make it.
//
// Deadlines are also re-checked at dequeue (`Take` sets *expired*):
// the estimate is an estimate, and a ticket whose deadline passed
// while queued must not burn engine time.
//
// The clock is injectable (`Options::now_ns`) so deadline expiry is
// unit-tested with a fake clock and zero sleeps, following the
// StallWatchdog pattern. Thread-safe; Take blocks until a ticket or
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

// One admitted unit of work, carried from Offer to Take.
struct AdmissionTicket {
  uint64_t session_id = 0;
  uint64_t request_id = 0;
  Priority priority = Priority::kNormal;
  QueryType type = QueryType::kLevels;
  int64_t deadline_ns = 0;  // absolute (NowNanos domain); 0 = none
  // Ready to Submit (deadline_ns already set); query.trace holds the
  // frame-receipt stamp the latency accounting reads.
  Query query;
};

class AdmissionController {
 public:
  struct Options {
    // Total tickets across all three priorities.
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
    size_t depth = 0;               // current queued tickets
    double cost_ewma_ms = 0;        // current service-cost estimate
  };

  explicit AdmissionController(const Options& options);

  // Estimated queueing delay for a new ticket at `priority`, given
  // `downstream_inflight` queries already submitted to the engine.
  double EstimatedWaitMs(Priority priority, size_t downstream_inflight) const;

  // Admit or shed. On kAdmitted the ticket is queued and a blocked
  // Take is woken; otherwise the ticket is dropped and counted.
  AdmitResult Offer(AdmissionTicket ticket, size_t downstream_inflight);

  // Blocks for the highest-priority ticket (FIFO within a priority).
  // Returns false after Stop() (queued tickets are then abandoned —
  // their sessions are closing). *expired is set when the ticket's
  // deadline passed while it queued; the caller must answer
  // kDeadlineExceeded without submitting.
  bool Take(AdmissionTicket* out, bool* expired);
  // Non-blocking Take, for fake-clock tests.
  bool TryTake(AdmissionTicket* out, bool* expired);

  // Feed one completed query's service time into the EWMA cost model.
  void OnServiced(double service_ms);

  // After Stop(): Offer sheds everything and Take returns false.
  void Stop();

  Stats GetStats() const;

 private:
  bool TakeLocked(AdmissionTicket* out, bool* expired);

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<AdmissionTicket> queues_[kNumPriorities];
  size_t depth_ = 0;
  double cost_ewma_ms_;
  Stats stats_;
  bool stopped_ = false;
};

}  // namespace server
}  // namespace pbfs

#endif  // PBFS_SERVER_ADMISSION_H_
