#include "server/admission.h"

#include "util/check.h"

namespace pbfs {
namespace server {

const char* AdmitResultName(AdmitResult result) {
  switch (result) {
    case AdmitResult::kAdmitted:
      return "admitted";
    case AdmitResult::kShedQueueFull:
      return "shed_queue_full";
    case AdmitResult::kShedDeadline:
      return "shed_deadline";
  }
  return "unknown";
}

AdmissionController::AdmissionController(const Options& options)
    : options_([&options] {
        Options o = options;
        if (!o.now_ns) o.now_ns = [] { return NowNanos(); };
        return o;
      }()),
      cost_ewma_ms_(options.initial_cost_ms) {}

double AdmissionController::WaitMsLocked(int priority,
                                         size_t downstream_inflight) const {
  size_t ahead = downstream_inflight;
  for (int p = 0; p <= priority; ++p) ahead += queues_[p].size();
  return static_cast<double>(ahead + 1) * cost_ewma_ms_;
}

double AdmissionController::EstimatedWaitMs(
    Priority priority, size_t downstream_inflight) const {
  std::lock_guard<std::mutex> lock(mu_);
  return WaitMsLocked(static_cast<int>(priority), downstream_inflight);
}

AdmitResult AdmissionController::Offer(Query query,
                                       size_t downstream_inflight) {
  const int priority = query.trace.priority;
  PBFS_CHECK(priority < kNumPriorities);
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_ || depth_ >= options_.max_queue) {
    ++stats_.shed_queue_full;
    return AdmitResult::kShedQueueFull;
  }
  if (query.deadline_ns != 0) {
    const double remaining_ms =
        static_cast<double>(query.deadline_ns - options_.now_ns()) * 1e-6;
    if (WaitMsLocked(priority, downstream_inflight) > remaining_ms) {
      ++stats_.shed_deadline;
      return AdmitResult::kShedDeadline;
    }
  }
  queues_[priority].push_back(std::move(query));
  ++depth_;
  ++stats_.admitted;
  cv_.notify_one();
  return AdmitResult::kAdmitted;
}

bool AdmissionController::TakeLocked(Query* out, bool* expired) {
  for (auto& queue : queues_) {
    if (queue.empty()) continue;
    *out = std::move(queue.front());
    queue.pop_front();
    --depth_;
    *expired = out->deadline_ns != 0 && options_.now_ns() >= out->deadline_ns;
    if (*expired) ++stats_.expired_in_queue;
    return true;
  }
  return false;
}

bool AdmissionController::Take(Query* out, bool* expired) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return stopped_ || depth_ > 0; });
  if (stopped_) return false;
  return TakeLocked(out, expired);
}

bool AdmissionController::TryTake(Query* out, bool* expired) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopped_) return false;
  return TakeLocked(out, expired);
}

void AdmissionController::OnServiced(double service_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  cost_ewma_ms_ = (1.0 - options_.ewma_alpha) * cost_ewma_ms_ +
                  options_.ewma_alpha * service_ms;
}

void AdmissionController::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  stopped_ = true;
  cv_.notify_all();
}

AdmissionController::Stats AdmissionController::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.depth = depth_;
  s.cost_ewma_ms = cost_ewma_ms_;
  return s;
}

}  // namespace server
}  // namespace pbfs
