#include "graph/maintenance_loop.h"

#include <chrono>
#include <memory>
#include <utility>

#include "obs/trace.h"
#include "sched/worker_pool.h"
#include "util/timer.h"

namespace pbfs {

MaintenanceLoop::MaintenanceLoop(const char* label, int workers,
                                 double debug_delay_ms, Step step)
    : label_(label),
      workers_(workers),
      debug_delay_ms_(debug_delay_ms),
      step_(std::move(step)) {}

MaintenanceLoop::~MaintenanceLoop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MaintenanceLoop::Notify() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    notified_ = true;
    if (!thread_.joinable()) {
      if (workers_ > 1) {
        executor_ = std::make_unique<WorkerPool>(WorkerPool::Options{
            .num_workers = workers_, .pin_threads = false});
      } else {
        executor_ = std::make_unique<SerialExecutor>();
      }
      thread_ = std::thread([this] { Main(); });
    }
  }
  work_cv_.notify_one();
}

void MaintenanceLoop::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return !busy_ && !notified_; });
}

void MaintenanceLoop::DebugDelay() {
  if (debug_delay_ms_ <= 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.wait_for(lock,
                    std::chrono::duration<double, std::milli>(debug_delay_ms_),
                    [this] { return stop_; });
}

MaintenanceLoop::Stats MaintenanceLoop::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void MaintenanceLoop::Main() {
  obs::Tracer::SetThreadLabel(label_, -1);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || notified_; });
    if (stop_) return;
    // notified_ clears and busy_ sets under one lock hold, so WaitIdle
    // can never observe the gap between them.
    notified_ = false;
    busy_ = true;
    // Keep stepping until the step finds nothing to do; work published
    // mid-step is picked up by the next step.
    while (!stop_) {
      lock.unlock();
      Timer timer;
      const bool ran = step_(executor_.get());
      const double ms = timer.ElapsedMillis();
      lock.lock();
      if (!ran) break;
      ++stats_.runs;
      stats_.last_ms = ms;
      stats_.total_ms += ms;
    }
    busy_ = false;
    idle_cv_.notify_all();
  }
}

}  // namespace pbfs
