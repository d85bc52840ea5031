// The background-maintenance loop (graph/maintenance_loop.h) that the
// compactor and the sketch rebuilder both run on: lazy start, the
// notify/idle protocol, per-cycle accounting, and teardown while a
// cycle is in flight. Carries the "dynamic" label, so both sanitizer
// legs run it.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "graph/maintenance_loop.h"

namespace pbfs {
namespace {

// Threads of this process, from /proc/self/task.
size_t ThreadCount() {
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(MaintenanceLoopTest, WaitIdleBeforeAnyNotifyStartsNoThread) {
  const size_t threads_before = ThreadCount();
  std::atomic<int> calls{0};
  MaintenanceLoop loop("test-loop", /*workers=*/2, /*debug_delay_ms=*/0,
                       [&](Executor*) {
                         ++calls;
                         return false;
                       });
  loop.WaitIdle();
  EXPECT_EQ(ThreadCount(), threads_before);
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(loop.GetStats().runs, 0u);
}

TEST(MaintenanceLoopTest, StepRunsOnPrivateExecutorOfRequestedWidth) {
  for (const int workers : {0, 1, 3}) {
    SCOPED_TRACE(workers);
    std::atomic<int> seen_workers{-1};
    MaintenanceLoop loop("test-loop", workers, /*debug_delay_ms=*/0,
                         [&](Executor* executor) {
                           seen_workers = executor->num_workers();
                           return false;
                         });
    loop.Notify();
    loop.WaitIdle();
    EXPECT_EQ(seen_workers.load(), workers > 1 ? workers : 1);
  }
}

// Steps until the step returns false; only steps that returned true
// count as runs.
TEST(MaintenanceLoopTest, WaitIdleReturnsOnlyAfterAStepReturnedFalse) {
  std::atomic<int> calls{0};
  std::atomic<bool> last_result{true};
  MaintenanceLoop loop("test-loop", /*workers=*/1, /*debug_delay_ms=*/0,
                       [&](Executor*) {
                         const bool more = ++calls <= 3;
                         if (more) {
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(2));
                         }
                         last_result = more;
                         return more;
                       });
  loop.Notify();
  loop.WaitIdle();
  EXPECT_EQ(calls.load(), 4);
  EXPECT_FALSE(last_result.load());
  const MaintenanceLoop::Stats stats = loop.GetStats();
  EXPECT_EQ(stats.runs, 3u);
  EXPECT_GT(stats.total_ms, 0);
  EXPECT_LE(stats.last_ms, stats.total_ms);
}

TEST(MaintenanceLoopTest, StepThatFindsNothingCountsNoRun) {
  std::atomic<int> calls{0};
  MaintenanceLoop loop("test-loop", /*workers=*/1, /*debug_delay_ms=*/0,
                       [&](Executor*) {
                         ++calls;
                         return false;
                       });
  loop.Notify();
  loop.WaitIdle();
  EXPECT_EQ(calls.load(), 1);
  const MaintenanceLoop::Stats stats = loop.GetStats();
  EXPECT_EQ(stats.runs, 0u);
  EXPECT_EQ(stats.total_ms, 0);
}

// Notifications arriving while a step is in flight coalesce: the cycle
// in flight steps on until its step returns false, and at most one
// more cycle follows for all of them together.
TEST(MaintenanceLoopTest, NotifiesDuringAStepCoalesceIntoOneMoreCycle) {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> calls{0};
  std::atomic<bool> last_result{true};
  MaintenanceLoop loop("test-loop", /*workers=*/1, /*debug_delay_ms=*/0,
                       [&](Executor*) {
                         const int call = ++calls;
                         if (call == 1) {
                           entered.set_value();
                           released.wait();
                         }
                         last_result = call == 1;
                         return call == 1;
                       });
  loop.Notify();
  entered.get_future().wait();
  for (int i = 0; i < 5; ++i) loop.Notify();
  release.set_value();
  loop.WaitIdle();
  // One call that found work, one that found none, and at most one
  // more cycle (one call) for the five notifications.
  EXPECT_GE(calls.load(), 2);
  EXPECT_LE(calls.load(), 3);
  EXPECT_FALSE(last_result.load());
  EXPECT_EQ(loop.GetStats().runs, 1u);
}

// DebugDelay() waits inside the step, so the delay counts toward the
// step's time.
TEST(MaintenanceLoopTest, DebugDelayRunsInsideTheStep) {
  MaintenanceLoop* self = nullptr;
  std::atomic<int> calls{0};
  auto loop = std::make_unique<MaintenanceLoop>(
      "test-loop", /*workers=*/1, /*debug_delay_ms=*/30, [&](Executor*) {
        if (++calls > 1) return false;
        self->DebugDelay();
        return true;
      });
  self = loop.get();
  loop->Notify();
  loop->WaitIdle();
  EXPECT_EQ(calls.load(), 2);
  const MaintenanceLoop::Stats stats = loop->GetStats();
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_GE(stats.last_ms, 30);
}

// The destructor cuts a DebugDelay() in progress short instead of
// sleeping it out; the delayed step then runs to its end and no
// further step starts.
TEST(MaintenanceLoopTest, DestroyDuringDelayedStepJoins) {
  MaintenanceLoop* self = nullptr;
  std::promise<void> entered;
  std::atomic<int> calls{0};
  std::atomic<int> finished{0};
  auto loop = std::make_unique<MaintenanceLoop>(
      "test-loop", /*workers=*/2, /*debug_delay_ms=*/60'000,
      [&](Executor*) {
        if (++calls == 1) entered.set_value();
        self->DebugDelay();
        ++finished;
        return true;
      });
  self = loop.get();
  const auto start = std::chrono::steady_clock::now();
  loop->Notify();
  entered.get_future().wait();
  loop.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(30));
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(finished.load(), 1);
}

// A step that always finds more work would keep the loop busy forever;
// the destructor still returns once the step in flight finishes.
TEST(MaintenanceLoopTest, DestroyStopsAfterTheStepInFlight) {
  std::promise<void> entered;
  std::atomic<int> calls{0};
  auto loop = std::make_unique<MaintenanceLoop>(
      "test-loop", /*workers=*/2, /*debug_delay_ms=*/0, [&](Executor*) {
        if (++calls == 1) entered.set_value();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return true;
      });
  loop->Notify();
  entered.get_future().wait();
  loop.reset();
  const int calls_at_join = calls.load();
  EXPECT_GE(calls_at_join, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(calls.load(), calls_at_join);
}

}  // namespace
}  // namespace pbfs
