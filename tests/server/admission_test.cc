// Admission-controller suite: priority ordering, bounded-queue
// shedding, deadline-aware shedding driven by the EWMA cost model, and
// deadline expiry between Offer and Take — all on an injected fake
// clock (AdmissionController::Options::now_ns), zero sleeps. Queries
// carry their own priority (trace.priority) and deadline.

#include <gtest/gtest.h>

#include "server/admission.h"

namespace pbfs {
namespace server {
namespace {

constexpr int64_t kMs = 1000000;

Query Ticket(uint64_t id, Priority priority, int64_t deadline_ns = 0) {
  Query q;
  q.trace.request_id = id;
  q.trace.priority = static_cast<uint8_t>(priority);
  q.deadline_ns = deadline_ns;
  return q;
}

TEST(AdmissionTest, PriorityOrderThenFifoWithinPriority) {
  AdmissionController adm({.max_queue = 16});
  ASSERT_EQ(adm.Offer(Ticket(1, Priority::kLow), 0), AdmitResult::kAdmitted);
  ASSERT_EQ(adm.Offer(Ticket(2, Priority::kNormal), 0),
            AdmitResult::kAdmitted);
  ASSERT_EQ(adm.Offer(Ticket(3, Priority::kHigh), 0),
            AdmitResult::kAdmitted);
  ASSERT_EQ(adm.Offer(Ticket(4, Priority::kNormal), 0),
            AdmitResult::kAdmitted);
  Query t;
  bool expired = false;
  uint64_t expect[] = {3, 2, 4, 1};
  for (uint64_t id : expect) {
    ASSERT_TRUE(adm.TryTake(&t, &expired));
    EXPECT_EQ(t.trace.request_id, id);
    EXPECT_FALSE(expired);
  }
  EXPECT_FALSE(adm.TryTake(&t, &expired));
  EXPECT_EQ(adm.GetStats().admitted, 4u);
}

TEST(AdmissionTest, BoundedQueueShedsWhenFull) {
  AdmissionController adm({.max_queue = 2});
  EXPECT_EQ(adm.Offer(Ticket(1, Priority::kHigh), 0),
            AdmitResult::kAdmitted);
  EXPECT_EQ(adm.Offer(Ticket(2, Priority::kLow), 0), AdmitResult::kAdmitted);
  // Full across priorities: even high priority sheds.
  EXPECT_EQ(adm.Offer(Ticket(3, Priority::kHigh), 0),
            AdmitResult::kShedQueueFull);
  const AdmissionController::Stats s = adm.GetStats();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.shed_queue_full, 1u);
  EXPECT_EQ(s.depth, 2u);
}

TEST(AdmissionTest, DeadlineShedsWhenEstimatedWaitExceedsIt) {
  int64_t fake_now = 0;
  AdmissionController::Options o;
  o.max_queue = 64;
  o.initial_cost_ms = 10;
  o.now_ns = [&fake_now] { return fake_now; };
  AdmissionController adm(o);

  // One ticket queued ahead at the same priority: estimated wait for a
  // newcomer is (1 ahead + itself) * 10ms = 20ms.
  ASSERT_EQ(adm.Offer(Ticket(1, Priority::kNormal), 0),
            AdmitResult::kAdmitted);
  EXPECT_DOUBLE_EQ(adm.EstimatedWaitMs(Priority::kNormal, 0), 20.0);
  // 15ms of budget < 20ms estimate: shed at admission.
  EXPECT_EQ(adm.Offer(Ticket(2, Priority::kNormal, fake_now + 15 * kMs), 0),
            AdmitResult::kShedDeadline);
  // 25ms of budget: admitted.
  EXPECT_EQ(adm.Offer(Ticket(3, Priority::kNormal, fake_now + 25 * kMs), 0),
            AdmitResult::kAdmitted);
  // Higher priority ignores the normal-priority queue ahead of it...
  EXPECT_DOUBLE_EQ(adm.EstimatedWaitMs(Priority::kHigh, 0), 10.0);
  EXPECT_EQ(adm.Offer(Ticket(4, Priority::kHigh, fake_now + 15 * kMs), 0),
            AdmitResult::kAdmitted);
  // ...while downstream inflight counts against everyone.
  EXPECT_EQ(adm.Offer(Ticket(5, Priority::kHigh, fake_now + 15 * kMs), 3),
            AdmitResult::kShedDeadline);
  const AdmissionController::Stats s = adm.GetStats();
  EXPECT_EQ(s.shed_deadline, 2u);
  EXPECT_EQ(s.admitted, 3u);
}

TEST(AdmissionTest, EwmaCostModelTracksServiceTimeAndDrivesShedding) {
  int64_t fake_now = 0;
  AdmissionController::Options o;
  o.initial_cost_ms = 1;
  o.ewma_alpha = 0.5;
  o.now_ns = [&fake_now] { return fake_now; };
  AdmissionController adm(o);

  // 50ms of budget clears a 1ms cost estimate easily.
  EXPECT_EQ(adm.Offer(Ticket(1, Priority::kNormal, fake_now + 50 * kMs), 0),
            AdmitResult::kAdmitted);
  // Slow traffic observed: EWMA climbs toward 100ms.
  for (int i = 0; i < 8; ++i) adm.OnServiced(100.0);
  const double cost = adm.GetStats().cost_ewma_ms;
  EXPECT_GT(cost, 90.0);
  EXPECT_LE(cost, 100.0);
  // The same 50ms budget now sheds: one queued ahead + itself at
  // ~100ms each is far over budget.
  EXPECT_EQ(adm.Offer(Ticket(2, Priority::kNormal, fake_now + 50 * kMs), 0),
            AdmitResult::kShedDeadline);
  // Fast traffic pulls it back down.
  for (int i = 0; i < 16; ++i) adm.OnServiced(1.0);
  EXPECT_LT(adm.GetStats().cost_ewma_ms, 2.0);
}

TEST(AdmissionTest, DeadlineExpiryBetweenOfferAndTake) {
  int64_t fake_now = 0;
  AdmissionController::Options o;
  o.initial_cost_ms = 1;
  o.now_ns = [&fake_now] { return fake_now; };
  AdmissionController adm(o);

  ASSERT_EQ(adm.Offer(Ticket(1, Priority::kNormal, 5 * kMs), 0),
            AdmitResult::kAdmitted);
  ASSERT_EQ(adm.Offer(Ticket(2, Priority::kNormal, 500 * kMs), 0),
            AdmitResult::kAdmitted);
  // Time passes while the tickets queue.
  fake_now = 10 * kMs;
  Query t;
  bool expired = false;
  ASSERT_TRUE(adm.TryTake(&t, &expired));
  EXPECT_EQ(t.trace.request_id, 1u);
  EXPECT_TRUE(expired);  // 5ms deadline passed at 10ms
  ASSERT_TRUE(adm.TryTake(&t, &expired));
  EXPECT_EQ(t.trace.request_id, 2u);
  EXPECT_FALSE(expired);
  EXPECT_EQ(adm.GetStats().expired_in_queue, 1u);
}

TEST(AdmissionTest, StopUnblocksTakeAndShedsOffers) {
  AdmissionController adm({});
  adm.Stop();
  Query t;
  bool expired = false;
  EXPECT_FALSE(adm.Take(&t, &expired));  // returns, does not block
  EXPECT_EQ(adm.Offer(Ticket(1, Priority::kHigh), 0),
            AdmitResult::kShedQueueFull);
}

// The priority indexes the queues, so an out-of-range one fails a
// check instead of writing past them.
TEST(AdmissionTest, RejectsOutOfRangePriority) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  AdmissionController adm({});
  Query q;
  q.trace.priority = kNumPriorities;
  EXPECT_DEATH(adm.Offer(std::move(q), 0), "PBFS_CHECK");
}

}  // namespace
}  // namespace server
}  // namespace pbfs
