// QueryTraceStore invariants (src/obs/query_trace.h).
//
// The store's contract has three load-bearing pieces, each pinned here
// with a fake clock (timestamps are plain int64_t nanoseconds written
// into the record and passed to Finish, the session-FSM pattern, so
// nothing sleeps):
//
//  1. Telescoping: the six stage durations of any finished record sum
//     to exactly its wire latency, no matter which boundaries were
//     stamped, in what order, or how badly cross-thread stamps raced.
//  2. Tail-based retention: shed/expired/error/sampled queries are
//     always kept, ok queries only when they cross the effective slow
//     threshold (absolute, or rolling-p99-relative once the window has
//     enough samples); everything else is discarded and counted.
//  3. One call per query: the record travels with the query and the
//     store sees it exactly once, at Finish, which also hands the
//     finished record back to the caller.

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/query_trace.h"

namespace pbfs {
namespace {

using obs::QueryOutcome;
using obs::QueryStageBound;
using obs::QueryTraceRecord;
using obs::QueryTraceStore;

constexpr int64_t kMs = 1000000;

QueryTraceStore::Options BaseOptions() {
  QueryTraceStore::Options o;
  o.slow_ms = 100;       // absolute threshold for most tests
  o.p99_factor = 0;      // relative trigger off unless a test opts in
  o.emit_spans = false;  // keep the Tracer rings out of unit tests
  return o;
}

// A record as the first layer opens it: identity plus kReceived.
QueryTraceRecord Received(uint64_t id, int64_t received_ns) {
  QueryTraceRecord r;
  r.trace_id = id;
  r.request_id = id;
  r.bound(QueryStageBound::kReceived) = received_ns;
  return r;
}

// One query through the whole lifecycle: received at start_ns, every
// boundary stamped at even spacing, finished at start_ns + latency_ns.
void RunQuery(QueryTraceStore& store, uint64_t id, int64_t start_ns,
              int64_t latency_ns, QueryOutcome outcome, bool sampled = false,
              uint8_t priority = 0) {
  QueryTraceRecord r = Received(id, start_ns);
  r.sampled = sampled;
  r.priority = priority;
  for (int b = 1; b < obs::kNumQueryStageBounds - 1; ++b) {
    r.bounds_ns[b] = start_ns + latency_ns * b / obs::kNumQueryStageBounds;
  }
  store.Finish(r, outcome, start_ns + latency_ns);
}

int64_t StageSumNs(const QueryTraceRecord& r) {
  int64_t sum = 0;
  for (int i = 0; i < obs::kNumQueryStageSpans; ++i) sum += r.StageDurNs(i);
  return sum;
}

// Minting is one atomic increment, so concurrent minters (the poll
// thread and in-process submitters) never hand out the same id.
TEST(QueryTraceTest, MintedIdsAreNonZeroAndUnique) {
  QueryTraceStore& store = QueryTraceStore::Get();
  store.Configure(BaseOptions());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2500;
  std::vector<std::vector<uint64_t>> minted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &minted, t] {
      for (int i = 0; i < kPerThread; ++i) {
        minted[t].push_back(store.MintTraceId());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::set<uint64_t> seen;
  for (const std::vector<uint64_t>& ids : minted) {
    for (const uint64_t id : ids) {
      ASSERT_NE(id, 0u);
      ASSERT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads * kPerThread));
}

// The core identity: stage durations telescope to the wire latency by
// construction, whatever subset of boundaries was actually stamped.
TEST(QueryTraceTest, StageDurationsTelescopeToWireLatency) {
  QueryTraceStore& store = QueryTraceStore::Get();
  store.Configure(BaseOptions());

  // Fully stamped.
  RunQuery(store, 1, 10 * kMs, 500 * kMs, QueryOutcome::kOk);
  // Only received: a query shed at the door.
  QueryTraceRecord shed = Received(2, 20 * kMs);
  store.Finish(shed, QueryOutcome::kShed, 25 * kMs);
  // Raced stamps: a later boundary recorded an earlier timestamp than
  // its predecessor (cross-thread clock skew) must clamp, not go
  // negative.
  QueryTraceRecord raced = Received(3, 30 * kMs);
  raced.bound(QueryStageBound::kAdmitted) = 400 * kMs;
  raced.bound(QueryStageBound::kTaken) = 395 * kMs;  // behind kAdmitted
  raced.bound(QueryStageBound::kKernelDone) = 600 * kMs;
  store.Finish(raced, QueryOutcome::kOk, 650 * kMs);

  const std::vector<QueryTraceRecord> retained = store.Retained();
  ASSERT_EQ(retained.size(), 3u);
  for (const QueryTraceRecord& r : retained) {
    EXPECT_EQ(StageSumNs(r), r.wire_latency_ns) << "trace " << r.trace_id;
    for (int i = 0; i < obs::kNumQueryStageSpans; ++i) {
      EXPECT_GE(r.StageDurNs(i), 0)
          << "trace " << r.trace_id << " stage " << i;
    }
  }
  // The shed query's whole latency lands in the final (deliver) stage
  // via forward-fill.
  EXPECT_EQ(retained[1].wire_latency_ns, 5 * kMs);
  EXPECT_EQ(retained[1].StageDurNs(obs::kNumQueryStageSpans - 1), 5 * kMs);
  // Finish finalized the caller's record in place, identically to the
  // retained copy.
  EXPECT_EQ(raced.bound(QueryStageBound::kTaken), 400 * kMs);  // clamped
  EXPECT_EQ(raced.wire_latency_ns, 620 * kMs);
  EXPECT_EQ(raced.ToJson(), retained[2].ToJson());
}

TEST(QueryTraceTest, TailRetentionKeepsOnlyInterestingQueries) {
  QueryTraceStore& store = QueryTraceStore::Get();
  store.Configure(BaseOptions());  // slow_ms = 100

  RunQuery(store, 1, 0, 5 * kMs, QueryOutcome::kOk);        // fast: dropped
  RunQuery(store, 2, 0, 500 * kMs, QueryOutcome::kOk);      // slow
  RunQuery(store, 3, 0, 1 * kMs, QueryOutcome::kShed);      // shed
  RunQuery(store, 4, 0, 2 * kMs, QueryOutcome::kExpired);   // expired
  RunQuery(store, 5, 0, 3 * kMs, QueryOutcome::kError);     // error
  RunQuery(store, 6, 0, 1 * kMs, QueryOutcome::kOk, true);  // sampled

  const std::vector<QueryTraceRecord> retained = store.Retained();
  ASSERT_EQ(retained.size(), 5u);
  EXPECT_STREQ(retained[0].retain_reason, "slow");
  EXPECT_STREQ(retained[1].retain_reason, "shed");
  EXPECT_STREQ(retained[2].retain_reason, "expired");
  EXPECT_STREQ(retained[3].retain_reason, "error");
  EXPECT_STREQ(retained[4].retain_reason, "sampled");

  const QueryTraceStore::Stats stats = store.GetStats(0);
  EXPECT_EQ(stats.discarded_total, 1u);
  EXPECT_EQ(stats.retained_slow, 1u);
  EXPECT_EQ(stats.retained_shed, 1u);
  EXPECT_EQ(stats.retained_expired, 1u);
  EXPECT_EQ(stats.retained_error, 1u);
  EXPECT_EQ(stats.retained_sampled, 1u);
  EXPECT_EQ(stats.retained_total(), 5u);
  // Every Finish lands in exactly one counter.
  EXPECT_EQ(stats.retained_total() + stats.discarded_total, 6u);
}

// The p99-relative trigger stays dormant until the rolling window holds
// min_p99_samples, then catches queries far above the population even
// when they are under the absolute threshold.
TEST(QueryTraceTest, RelativeThresholdActivatesAfterMinSamples) {
  QueryTraceStore& store = QueryTraceStore::Get();
  QueryTraceStore::Options o = BaseOptions();
  o.slow_ms = 0;  // absolute trigger off: only the relative one acts
  o.p99_factor = 2.0;
  o.min_p99_samples = 10;
  store.Configure(o);

  // 10 one-millisecond queries: threshold still infinite while the
  // window fills, so none retain.
  for (uint64_t i = 1; i <= 10; ++i) {
    RunQuery(store, i, static_cast<int64_t>(i) * kMs, 1 * kMs,
             QueryOutcome::kOk);
  }
  EXPECT_TRUE(store.Retained().empty());
  // Window full: effective threshold ~= p99(1ms) * 2. Another 1 ms
  // query is normal; a 50 ms one is 25x the population and retains.
  const QueryTraceStore::Stats stats = store.GetStats(20 * kMs);
  EXPECT_GT(stats.effective_slow_ms, 0);
  EXPECT_LT(stats.effective_slow_ms, 10.0);
  RunQuery(store, 11, 21 * kMs, 1 * kMs, QueryOutcome::kOk);
  EXPECT_TRUE(store.Retained().empty());
  RunQuery(store, 12, 30 * kMs, 50 * kMs, QueryOutcome::kOk);
  ASSERT_EQ(store.Retained().size(), 1u);
  EXPECT_STREQ(store.Retained()[0].retain_reason, "slow");
}

TEST(QueryTraceTest, RetainedRingDropsOldest) {
  QueryTraceStore& store = QueryTraceStore::Get();
  QueryTraceStore::Options o = BaseOptions();
  o.max_retained = 4;
  store.Configure(o);
  for (uint64_t i = 1; i <= 10; ++i) {
    RunQuery(store, i, 0, 500 * kMs, QueryOutcome::kOk);
  }
  const std::vector<QueryTraceRecord> retained = store.Retained();
  ASSERT_EQ(retained.size(), 4u);
  for (size_t i = 0; i < retained.size(); ++i) {
    EXPECT_EQ(retained[i].trace_id, 7 + i);  // oldest first, 7..10 survive
  }
  // The per-reason counters keep counting past the ring cap.
  EXPECT_EQ(store.GetStats(0).retained_slow, 10u);
}

TEST(QueryTraceTest, SlowlogJsonShapeAndFilter) {
  QueryTraceStore& store = QueryTraceStore::Get();
  QueryTraceStore::Options o = BaseOptions();
  std::vector<std::string> sink_lines;
  o.slowlog_sink = [&sink_lines](const std::string& line) {
    sink_lines.push_back(line);
  };
  store.Configure(o);

  QueryTraceRecord shed = Received(11, 0);
  shed.request_id = 42;
  shed.session_id = 5;
  shed.shed_reason = "queue_full";
  store.Finish(shed, QueryOutcome::kShed, 3 * kMs);
  RunQuery(store, 12, 0, 500 * kMs, QueryOutcome::kOk);

  ASSERT_EQ(sink_lines.size(), 2u);
  EXPECT_NE(sink_lines[0].find("\"trace_id\":11"), std::string::npos);
  EXPECT_NE(sink_lines[0].find("\"request_id\":42"), std::string::npos);
  EXPECT_NE(sink_lines[0].find("\"session_id\":5"), std::string::npos);
  EXPECT_NE(sink_lines[0].find("\"outcome\":\"shed\""), std::string::npos);
  EXPECT_NE(sink_lines[0].find("\"shed_reason\":\"queue_full\""),
            std::string::npos);
  EXPECT_NE(sink_lines[0].find("\"stages_ms\""), std::string::npos);
  EXPECT_NE(sink_lines[0].find("\"wire_ms\":3.000"), std::string::npos);

  // /debug/slowlog body: one line per retained record, filterable.
  const std::string all = store.SlowlogJson();
  EXPECT_EQ(std::count(all.begin(), all.end(), '\n'), 2);
  const std::string one = store.SlowlogJson(12);
  EXPECT_EQ(std::count(one.begin(), one.end(), '\n'), 1);
  EXPECT_NE(one.find("\"trace_id\":12"), std::string::npos);
  EXPECT_EQ(store.SlowlogJson(999), "");
}

TEST(QueryTraceTest, ExemplarTracksWorstRetainedPerPriority) {
  QueryTraceStore& store = QueryTraceStore::Get();
  store.Configure(BaseOptions());
  RunQuery(store, 21, 0, 150 * kMs, QueryOutcome::kOk, false, 0);
  RunQuery(store, 22, 0, 300 * kMs, QueryOutcome::kOk, false, 0);
  RunQuery(store, 23, 0, 200 * kMs, QueryOutcome::kOk, false, 0);
  RunQuery(store, 24, 0, 120 * kMs, QueryOutcome::kOk, false, 1);
  // Fast queries leave no exemplar even at an empty priority.
  RunQuery(store, 25, 0, 1 * kMs, QueryOutcome::kOk, false, 2);

  EXPECT_EQ(store.exemplar(0).trace_id, 22u);
  EXPECT_DOUBLE_EQ(store.exemplar(0).latency_ms, 300.0);
  EXPECT_EQ(store.exemplar(1).trace_id, 24u);
  EXPECT_EQ(store.exemplar(2).trace_id, 0u);
  EXPECT_EQ(store.exemplar(200).trace_id, 0u);  // out of range: empty
}

TEST(QueryTraceTest, ConfigureClearsAllState) {
  QueryTraceStore& store = QueryTraceStore::Get();
  store.Configure(BaseOptions());
  RunQuery(store, 31, 0, 500 * kMs, QueryOutcome::kOk);
  RunQuery(store, 32, 0, 1 * kMs, QueryOutcome::kOk);
  ASSERT_EQ(store.Retained().size(), 1u);

  store.Configure(BaseOptions());
  const QueryTraceStore::Stats stats = store.GetStats(0);
  EXPECT_EQ(stats.retained, 0u);
  EXPECT_EQ(stats.retained_total(), 0u);
  EXPECT_EQ(stats.discarded_total, 0u);
  EXPECT_TRUE(store.Retained().empty());
  EXPECT_EQ(store.exemplar(0).trace_id, 0u);
}

}  // namespace
}  // namespace pbfs
