// Concurrent query-engine suite: randomized concurrent submission
// diffed against the sequential oracle (reusing the differential
// corpus and PBFS_DIFF_SEED reproduction banner), width overflow,
// degenerate queries, deadline/cancellation, counters, and a stress
// pass under the steal_heavy / starvation StealPolicy schedules.
//
// Labeled engine + differential in CMake so the TSan and ASan+UBSan CI
// legs run it; see docs/engine.md and docs/testing.md.

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/khop.h"
#include "bfs/sequential.h"
#include "differential/diff_util.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "obs/live/metrics_registry.h"
#include "obs/query_trace.h"
#include "obs/trace.h"
#include "sched/steal_policy.h"
#include "sched/worker_pool.h"
#include "server/client.h"
#include "server/server.h"
#include "util/rng.h"
#include "util/timer.h"

namespace pbfs {
namespace {

using diff::CorpusGraph;
using diff::MakeCorpus;
using diff::ReproNote;

// Submit one kLevels query, wait, and diff the result byte-for-byte
// against a fresh SequentialBfs run.
void SubmitAndCheckLevels(QueryEngine* engine, const Graph& graph,
                          Vertex source, const std::string& note) {
  const Vertex n = graph.num_vertices();
  Query query;
  query.source = source;
  QueryEngine::Submission sub = engine->Submit(std::move(query));
  QueryResult result = sub.result.get();
  ASSERT_EQ(result.status, QueryStatus::kOk) << note;
  ASSERT_EQ(result.levels.size(), static_cast<size_t>(n)) << note;
  std::vector<Level> expected(n);
  SequentialBfs(graph, source, expected.data());
  // Byte-identical, not just "plausible": first divergence is reported.
  for (Vertex v = 0; v < n; ++v) {
    ASSERT_EQ(result.levels[v], expected[v])
        << "source=" << source << " vertex=" << v << " " << note;
  }
  uint64_t reached = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (expected[v] != kLevelUnreached) ++reached;
  }
  EXPECT_EQ(result.vertices_reached, reached) << note;
}

void ConcurrentOracleTrial(QueryEngine* engine, const Graph& graph,
                           int num_clients, int queries_per_client,
                           uint64_t seed, const std::string& note) {
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(SplitMix64(seed + static_cast<uint64_t>(c) * 0x9e37ull));
      for (int q = 0; q < queries_per_client; ++q) {
        SubmitAndCheckLevels(
            engine, graph,
            static_cast<Vertex>(rng.NextBounded(graph.num_vertices())), note);
      }
    });
  }
  for (std::thread& t : clients) t.join();
}

TEST(QueryEngineDifferentialTest, ConcurrentSubmissionMatchesOracle) {
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  for (int trial = 0; trial < diff::NumTrials(); ++trial) {
    const uint64_t seed = diff::TrialSeed(trial);
    SCOPED_TRACE(ReproNote(seed));
    for (const CorpusGraph& gc : MakeCorpus(seed)) {
      if (gc.graph.num_vertices() == 0) continue;
      QueryEngineOptions options;
      options.coalesce_wait_ms = 0.05;
      options.bfs.split_size = 128;  // small tasks so stealing happens
      QueryEngine engine(gc.graph, &pool, options);
      ConcurrentOracleTrial(&engine, gc.graph, /*num_clients=*/4,
                            /*queries_per_client=*/4, seed,
                            "graph=" + gc.name + " " + ReproNote(seed));
      engine.Drain();
      QueryEngineStats stats = engine.Stats();
      EXPECT_EQ(stats.queries_admitted, 16u);
      EXPECT_EQ(stats.queries_completed, 16u);
    }
  }
}

// One generated query of any type plus the oracle row of its source.
struct MixedQuery {
  Query query;
  std::vector<Level> expected;  // SequentialBfs from query.source
};

// A query of a random type whose targets include the source itself, a
// repeat, and (when the graph has one) a vertex the source cannot reach.
MixedQuery MakeMixedQuery(const Graph& graph, Rng& rng) {
  const Vertex n = graph.num_vertices();
  MixedQuery mq;
  Query& q = mq.query;
  q.source = static_cast<Vertex>(rng.NextBounded(n));
  mq.expected.resize(n);
  SequentialBfs(graph, q.source, mq.expected.data());
  Vertex unreachable = q.source;
  for (int tries = 0; tries < 16; ++tries) {
    const Vertex v = static_cast<Vertex>(rng.NextBounded(n));
    if (mq.expected[v] == kLevelUnreached) {
      unreachable = v;
      break;
    }
  }
  const Vertex random_target = static_cast<Vertex>(rng.NextBounded(n));
  static constexpr QueryType kTypes[] = {
      QueryType::kLevels, QueryType::kDistances, QueryType::kReachability,
      QueryType::kKHop, QueryType::kPointToPointDistance};
  q.type = kTypes[rng.NextBounded(5)];
  switch (q.type) {
    case QueryType::kLevels:
      break;
    case QueryType::kDistances:
    case QueryType::kReachability:
      q.targets = {random_target, q.source, unreachable, random_target};
      break;
    case QueryType::kKHop:
      q.max_hops = static_cast<Level>(rng.NextBounded(4));
      break;
    case QueryType::kPointToPointDistance: {
      const Vertex picks[] = {q.source, unreachable, random_target,
                              random_target};
      q.targets = {picks[rng.NextBounded(4)]};
      q.tolerance = 0;
      break;
    }
  }
  return mq;
}

// Diffs one answer against the oracle row of its source.
void CheckMixedAnswer(const MixedQuery& mq, const QueryResult& result,
                      const std::string& note) {
  const Query& q = mq.query;
  const std::vector<Level>& expected = mq.expected;
  ASSERT_EQ(result.status, QueryStatus::kOk) << note;
  switch (q.type) {
    case QueryType::kLevels: {
      ASSERT_EQ(result.levels, expected) << note;
      uint64_t reached = 0;
      for (Level l : expected) reached += l != kLevelUnreached ? 1 : 0;
      EXPECT_EQ(result.vertices_reached, reached) << note;
      break;
    }
    case QueryType::kDistances:
      ASSERT_EQ(result.levels.size(), q.targets.size()) << note;
      for (size_t i = 0; i < q.targets.size(); ++i) {
        EXPECT_EQ(result.levels[i], expected[q.targets[i]])
            << note << " target " << q.targets[i];
      }
      break;
    case QueryType::kReachability:
      ASSERT_EQ(result.reachable.size(), q.targets.size()) << note;
      for (size_t i = 0; i < q.targets.size(); ++i) {
        EXPECT_EQ(result.reachable[i],
                  expected[q.targets[i]] != kLevelUnreached ? 1 : 0)
            << note << " target " << q.targets[i];
      }
      break;
    case QueryType::kKHop:
      EXPECT_EQ(result.khop_sizes,
                KHopSizesFromLevels({expected.data(), expected.size()},
                                    q.max_hops))
          << note << " max_hops " << q.max_hops;
      break;
    case QueryType::kPointToPointDistance:
      // Tolerance 0: a sketch answer is exact too.
      EXPECT_EQ(result.distance, expected[q.targets[0]])
          << note << " target " << q.targets[0];
      break;
  }
}

// Every query type in one engine, under concurrency: four clients each
// submit a burst while a stalled batch holds the dispatcher, so the
// next batch is wider than 64 and mixes all five types (width 128), then
// submit one query at a time (small batches and lone queries). Runs
// with sketches off and on (tolerance 0: p2p answers come from the
// sketch when its bounds pinch and from the traversal otherwise).
TEST(QueryEngineDifferentialTest, MixedTypeBatchesMatchOracle) {
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  constexpr int kClients = 4;
  constexpr int kBurst = 28;   // per client: up to 112 pending > 64
  constexpr int kSingles = 4;  // per client, submitted one at a time
  for (int trial = 0; trial < diff::NumTrials(); ++trial) {
    const uint64_t seed = diff::TrialSeed(trial);
    SCOPED_TRACE(ReproNote(seed));
    for (const CorpusGraph& gc : MakeCorpus(seed)) {
      if (gc.graph.num_vertices() == 0) continue;
      for (bool sketches : {false, true}) {
        const std::string note = "graph=" + gc.name +
                                 (sketches ? " sketches=on " : " ") +
                                 ReproNote(seed);
        QueryEngineOptions options;
        options.coalesce_wait_ms = 0.5;
        options.bfs.split_size = 128;  // small tasks so stealing happens
        options.enable_sketches = sketches;
        options.sketch = {.num_clusters = 4, .cluster_size = 16};
        options.sketch_workers = 1;
        QueryEngine engine(gc.graph, &pool, options);
        engine.WaitSketchIdle();

        // Holds the dispatcher while the bursts pile up (a traversed
        // type: a sketch could answer a p2p query inline).
        Rng stall_rng(SplitMix64(seed ^ 0x5a11ull));
        MixedQuery stall = MakeMixedQuery(gc.graph, stall_rng);
        stall.query.type = QueryType::kLevels;
        stall.query.debug_delay_ms = 100;
        QueryEngine::Submission stall_sub = engine.Submit(stall.query);
        while (engine.QueueDepth() != 0) std::this_thread::yield();

        uint32_t widest = 0;
        std::mutex widest_mu;
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
          clients.emplace_back([&, c] {
            Rng rng(SplitMix64(seed + static_cast<uint64_t>(c) * 0x9e37ull));
            std::vector<MixedQuery> burst;
            std::vector<QueryEngine::Submission> subs;
            for (int q = 0; q < kBurst; ++q) {
              burst.push_back(MakeMixedQuery(gc.graph, rng));
              subs.push_back(engine.Submit(burst.back().query));
            }
            for (int q = 0; q < kBurst; ++q) {
              QueryResult result = subs[q].result.get();
              CheckMixedAnswer(burst[q], result, note);
              std::lock_guard<std::mutex> lock(widest_mu);
              widest = std::max(widest, result.trace.batch_width);
            }
            for (int q = 0; q < kSingles; ++q) {
              MixedQuery mq = MakeMixedQuery(gc.graph, rng);
              CheckMixedAnswer(mq, engine.Submit(mq.query).result.get(),
                               note);
            }
          });
        }
        for (std::thread& t : clients) t.join();
        CheckMixedAnswer(stall, stall_sub.result.get(), note);
        EXPECT_EQ(widest, 128u) << note;
        engine.Drain();
        const QueryEngineStats stats = engine.Stats();
        EXPECT_EQ(stats.queries_completed,
                  1u + kClients * (kBurst + kSingles))
            << note;
      }
    }
  }
}

TEST(QueryEngineTest, WidthOverflowSplitsIntoMultipleBatches) {
  Graph graph = ErdosRenyi(400, 1200, /*seed=*/42);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  QueryEngineOptions options;
  options.max_batch_width = 64;
  options.coalesce_wait_ms = 5.0;  // let the burst pile up past the cap
  QueryEngine engine(graph, &pool, options);

  Rng rng(9);
  std::vector<QueryEngine::Submission> subs;
  std::vector<Vertex> sources;
  // 3x the maximum width pending at once.
  for (int q = 0; q < 192; ++q) {
    Vertex s = static_cast<Vertex>(rng.NextBounded(graph.num_vertices()));
    sources.push_back(s);
    Query query;
    query.source = s;
    subs.push_back(engine.Submit(std::move(query)));
  }
  std::vector<Level> expected(graph.num_vertices());
  for (size_t q = 0; q < subs.size(); ++q) {
    QueryResult result = subs[q].result.get();
    ASSERT_EQ(result.status, QueryStatus::kOk);
    SequentialBfs(graph, sources[q], expected.data());
    EXPECT_EQ(result.levels, expected) << "query " << q;
  }
  QueryEngineStats stats = engine.Stats();
  // No dispatch may exceed the cap, so >= ceil(192/64) dispatches.
  EXPECT_GE(stats.batches_run + stats.single_runs, 3u);
  EXPECT_EQ(stats.queries_completed, 192u);
  // Occupancy is queries per slot of the chosen width, in (0, 1].
  EXPECT_GT(stats.batch_occupancy.mean(), 0.0);
  EXPECT_LE(stats.batch_occupancy.max(), 1.0);
}

TEST(QueryEngineTest, DuplicateSourcesAndAllQueryTypes) {
  Graph graph = ErdosRenyi(300, 700, /*seed=*/3);
  WorkerPool pool({.num_workers = 3, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  const Vertex n = graph.num_vertices();
  const Vertex source = 17;

  std::vector<Level> expected(n);
  SequentialBfs(graph, source, expected.data());

  // Duplicate-source queries of every type, submitted together so they
  // land in one batch: answers must agree with each other and the
  // oracle.
  Query levels_q;
  levels_q.source = source;
  Query dup_q = levels_q;
  Query dist_q;
  dist_q.type = QueryType::kDistances;
  dist_q.source = source;
  dist_q.targets = {0, source, n - 1, 0};  // duplicates allowed
  Query reach_q;
  reach_q.type = QueryType::kReachability;
  reach_q.source = source;
  reach_q.targets = {0, n - 1};
  Query khop_q;
  khop_q.type = QueryType::kKHop;
  khop_q.source = source;
  khop_q.max_hops = 2;
  Query empty_targets_q;
  empty_targets_q.type = QueryType::kDistances;
  empty_targets_q.source = source;

  auto s1 = engine.Submit(std::move(levels_q));
  auto s2 = engine.Submit(std::move(dup_q));
  auto s3 = engine.Submit(std::move(dist_q));
  auto s4 = engine.Submit(std::move(reach_q));
  auto s5 = engine.Submit(std::move(khop_q));
  auto s6 = engine.Submit(std::move(empty_targets_q));

  QueryResult r1 = s1.result.get();
  QueryResult r2 = s2.result.get();
  ASSERT_EQ(r1.status, QueryStatus::kOk);
  ASSERT_EQ(r2.status, QueryStatus::kOk);
  EXPECT_EQ(r1.levels, r2.levels);
  for (Vertex v = 0; v < n; ++v) ASSERT_EQ(r1.levels[v], expected[v]);

  QueryResult r3 = s3.result.get();
  ASSERT_EQ(r3.status, QueryStatus::kOk);
  ASSERT_EQ(r3.levels.size(), 4u);
  EXPECT_EQ(r3.levels[0], expected[0]);
  EXPECT_EQ(r3.levels[1], 0);  // distance to itself
  EXPECT_EQ(r3.levels[2], expected[n - 1]);
  EXPECT_EQ(r3.levels[3], r3.levels[0]);

  QueryResult r4 = s4.result.get();
  ASSERT_EQ(r4.status, QueryStatus::kOk);
  ASSERT_EQ(r4.reachable.size(), 2u);
  EXPECT_EQ(r4.reachable[0], expected[0] != kLevelUnreached ? 1 : 0);
  EXPECT_EQ(r4.reachable[1], expected[n - 1] != kLevelUnreached ? 1 : 0);

  QueryResult r5 = s5.result.get();
  ASSERT_EQ(r5.status, QueryStatus::kOk);
  std::vector<uint64_t> khop_expected =
      KHopSizesFromLevels({expected.data(), expected.size()}, 2);
  EXPECT_EQ(r5.khop_sizes, khop_expected);

  QueryResult r6 = s6.result.get();
  ASSERT_EQ(r6.status, QueryStatus::kOk);
  EXPECT_TRUE(r6.levels.empty());
}

TEST(QueryEngineTest, InvalidQueriesAreRejectedNotTraversed) {
  Graph graph = Path(10);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);

  Query bad_source;
  bad_source.source = 10;  // out of range
  auto s1 = engine.Submit(std::move(bad_source));
  EXPECT_EQ(s1.result.get().status, QueryStatus::kInvalid);

  Query bad_target;
  bad_target.type = QueryType::kDistances;
  bad_target.source = 0;
  bad_target.targets = {3, 99};
  auto s2 = engine.Submit(std::move(bad_target));
  EXPECT_EQ(s2.result.get().status, QueryStatus::kInvalid);

  engine.Drain();
  QueryEngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_invalid, 2u);
  EXPECT_EQ(stats.queries_completed, 0u);
  EXPECT_EQ(stats.batches_run + stats.single_runs, 0u);
}

// A k-hop query that names no radius gets the wire protocol's default
// one, in process as over a socket: the cumulative sizes for hops
// 0..max_hops, not 65,536 of them.
TEST(QueryEngineTest, DefaultKHopRadiusMatchesWireDefault) {
  Graph graph = Path(100);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  const Level wire_default = server::QueryRequest{}.max_hops;
  EXPECT_EQ(Query{}.max_hops, wire_default);

  Query query;
  query.type = QueryType::kKHop;
  query.source = 50;
  const QueryResult result = engine.Submit(std::move(query)).result.get();
  ASSERT_EQ(result.status, QueryStatus::kOk);
  std::vector<Level> levels(graph.num_vertices());
  SequentialBfs(graph, 50, levels.data());
  EXPECT_EQ(result.khop_sizes, KHopSizesFromLevels(levels, wire_default));
  EXPECT_EQ(result.khop_sizes.size(), static_cast<size_t>(wire_default) + 1);
}

TEST(QueryEngineTest, CancelBeforeDispatch) {
  Graph graph = Path(50);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngineOptions options;
  // Long linger: the query stays in the admission queue long enough for
  // a deterministic cancel (the test finishes as soon as the future is
  // fulfilled, so nothing actually waits this long).
  options.coalesce_wait_ms = 2000.0;
  QueryEngine engine(graph, &pool, options);

  Query query;
  query.source = 1;
  auto sub = engine.Submit(std::move(query));
  EXPECT_TRUE(engine.Cancel(sub.id));
  EXPECT_EQ(sub.result.get().status, QueryStatus::kCancelled);
  EXPECT_FALSE(engine.Cancel(sub.id));  // already finished
  QueryEngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_cancelled, 1u);
  EXPECT_EQ(stats.batches_run + stats.single_runs, 0u);
}

TEST(QueryEngineTest, CancelAfterDispatchFailsAndResultArrives) {
  Graph graph = Path(50);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngineOptions options;
  options.coalesce_wait_ms = 0.0;  // dispatch immediately
  QueryEngine engine(graph, &pool, options);

  Query query;
  query.source = 0;
  auto sub = engine.Submit(std::move(query));
  QueryResult result = sub.result.get();  // wait until dispatched + done
  EXPECT_EQ(result.status, QueryStatus::kOk);
  EXPECT_FALSE(engine.Cancel(sub.id));
  EXPECT_EQ(result.levels[49], 49);
}

TEST(QueryEngineTest, ExpiredDeadlineCompletesWithoutTraversal) {
  Graph graph = Path(50);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngineOptions options;
  options.coalesce_wait_ms = 0.0;
  QueryEngine engine(graph, &pool, options);

  Query query;
  query.source = 0;
  query.deadline_ns = NowNanos() - 1;  // already past
  auto sub = engine.Submit(std::move(query));
  EXPECT_EQ(sub.result.get().status, QueryStatus::kDeadlineExceeded);
  engine.Drain();
  EXPECT_EQ(engine.Stats().queries_expired, 1u);
}

TEST(QueryEngineTest, ShutdownCancelsQueuedQueries) {
  Graph graph = Path(50);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  std::future<QueryResult> pending_result;
  {
    QueryEngineOptions options;
    options.coalesce_wait_ms = 2000.0;  // keep it queued until shutdown
    QueryEngine engine(graph, &pool, options);
    Query query;
    query.source = 1;
    pending_result = engine.Submit(std::move(query)).result;
  }
  EXPECT_EQ(pending_result.get().status, QueryStatus::kCancelled);
}

TEST(QueryEngineTest, CountersBalanceAfterMixedTraffic) {
  Graph graph = ErdosRenyi(200, 500, /*seed=*/8);
  WorkerPool pool({.num_workers = 3, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  Rng rng(77);
  std::vector<QueryEngine::Submission> subs;
  for (int q = 0; q < 40; ++q) {
    Query query;
    query.source = static_cast<Vertex>(rng.NextBounded(250));  // some invalid
    subs.push_back(engine.Submit(std::move(query)));
  }
  if (!subs.empty()) engine.Cancel(subs.front().id);  // may race dispatch
  engine.Drain();
  QueryEngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_admitted, 40u);
  EXPECT_EQ(stats.queries_completed + stats.queries_cancelled +
                stats.queries_expired + stats.queries_invalid,
            40u);
  for (auto& sub : subs) {
    EXPECT_TRUE(sub.result.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready);
  }
}

// The acceptance stress: concurrent clients through the engine while
// the WorkerPool replays the steal_heavy and starvation schedules from
// the scheduler perturbation suite. Runs under TSan via the
// engine/differential labels.
TEST(QueryEngineStressTest, ConcurrentClientsUnderPerturbedSchedules) {
  Graph graph = ErdosRenyi(600, 2400, /*seed=*/1234);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  const uint64_t seed = diff::TrialSeed(7);
  for (const NamedStealPolicy& schedule : PerturbationSchedules()) {
    if (schedule.name != "steal_heavy" && schedule.name != "starvation") {
      continue;
    }
    SCOPED_TRACE(schedule.name);
    // Installed between loops, before the engine's dispatcher exists.
    pool.SetStealPolicy(schedule.policy);
    {
      QueryEngineOptions options;
      options.coalesce_wait_ms = 0.1;
      options.bfs.split_size = 64;  // many tasks -> many (forced) steals
      QueryEngine engine(graph, &pool, options);
      ConcurrentOracleTrial(&engine, graph, /*num_clients=*/4,
                            /*queries_per_client=*/6, seed,
                            "schedule=" + schedule.name + " " +
                                ReproNote(seed));
      engine.Drain();
    }
    pool.SetStealPolicy(nullptr);
  }
}

// Trace-backed accounting (the "obs" leg): every admitted query emits
// exactly one terminal "query.done" instant, and the latency histogram
// holds exactly one sample per kOk completion.
TEST(QueryEngineObsTest, EveryAdmittedQueryEmitsOneTerminalEvent) {
  Graph graph = ErdosRenyi(300, 900, /*seed=*/21);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  obs::Tracer::Get().Start();
  uint64_t admitted;
  QueryEngineStats stats;
  {
    QueryEngineOptions options;
    options.coalesce_wait_ms = 0.1;
    QueryEngine engine(graph, &pool, options);
    Rng rng(13);
    std::vector<QueryEngine::Submission> subs;
    for (int q = 0; q < 48; ++q) {
      Query query;
      // ~1 in 5 sources is out of range -> kInvalid terminal, so the
      // count covers the non-kOk completion paths too.
      query.source = static_cast<Vertex>(rng.NextBounded(375));
      subs.push_back(engine.Submit(std::move(query)));
    }
    engine.Drain();
    stats = engine.Stats();
    admitted = stats.queries_admitted;
    for (auto& sub : subs) sub.result.get();
  }
  obs::TraceDump dump = obs::Tracer::Get().Stop();

  std::set<uint64_t> done_ids;
  uint64_t done_events = 0;
  uint64_t ok_events = 0;
  for (const obs::TraceThreadDump& thread : dump.threads) {
    for (const obs::TraceEvent& event : thread.events) {
      if (event.name == nullptr ||
          std::string_view(event.name) != "query.done") {
        continue;
      }
      ++done_events;
      done_ids.insert(event.Arg("query"));
      if (event.Arg("status") ==
          static_cast<uint64_t>(QueryStatus::kOk)) {
        ++ok_events;
      }
    }
  }
  EXPECT_EQ(admitted, 48u);
  // Exactly one terminal per admitted query: total count matches AND
  // every id is distinct (a double-complete would collide).
  EXPECT_EQ(done_events, admitted);
  EXPECT_EQ(done_ids.size(), admitted);
  EXPECT_EQ(ok_events, stats.queries_completed);
  // One latency sample per kOk query, in every build mode.
  EXPECT_EQ(stats.latency_ms.count(), stats.queries_completed);
  EXPECT_GT(stats.queries_completed, 0u);
  EXPECT_GT(stats.queries_invalid, 0u);  // the invalid path was exercised
}

TEST(QueryEngineObsTest, LatencyHistogramCountsOkCompletions) {
  // Histogram accounting must hold without any trace session (it is
  // part of QueryEngineStats, not of the tracing build flavor).
  Graph graph = ErdosRenyi(200, 600, /*seed=*/33);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  std::vector<QueryEngine::Submission> subs;
  for (int q = 0; q < 10; ++q) {
    Query query;
    query.source = static_cast<Vertex>(q * 17 % 200);
    subs.push_back(engine.Submit(std::move(query)));
  }
  engine.Drain();
  for (auto& sub : subs) {
    EXPECT_EQ(sub.result.get().status, QueryStatus::kOk);
  }
  QueryEngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_completed, 10u);
  EXPECT_EQ(stats.latency_ms.count(), 10u);
  // Quantiles come from real samples: positive and ordered.
  EXPECT_GT(stats.latency_ms.max(), 0.0);
  EXPECT_LE(stats.latency_ms.Quantile(0.5), stats.latency_ms.Quantile(0.99));
  EXPECT_NE(stats.ToString().find("latency"), std::string::npos);
}

// In-process Submit opens the query's trace record itself (no
// kReceived stamp arrives with it), stamps the engine boundaries into
// it, and closes it exactly once: the finished record comes back in
// the result and is the one the store retained.
TEST(QueryEngineObsTest, InProcessTraceIsEngineStampedAndFinishedOnce) {
  obs::QueryTraceStore& store = obs::QueryTraceStore::Get();
  obs::QueryTraceStore::Options trace_opts;
  trace_opts.slow_ms = 0;  // only sampled/error retain, whatever the timing
  trace_opts.p99_factor = 0;
  trace_opts.emit_spans = false;
  store.Configure(trace_opts);
  Graph graph = Path(50);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngineOptions options;
  options.coalesce_wait_ms = 0.0;
  {
    QueryEngine engine(graph, &pool, options);
    Query query;
    query.trace.sampled = true;
    QueryEngine::Submission sub = engine.Submit(std::move(query));
    const QueryResult result = sub.result.get();
    ASSERT_EQ(result.status, QueryStatus::kOk);
    const std::vector<obs::QueryTraceRecord> retained = store.Retained();
    ASSERT_EQ(retained.size(), 1u);
    const obs::QueryTraceRecord& r = retained[0];
    EXPECT_NE(r.trace_id, 0u);  // minted by the engine
    EXPECT_EQ(r.request_id, sub.id);
    EXPECT_EQ(r.session_id, 0u);
    EXPECT_STREQ(r.retain_reason, "sampled");
    EXPECT_EQ(r.batch_width, 1u);  // a lone query rides the single runner
    EXPECT_EQ(r.snapshot_version, result.snapshot_version);
    using B = obs::QueryStageBound;
    EXPECT_GT(r.bound(B::kReceived), 0);
    EXPECT_EQ(r.bound(B::kSubmitted), r.bound(B::kReceived));
    EXPECT_GT(r.bound(B::kKernelDone), r.bound(B::kSubmitted));
    EXPECT_GE(r.bound(B::kDelivered), r.bound(B::kKernelDone));
    EXPECT_EQ(result.trace.ToJson(), r.ToJson());
  }
  {
    options.coalesce_wait_ms = 2000.0;  // stays queued for the cancel
    QueryEngine engine(graph, &pool, options);
    QueryEngine::Submission sub = engine.Submit(Query{});
    ASSERT_TRUE(engine.Cancel(sub.id));
    const QueryResult result = sub.result.get();
    ASSERT_EQ(result.status, QueryStatus::kCancelled);
    const std::vector<obs::QueryTraceRecord> retained = store.Retained();
    ASSERT_EQ(retained.size(), 2u);
    EXPECT_EQ(retained[1].trace_id, result.trace.trace_id);
    EXPECT_STREQ(retained[1].retain_reason, "error");
  }
  // Two queries, two records: one Finish each, nothing else.
  const obs::QueryTraceStore::Stats stats = store.GetStats(NowNanos());
  EXPECT_EQ(stats.retained_total() + stats.discarded_total, 2u);
  store.Configure(obs::QueryTraceStore::Options());  // restore defaults
}

// ---- Engine behind server-side admission, driven to overload ----

// Sums every sample of a counter family in Prometheus exposition text,
// across label sets (pbfs_server_shed_total has one sample per shed
// reason).
double SumFamily(const std::string& exposition, const std::string& family) {
  double sum = 0.0;
  size_t pos = 0;
  while ((pos = exposition.find(family, pos)) != std::string::npos) {
    const size_t line_start = exposition.rfind('\n', pos) + 1;
    if (line_start != pos || exposition.compare(pos, 2, "# ") == 0) {
      pos += family.size();
      continue;  // HELP/TYPE lines or a mid-line mention
    }
    const char next = exposition[pos + family.size()];
    if (next != '{' && next != ' ') {  // a longer family name
      pos += family.size();
      continue;
    }
    const size_t space = exposition.find(' ', pos + family.size());
    sum += std::strtod(exposition.c_str() + space + 1, nullptr);
    pos = space;
  }
  return sum;
}

TEST(QueryEngineOverloadTest, SaturatedAdmissionShedsAndCountsExactly) {
  // The engine never sheds on its own (kShed is produced only by the
  // server's admission layer); saturating a tiny admission queue in
  // front of it must (a) answer every request, (b) mark the overflow
  // kShed, and (c) account each shed exactly once in
  // pbfs_server_shed_total.
  Graph graph = ErdosRenyi(2048, 8192, /*seed=*/77);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  server::ServerOptions opts;
  opts.admission.max_queue = 2;
  opts.max_engine_inflight = 1;
  opts.session.max_inflight = 256;
  opts.session.resume_inflight = 128;
  server::PbfsServer srv(&engine, opts);
  ASSERT_TRUE(srv.Start());

  obs::MetricsRegistry registry;
  srv.ExportLiveMetrics(&registry);
  EXPECT_EQ(SumFamily(registry.ExpositionText(), "pbfs_server_shed_total"),
            0.0);

  server::PbfsClient client;
  ASSERT_TRUE(client.Connect({.port = srv.port()}));
  constexpr int kBurst = 96;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    server::QueryRequest req;
    req.request_id = static_cast<uint64_t>(i);
    req.type = QueryType::kLevels;
    req.source = static_cast<Vertex>(i % 2048);
    EncodeQueryRequest(req, &burst);
  }
  ASSERT_TRUE(client.Send(burst));

  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    server::Response resp;
    std::string error;
    ASSERT_TRUE(client.ReadResponse(&resp, &error)) << error;
    if (resp.query.status == QueryStatus::kShed) {
      ++shed;
    } else {
      ASSERT_EQ(resp.query.status, QueryStatus::kOk);
      ++ok;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GT(shed, 0);  // queue cap 2 + inflight 1 vs a 96 burst

  const server::ServerStats stats = srv.GetStats();
  EXPECT_EQ(stats.admission.shed_queue_full + stats.admission.shed_deadline,
            static_cast<uint64_t>(shed));
  EXPECT_EQ(stats.admission.admitted, static_cast<uint64_t>(ok));
  // The engine processed exactly the admitted queries; sheds never
  // reached it. (Drain first: the response hits the wire a hair before
  // the engine's completion counter ticks.)
  engine.Drain();
  EXPECT_EQ(engine.Stats().queries_completed, static_cast<uint64_t>(ok));

  // One increment per shed, summed across the reason labels.
  EXPECT_EQ(SumFamily(registry.ExpositionText(), "pbfs_server_shed_total"),
            static_cast<double>(shed));
  srv.Stop();
}

}  // namespace
}  // namespace pbfs
