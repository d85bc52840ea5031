// Cluster-BFS distance-sketch suite (sketch/*.h and the engine's
// kPointToPointDistance path).
//
// The load-bearing property, checked against the sequential BFS oracle
// over the randomized differential corpora: for every pair (s, t),
//   sketch lower <= exact distance <= sketch upper
// with `upper == kLevelUnreached` exactly describing "no cluster
// connects the pair". On top of that: the oracle's exact fallback, the
// engine fast path under perturbed steal schedules, and the staleness
// contract — a query admitted after ApplyUpdates is never answered
// from a sketch built for an older content version.
//
// Reproduction: failures print the PBFS_DIFF_SEED banner from
// tests/differential/diff_util.h.

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bfs/sequential.h"
#include "differential/diff_util.h"
#include "dynamic/dynamic_util.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "sched/steal_policy.h"
#include "sched/worker_pool.h"
#include "sketch/oracle.h"
#include "sketch/rebuilder.h"
#include "sketch/sketch.h"
#include "util/rng.h"

namespace pbfs {
namespace {

Level ExactDistance(const Graph& graph, Vertex s, Vertex t) {
  std::vector<Level> levels(graph.num_vertices());
  SequentialBfs(graph, s, levels.data());
  return levels[t];
}

TEST(BoundsTest, TightenAndClamp) {
  DistanceBounds b;
  EXPECT_EQ(b.lower, 0);
  EXPECT_EQ(b.upper, kLevelUnreached);

  // Unreached references never tighten.
  TightenBounds(b, kLevelUnreached, 3, 0);
  TightenBounds(b, 3, kLevelUnreached, 0);
  EXPECT_EQ(b.upper, kLevelUnreached);

  TightenBounds(b, 4, 7, /*upper_slack=*/2);
  EXPECT_EQ(b.upper, 13);
  EXPECT_EQ(b.lower, 3);

  // A tighter reference wins; a looser one is ignored.
  TightenBounds(b, 5, 5, /*upper_slack=*/0);
  EXPECT_EQ(b.upper, 10);
  EXPECT_EQ(b.lower, 3);
  TightenBounds(b, 20, 20, /*upper_slack=*/2);
  EXPECT_EQ(b.upper, 10);

  // Near-overflow sums must not wrap into a bogus tight upper bound.
  DistanceBounds big;
  TightenBounds(big, kMaxLevel, kMaxLevel, 2);
  EXPECT_EQ(big.upper, kLevelUnreached);

  DistanceBounds flat;
  TightenBounds(flat, 2, 2, 1);
  ClampDistinctPair(flat);
  EXPECT_EQ(flat.lower, 1);
}

TEST(ClusterSketchTest, ExactOnStarAndPath) {
  SerialExecutor serial;
  // Star: the hub cluster covers everything within the diameter.
  Graph star = Star(64);
  auto star_sketch = BuildSketch(star, /*content_version=*/1, &serial,
                                 {.num_clusters = 2, .cluster_size = 16});
  for (Vertex s : {Vertex{0}, Vertex{1}, Vertex{5}}) {
    for (Vertex t : {Vertex{0}, Vertex{2}, Vertex{63}}) {
      const Level exact = ExactDistance(star, s, t);
      const DistanceBounds b = star_sketch->Query(s, t);
      EXPECT_LE(b.lower, exact);
      EXPECT_GE(b.upper, exact);
    }
  }

  // Path: one cluster at an end; bounds must bracket every distance
  // and pinch for pairs the bitsets resolve.
  Graph path = Path(32);
  auto path_sketch = BuildSketch(path, /*content_version=*/1, &serial,
                                 {.num_clusters = 4,
                                  .cluster_size = 8,
                                  .strategy = SeedStrategy::kRandom,
                                  .seed = 3});
  for (Vertex s = 0; s < 32; s += 5) {
    for (Vertex t = 0; t < 32; t += 7) {
      const Level exact = ExactDistance(path, s, t);
      const DistanceBounds b = path_sketch->Query(s, t);
      EXPECT_LE(b.lower, exact) << "s=" << s << " t=" << t;
      EXPECT_GE(b.upper, exact) << "s=" << s << " t=" << t;
    }
  }
}

// The property test: bounds bracket the sequential oracle on every
// corpus family, both seed strategies.
TEST(ClusterSketchTest, BoundsBracketOracleOnCorpus) {
  SerialExecutor serial;
  for (int trial = 0; trial < diff::NumTrials(); ++trial) {
    const uint64_t seed = diff::TrialSeed(trial);
    const std::string note = diff::ReproNote(seed);
    Rng rng(seed);
    for (const diff::CorpusGraph& entry : diff::MakeCorpus(seed)) {
      const Graph& graph = entry.graph;
      const Vertex n = graph.num_vertices();
      if (n < 2) continue;
      for (SeedStrategy strategy :
           {SeedStrategy::kHighestDegree, SeedStrategy::kRandom}) {
        auto sketch = BuildSketch(graph, /*content_version=*/1, &serial,
                                  {.num_clusters = 6,
                                   .cluster_size = 16,
                                   .strategy = strategy,
                                   .seed = rng.Next()});
        std::vector<Level> levels(n);
        for (int pair = 0; pair < 24; ++pair) {
          const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
          const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
          SequentialBfs(graph, s, levels.data());
          const Level exact = levels[t];
          const DistanceBounds b = sketch->Query(s, t);
          if (exact == kLevelUnreached) {
            // A cluster reaching both endpoints would prove them
            // connected, so an unreachable pair must stay unbounded.
            EXPECT_EQ(b.upper, kLevelUnreached)
                << entry.name << " s=" << s << " t=" << t << " " << note;
          } else {
            EXPECT_LE(b.lower, exact)
                << entry.name << " s=" << s << " t=" << t << " " << note;
            EXPECT_GE(b.upper, exact)
                << entry.name << " s=" << s << " t=" << t << " " << note;
          }
        }
      }
    }
  }
}

TEST(ClusterSketchTest, ParallelBuildMatchesSerial) {
  const uint64_t seed = diff::TrialSeed(11);
  Graph graph = ErdosRenyi(800, 3200, seed);
  SerialExecutor serial;
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  const SketchOptions options{.num_clusters = 8, .cluster_size = 32};
  auto serial_sketch = BuildSketch(graph, 1, &serial, options);
  auto parallel_sketch = BuildSketch(graph, 1, &pool, options);
  Rng rng(seed);
  for (int pair = 0; pair < 200; ++pair) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(800));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(800));
    const DistanceBounds a = serial_sketch->Query(s, t);
    const DistanceBounds b = parallel_sketch->Query(s, t);
    EXPECT_EQ(a.lower, b.lower) << "s=" << s << " t=" << t;
    EXPECT_EQ(a.upper, b.upper) << "s=" << s << " t=" << t;
  }
}

TEST(DistanceOracleTest, FallbackIsExactAndBounded) {
  const uint64_t seed = diff::TrialSeed(5);
  const std::string note = diff::ReproNote(seed);
  Graph graph = ErdosRenyi(700, 2100, seed);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  auto sketch = BuildSketch(graph, 1, &pool,
                            {.num_clusters = 8, .cluster_size = 32});
  DistanceOracle oracle(sketch, graph, &pool);
  Rng rng(seed ^ 1);
  for (int pair = 0; pair < 64; ++pair) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(700));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(700));
    const Level exact = ExactDistance(graph, s, t);
    // Tolerance 0: hits only on pinched (= exact) bounds, so both
    // paths must agree with the oracle exactly.
    const DistanceOracle::Result result = oracle.Distance(s, t);
    EXPECT_EQ(result.distance, exact) << "s=" << s << " t=" << t << " "
                                      << note;
    EXPECT_TRUE(result.bounds.exact()) << note;
  }
  const DistanceOracle::Stats& stats = oracle.stats();
  EXPECT_EQ(stats.sketch_hits + stats.exact_fallbacks, 64u);
}

// Sketches disabled (the default): p2p queries take the exact
// traversal path end-to-end, and malformed ones are rejected.
TEST(EngineP2PTest, ExactPathWithoutSketches) {
  Graph graph = ErdosRenyi(400, 1200, /*seed=*/77);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  Rng rng(3);
  for (int i = 0; i < 8; ++i) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(400));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(400));
    Query query;
    query.type = QueryType::kPointToPointDistance;
    query.source = s;
    query.targets = {t};
    auto sub = engine.Submit(std::move(query));
    const QueryResult result = sub.result.get();
    EXPECT_EQ(result.status, QueryStatus::kOk);
    EXPECT_FALSE(result.sketch_resolved);
    EXPECT_EQ(result.distance, ExactDistance(graph, s, t));
    EXPECT_TRUE(result.distance_bounds.exact());
  }
  Query missing_target;
  missing_target.type = QueryType::kPointToPointDistance;
  missing_target.source = 0;
  EXPECT_EQ(engine.Submit(std::move(missing_target)).result.get().status,
            QueryStatus::kInvalid);
  EXPECT_EQ(engine.SketchStats().rebuilds, 0u);
  EXPECT_EQ(engine.CurrentSketch(), nullptr);
}

// The engine fast path under the perturbed steal schedules: tolerance
// 0, so sketch hits (pinched bounds) and exact fallbacks must both
// equal the sequential oracle.
TEST(EngineP2PTest, MatchesOracleUnderPerturbedSchedules) {
  const uint64_t seed = diff::TrialSeed(17);
  const std::string note = diff::ReproNote(seed);
  Graph graph = ErdosRenyi(600, 2400, seed);
  const Vertex n = graph.num_vertices();
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  for (const NamedStealPolicy& schedule : PerturbationSchedules()) {
    if (schedule.name != "steal_heavy" && schedule.name != "starvation") {
      continue;
    }
    SCOPED_TRACE(schedule.name);
    pool.SetStealPolicy(schedule.policy);
    {
      QueryEngineOptions options;
      options.coalesce_wait_ms = 0.1;
      options.bfs.split_size = 64;  // many tasks -> many (forced) steals
      options.enable_sketches = true;
      options.sketch = {.num_clusters = 8, .cluster_size = 32};
      options.sketch_workers = 1;
      QueryEngine engine(graph, &pool, options);
      engine.WaitSketchIdle();
      std::vector<std::thread> clients;
      for (int c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
          Rng rng(seed ^ static_cast<uint64_t>(c + 1));
          for (int q = 0; q < 16; ++q) {
            const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
            const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
            Query query;
            query.type = QueryType::kPointToPointDistance;
            query.source = s;
            query.targets = {t};
            auto sub = engine.Submit(std::move(query));
            const QueryResult result = sub.result.get();
            EXPECT_EQ(result.status, QueryStatus::kOk) << note;
            EXPECT_EQ(result.distance, ExactDistance(graph, s, t))
                << "schedule=" << schedule.name << " s=" << s << " t=" << t
                << " " << note;
            EXPECT_EQ(result.snapshot_version, 1u);
          }
        });
      }
      for (std::thread& t : clients) t.join();
      engine.Drain();
      const QueryEngineStats stats = engine.Stats();
      EXPECT_EQ(stats.sketch_hits + stats.sketch_fallbacks +
                    stats.sketch_stale,
                48u);
    }
    pool.SetStealPolicy(nullptr);
  }
}

// Nonzero tolerance: resolved answers may be inexact but the bounds
// must bracket the truth and respect the tolerance.
TEST(EngineP2PTest, ToleranceBracketsTruth) {
  const uint64_t seed = diff::TrialSeed(23);
  const std::string note = diff::ReproNote(seed);
  Graph graph = SocialNetwork(
      {.num_vertices = 1024, .avg_degree = 8.0, .seed = seed});
  const Vertex n = graph.num_vertices();
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  QueryEngineOptions options;
  options.enable_sketches = true;
  options.sketch = {.num_clusters = 8, .cluster_size = 32};
  options.sketch_workers = 1;
  QueryEngine engine(graph, &pool, options);
  engine.WaitSketchIdle();
  Rng rng(seed);
  uint64_t resolved = 0;
  for (int q = 0; q < 48; ++q) {
    const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
    const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
    Query query;
    query.type = QueryType::kPointToPointDistance;
    query.source = s;
    query.targets = {t};
    query.tolerance = 3;
    auto sub = engine.Submit(std::move(query));
    const QueryResult result = sub.result.get();
    ASSERT_EQ(result.status, QueryStatus::kOk);
    const Level exact = ExactDistance(graph, s, t);
    EXPECT_LE(result.distance_bounds.lower, exact) << note;
    if (exact != kLevelUnreached) {
      EXPECT_GE(result.distance_bounds.upper, exact) << note;
    }
    if (result.sketch_resolved) {
      ++resolved;
      EXPECT_LE(result.distance_bounds.upper -
                    result.distance_bounds.lower,
                3u)
          << note;
      EXPECT_EQ(result.distance, result.distance_bounds.upper);
    } else {
      EXPECT_EQ(result.distance, exact) << note;
    }
  }
  // The hub-heavy social graph resolves most pairs within tolerance 3.
  EXPECT_GT(resolved, 0u) << note;
}

// The staleness contract, deterministically: delete the middle edge of
// a path, then immediately query across the cut with a huge tolerance.
// A stale sketch would happily serve its old finite upper bound; the
// engine must reject it (content version mismatch) and traverse, so
// the answer is "unreachable". The rebuild delay keeps the sketch
// stale for the whole first round of queries.
TEST(EngineP2PChurnTest, NeverServesStaleSketch) {
  const Vertex n = 64;
  Graph graph = Path(n);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngineOptions options;
  options.enable_sketches = true;
  options.sketch = {.num_clusters = 4, .cluster_size = 8};
  options.sketch_workers = 1;
  options.maintenance_debug_delay_ms = 50;
  QueryEngine engine(graph, &pool, options);
  engine.WaitSketchIdle();
  EXPECT_EQ(engine.SketchStats().content_version, 1u);

  // Pre-update sanity: the ends of the path are 63 hops apart.
  Query before;
  before.type = QueryType::kPointToPointDistance;
  before.source = 0;
  before.targets = {n - 1};
  before.tolerance = kMaxLevel;
  EXPECT_EQ(engine.Submit(std::move(before)).result.get().distance, n - 1);

  const EdgeUpdate cut{n / 2, n / 2 + 1, /*insert=*/false};
  const uint64_t new_version = engine.ApplyUpdates({&cut, 1});
  EXPECT_GT(new_version, 1u);
  // Submitted while the delayed rebuild is still running: the published
  // sketch lags this query's snapshot, so the engine must fall back to
  // an exact traversal of the cut graph.
  Query after;
  after.type = QueryType::kPointToPointDistance;
  after.source = 0;
  after.targets = {n - 1};
  after.tolerance = kMaxLevel;
  const QueryResult result = engine.Submit(std::move(after)).result.get();
  EXPECT_EQ(result.status, QueryStatus::kOk);
  EXPECT_EQ(result.distance, kLevelUnreached);
  EXPECT_FALSE(result.sketch_resolved);
  EXPECT_EQ(result.snapshot_version, new_version);

  // Once the rebuild catches up the fresh sketch agrees: still
  // unreachable across the cut, and same-side pairs resolve again.
  engine.WaitSketchIdle();
  EXPECT_EQ(engine.SketchStats().content_version, new_version);
  Query across;
  across.type = QueryType::kPointToPointDistance;
  across.source = 0;
  across.targets = {n - 1};
  across.tolerance = kMaxLevel;
  EXPECT_EQ(engine.Submit(std::move(across)).result.get().distance,
            kLevelUnreached);
  Query same_side;
  same_side.type = QueryType::kPointToPointDistance;
  same_side.source = 0;
  same_side.targets = {n / 4};
  same_side.tolerance = kMaxLevel;
  EXPECT_EQ(engine.Submit(std::move(same_side)).result.get().distance,
            n / 4);

  const QueryEngineStats stats = engine.Stats();
  EXPECT_GE(stats.sketch_stale, 1u);
}

// Serial churn differential: after every ApplyUpdates, tolerance-0 p2p
// answers must equal the rebuild-then-BFS oracle while the rebuilder
// races in the background.
TEST(EngineP2PChurnTest, SerialChurnMatchesRebuildOracle) {
  const uint64_t seed = diff::TrialSeed(31);
  const std::string note = diff::ReproNote(seed);
  const Vertex n = 512;
  Graph graph = ErdosRenyi(n, 1536, seed);
  dyn::EdgeSet reference = dyn::GraphToSet(graph);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  QueryEngineOptions options;
  options.enable_sketches = true;
  options.sketch = {.num_clusters = 6, .cluster_size = 16};
  options.sketch_workers = 1;
  QueryEngine engine(graph, &pool, options);
  Rng rng(seed ^ 2);
  for (int round = 0; round < 8; ++round) {
    std::vector<EdgeUpdate> batch;
    for (int i = 0; i < 12; ++i) {
      EdgeUpdate op;
      op.u = static_cast<Vertex>(rng.NextBounded(n));
      op.v = static_cast<Vertex>(rng.NextBounded(n));
      op.insert = rng.NextBounded(2) == 0;
      batch.push_back(op);
    }
    engine.ApplyUpdates(batch);
    dyn::ApplyToSet(reference, batch);
    const Graph rebuilt = Graph::FromEdges(n, dyn::SetToEdges(reference));
    for (int q = 0; q < 6; ++q) {
      const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
      const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
      Query query;
      query.type = QueryType::kPointToPointDistance;
      query.source = s;
      query.targets = {t};
      auto sub = engine.Submit(std::move(query));
      const QueryResult result = sub.result.get();
      ASSERT_EQ(result.status, QueryStatus::kOk) << note;
      EXPECT_EQ(result.distance, ExactDistance(rebuilt, s, t))
          << "round=" << round << " s=" << s << " t=" << t << " " << note;
    }
  }
  engine.Drain();
  engine.WaitSketchIdle();
  EXPECT_GE(engine.SketchStats().rebuilds, 1u);
}

// Concurrent churn: an updater races client threads; every result must
// bracket the exact distance on the reference graph rebuilt at the
// result's stamped content version.
TEST(EngineP2PChurnTest, ConcurrentChurnBracketsTruth) {
  const uint64_t seed = diff::TrialSeed(41);
  const std::string note = diff::ReproNote(seed);
  const Vertex n = 384;
  Graph graph = ErdosRenyi(n, 1152, seed);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  QueryEngineOptions options;
  options.coalesce_wait_ms = 0.1;
  options.enable_sketches = true;
  options.sketch = {.num_clusters = 6, .cluster_size = 16};
  options.sketch_workers = 1;
  QueryEngine engine(graph, &pool, options);

  // Content-version -> edge set, kept by the single updater thread.
  std::map<uint64_t, dyn::EdgeSet> versions;
  versions[1] = dyn::GraphToSet(graph);
  std::thread updater([&] {
    Rng rng(seed ^ 3);
    dyn::EdgeSet reference = versions[1];
    for (int round = 0; round < 6; ++round) {
      std::vector<EdgeUpdate> batch;
      for (int i = 0; i < 10; ++i) {
        EdgeUpdate op;
        op.u = static_cast<Vertex>(rng.NextBounded(n));
        op.v = static_cast<Vertex>(rng.NextBounded(n));
        op.insert = rng.NextBounded(2) == 0;
        batch.push_back(op);
      }
      const uint64_t version = engine.ApplyUpdates(batch);
      dyn::ApplyToSet(reference, batch);
      versions[version] = reference;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  struct Observed {
    Vertex s = 0;
    Vertex t = 0;
    QueryResult result;
  };
  std::vector<std::vector<Observed>> observed(3);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(seed ^ static_cast<uint64_t>(10 + c));
      for (int q = 0; q < 20; ++q) {
        const Vertex s = static_cast<Vertex>(rng.NextBounded(n));
        const Vertex t = static_cast<Vertex>(rng.NextBounded(n));
        Query query;
        query.type = QueryType::kPointToPointDistance;
        query.source = s;
        query.targets = {t};
        query.tolerance = 2;
        auto sub = engine.Submit(std::move(query));
        observed[c].push_back({s, t, sub.result.get()});
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  updater.join();
  engine.Drain();

  // The updater finished before the clients' last queries were
  // admitted, so every stamped version is in the map (publication is
  // ordered). Verify against the rebuilt CSR per version.
  std::map<uint64_t, Graph> rebuilt;
  for (const std::vector<Observed>& per_client : observed) {
    for (const Observed& obs : per_client) {
      ASSERT_EQ(obs.result.status, QueryStatus::kOk) << note;
      const uint64_t version = obs.result.snapshot_version;
      ASSERT_TRUE(versions.count(version) > 0)
          << "version=" << version << " " << note;
      auto it = rebuilt.find(version);
      if (it == rebuilt.end()) {
        it = rebuilt
                 .emplace(version,
                          Graph::FromEdges(
                              n, dyn::SetToEdges(versions[version])))
                 .first;
      }
      const Level exact = ExactDistance(it->second, obs.s, obs.t);
      EXPECT_LE(obs.result.distance_bounds.lower, exact)
          << "v=" << version << " s=" << obs.s << " t=" << obs.t << " "
          << note;
      if (exact != kLevelUnreached) {
        EXPECT_GE(obs.result.distance_bounds.upper, exact)
            << "v=" << version << " s=" << obs.s << " t=" << obs.t << " "
            << note;
      }
      if (!obs.result.sketch_resolved) {
        EXPECT_EQ(obs.result.distance, exact) << note;
      }
    }
  }
}

}  // namespace
}  // namespace pbfs
