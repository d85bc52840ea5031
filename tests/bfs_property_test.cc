// Property-based checks: structural invariants of BFS results and the
// per-iteration instrumentation, swept over randomized graphs.

#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "bfs/multi_source.h"
#include "bfs/registry.h"
#include "bfs/sequential.h"
#include "bfs/single_source.h"
#include "bfs/validate.h"
#include "differential/diff_util.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "sched/worker_pool.h"
#include "test_util.h"

namespace pbfs {
namespace {

std::string TestNameOf(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

// Runs the registry kernel `name` from `source` (a one-source batch for
// multi-source kernels).
BfsResult RunKernel(const std::string& name, const Graph& g, Vertex source,
                    Executor* executor) {
  diff::KernelUnderTest kernel(name, g, executor);
  EXPECT_TRUE(kernel.known()) << name;
  if (!kernel.known()) return {};
  return kernel.Run(std::span<const Vertex>(&source, 1), BfsOptions{});
}

class RandomGraphProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGraphProperty, AllVariantsProduceValidLevelLabelings) {
  const uint64_t seed = GetParam();
  Graph g = ErdosRenyi(1024 + seed * 97, 2048 + seed * 331, seed);
  ComponentInfo components = ComputeComponents(g);
  std::vector<Vertex> sources = PickSources(g, 3, seed);

  WorkerPool pool({.num_workers = 3, .pin_threads = false});
  std::string error;

  for (SmsVariant variant : {SmsVariant::kBit, SmsVariant::kByte, SmsVariant::kQueue}) {
    std::unique_ptr<SingleSourceBfsBase> bfs =
        MakeSmsPbfs(g, variant, &pool);
    for (Vertex s : sources) {
      std::vector<Level> levels(g.num_vertices());
      bfs->Run(s, BfsOptions{}, levels.data());
      EXPECT_TRUE(ValidateLevels(g, s, levels.data(), &components, &error))
          << SmsVariantName(variant) << " seed=" << seed << ": " << error;
    }
  }

  std::unique_ptr<MultiSourceBfsBase> ms = MakeMsPbfs(g, 64, &pool);
  std::vector<Level> levels(sources.size() * g.num_vertices());
  ms->Run(sources, BfsOptions{}, levels.data());
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_TRUE(ValidateLevels(g, sources[i],
                               levels.data() + i * g.num_vertices(),
                               &components, &error))
        << "ms-pbfs seed=" << seed << " i=" << i << ": " << error;
  }
}

TEST_P(RandomGraphProperty, VisitCountsMatchComponentSizes) {
  const uint64_t seed = GetParam();
  Graph g = ErdosRenyi(512 + seed * 13, 700 + seed * 29, seed ^ 0xabc);
  ComponentInfo components = ComputeComponents(g);
  std::vector<Vertex> sources = PickSources(g, 8, seed);

  SerialExecutor serial;
  std::unique_ptr<MultiSourceBfsBase> ms = MakeMsPbfs(g, 64, &serial);
  MsBfsResult r = ms->Run(sources, BfsOptions{}, nullptr);
  uint64_t expected = 0;
  for (Vertex s : sources) {
    expected += components.vertex_count[components.component_of[s]];
  }
  EXPECT_EQ(r.total_visits, expected);
}

TEST_P(RandomGraphProperty, IterationCountMatchesEccentricity) {
  const uint64_t seed = GetParam();
  Graph g = ErdosRenyi(256, 300, seed ^ 0x5a5a);
  Vertex source = PickSources(g, 1, seed)[0];
  std::vector<Level> ref = testing_util::ReferenceLevels(g, source);
  Level max_level = 0;
  for (Level l : ref) {
    if (l != kLevelUnreached) max_level = std::max(max_level, l);
  }

  SerialExecutor serial;
  for (const std::string& name : diff::NonOracleVariants()) {
    BfsResult r = RunKernel(name, g, source, &serial);
    EXPECT_EQ(r.iterations, max_level) << name;
    EXPECT_LE(r.bottom_up_iterations, r.iterations) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperty,
                         ::testing::Range<uint64_t>(0, 8));

// Every kernel shares one level-counting rule: a level counts toward
// iterations (and bottom_up_iterations) only if it discovered a vertex.
// The second level of Complete(200) from source 1 runs bottom-up and
// discovers nothing, so it must not count.
TEST(IterationAccountingTest, AllKernelsCountTheSameLevels) {
  WorkerPool pool({.num_workers = 3, .pin_threads = false});
  struct Case {
    const char* name;
    Graph graph;
    int iterations;
    int bottom_up_iterations;
  };
  Case cases[] = {{"complete", Complete(200), 1, 0},
                  {"star", Star(1000), 2, 1},
                  {"erdos_renyi", ErdosRenyi(4096, 40000, 7), -1, -1}};
  for (Case& c : cases) {
    BfsResult first = RunKernel("smspbfs_byte", c.graph, 1, &pool);
    if (c.iterations >= 0) {
      EXPECT_EQ(first.iterations, c.iterations) << c.name;
      EXPECT_EQ(first.bottom_up_iterations, c.bottom_up_iterations) << c.name;
    }
    for (const std::string& name : diff::NonOracleVariants()) {
      BfsResult r = RunKernel(name, c.graph, 1, &pool);
      EXPECT_EQ(r.iterations, first.iterations) << name << " on " << c.name;
      // JFQ-MS-BFS is top-down only.
      EXPECT_EQ(r.bottom_up_iterations,
                name == "jfq_msbfs" ? 0 : first.bottom_up_iterations)
          << name << " on " << c.name;
    }
  }
}

// Checks that `stats` holds `iterations` levels, each with one slot per
// worker, that discover `discovered` vertices with one state update each.
void ExpectStatsCover(const TraversalStats& stats, size_t workers,
                      size_t iterations, uint64_t discovered) {
  ASSERT_EQ(stats.iterations().size(), iterations);
  uint64_t found = 0;
  uint64_t updates = 0;
  for (const TraversalStats::Iteration& iter : stats.iterations()) {
    ASSERT_EQ(iter.neighbors_visited.size(), workers);
    ASSERT_EQ(iter.states_updated.size(), workers);
    ASSERT_EQ(iter.busy_ms.size(), workers);
    EXPECT_GE(iter.runtime_ms, 0.0);
    for (double ms : iter.busy_ms) EXPECT_GE(ms, 0.0);
    found += iter.vertices_discovered;
    for (uint64_t u : iter.states_updated) updates += u;
  }
  EXPECT_EQ(found, discovered);
  EXPECT_EQ(updates, found);
}

// The stats agree with the BfsResult the kernel itself returns.
TEST(InstrumentationTest, StatsCoverEveryIteration) {
  Graph g = Kronecker({.scale = 10, .edge_factor = 8, .seed = 111});
  WorkerPool pool({.num_workers = 3, .pin_threads = false});
  TraversalStats stats;
  BfsOptions options;
  options.stats = &stats;

  std::unique_ptr<SingleSourceBfsBase> bfs =
      MakeSmsPbfs(g, SmsVariant::kByte, &pool);
  Vertex source = PickSources(g, 1, 1)[0];
  BfsResult r = bfs->Run(source, options, nullptr);

  // The final, empty iteration is also recorded; the source is not
  // counted as discovered.
  ExpectStatsCover(stats, 3, static_cast<size_t>(r.iterations) + 1,
                   r.vertices_visited - 1);
}

// Every kernel fills the stats, checked against the oracle.
class KernelStatsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelStatsTest, StatsCoverEveryIteration) {
  Graph g = Kronecker({.scale = 10, .edge_factor = 8, .seed = 111});
  WorkerPool pool({.num_workers = 3, .pin_threads = false});
  std::unique_ptr<BfsVariantRunner> runner =
      FindVariantRunner(GetParam(), g, &pool);
  ASSERT_NE(runner, nullptr);
  const size_t workers = runner->desc().parallel ? 3 : 1;

  // Leftovers from an earlier traversal must not survive the run.
  TraversalStats stats;
  stats.Reset(7);
  stats.FinishIteration(Direction::kBottomUp, 1.0, 12345);
  BfsOptions options;
  options.stats = &stats;
  Vertex source = PickSources(g, 1, 1)[0];
  std::vector<Level> levels(g.num_vertices());
  runner->ComputeLevels(std::span<const Vertex>(&source, 1), options,
                        levels.data());

  std::vector<Level> ref = testing_util::ReferenceLevels(g, source);
  Level eccentricity = 0;
  uint64_t reached = 0;
  for (Level l : ref) {
    if (l == kLevelUnreached) continue;
    eccentricity = std::max(eccentricity, l);
    ++reached;
  }
  ExpectStatsCover(stats, workers, static_cast<size_t>(eccentricity) + 1,
                   reached - 1);
}

INSTANTIATE_TEST_SUITE_P(Registry, KernelStatsTest,
                         ::testing::ValuesIn(diff::NonOracleVariants()),
                         TestNameOf);

TEST(InstrumentationTest, TopDownNeighborCountsMatchFrontierDegrees) {
  // Pure top-down: the neighbors visited in iteration d equal the degree
  // sum of the level-(d-1) frontier.
  Graph g = Grid(12, 12);
  SerialExecutor serial;
  TraversalStats stats;
  BfsOptions options;
  options.stats = &stats;
  options.enable_bottom_up = false;

  std::unique_ptr<SingleSourceBfsBase> bfs =
      MakeSmsPbfs(g, SmsVariant::kBit, &serial);
  bfs->Run(0, options, nullptr);
  std::vector<Level> ref = testing_util::ReferenceLevels(g, 0);

  for (size_t d = 0; d < stats.iterations().size(); ++d) {
    uint64_t frontier_degree = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      if (ref[v] == static_cast<Level>(d)) frontier_degree += g.Degree(v);
    }
    uint64_t visited = std::accumulate(
        stats.iterations()[d].neighbors_visited.begin(),
        stats.iterations()[d].neighbors_visited.end(), uint64_t{0});
    EXPECT_EQ(visited, frontier_degree) << "iteration " << d;
    EXPECT_EQ(stats.iterations()[d].direction, Direction::kTopDown);
  }
}

TEST(InstrumentationTest, MultiSourceStats) {
  Graph g = SocialNetwork({.num_vertices = 2048, .avg_degree = 10.0,
                           .seed = 7});
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  TraversalStats stats;
  BfsOptions options;
  options.stats = &stats;

  std::unique_ptr<MultiSourceBfsBase> ms = MakeMsPbfs(g, 64, &pool);
  std::vector<Vertex> sources = PickSources(g, 64, 3);
  MsBfsResult r = ms->Run(sources, options, nullptr);
  ASSERT_GE(stats.iterations().size(), 1u);
  ASSERT_EQ(stats.iterations().size(),
            static_cast<size_t>(r.iterations) + 1);
  uint64_t updated = 0;
  for (const TraversalStats::Iteration& iter : stats.iterations()) {
    for (uint64_t u : iter.states_updated) updated += u;
  }
  EXPECT_GT(updated, 0u);
}

TEST(InstrumentationTest, ResetClearsHistory) {
  TraversalStats stats;
  stats.Reset(2);
  stats.Accumulate(0, 10, 5, 100);
  stats.Accumulate(1, 20, 7, 200);
  stats.FinishIteration(Direction::kTopDown, 1.5, 12);
  ASSERT_EQ(stats.iterations().size(), 1u);
  EXPECT_EQ(stats.iterations()[0].neighbors_visited[0], 10u);
  EXPECT_EQ(stats.iterations()[0].neighbors_visited[1], 20u);
  EXPECT_EQ(stats.iterations()[0].vertices_discovered, 12u);

  stats.Reset(2);
  EXPECT_TRUE(stats.iterations().empty());
}

TEST(SequentialBfsTest, KnownDistancesOnPath) {
  Graph g = Path(6);
  std::vector<Level> levels(6);
  BfsResult r = SequentialBfs(g, 2, levels.data());
  EXPECT_EQ(levels, (std::vector<Level>{2, 1, 0, 1, 2, 3}));
  EXPECT_EQ(r.vertices_visited, 6u);
  EXPECT_EQ(r.iterations, 3);
}

TEST(SequentialBfsTest, DisconnectedStaysUnreached) {
  Graph g = Graph::FromEdges(4, std::vector<Edge>{{0, 1}});
  std::vector<Level> levels(4);
  BfsResult r = SequentialBfs(g, 0, levels.data());
  EXPECT_EQ(levels[2], kLevelUnreached);
  EXPECT_EQ(levels[3], kLevelUnreached);
  EXPECT_EQ(r.vertices_visited, 2u);
}

}  // namespace
}  // namespace pbfs
