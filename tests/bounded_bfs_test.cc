// Bounded-depth traversal (BfsOptions::max_level): every kernel must
// visit exactly the vertices within the radius and report levels capped
// at the bound. The batch sink (bfs/result_sink.h) ends a traversal on
// its own once its answers are known, on the multi- and single-source
// kernels alike.

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "bfs/beamer.h"
#include "bfs/multi_source.h"
#include "bfs/result_sink.h"
#include "bfs/single_source.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "sched/worker_pool.h"
#include "test_util.h"

namespace pbfs {
namespace {

// Truncates a full-level reference to radius `max`.
std::vector<Level> Bounded(const std::vector<Level>& full, Level max) {
  std::vector<Level> bounded(full.size(), kLevelUnreached);
  for (size_t v = 0; v < full.size(); ++v) {
    if (full[v] != kLevelUnreached && full[v] <= max) bounded[v] = full[v];
  }
  return bounded;
}

uint64_t CountReached(const std::vector<Level>& levels) {
  uint64_t count = 0;
  for (Level l : levels) {
    if (l != kLevelUnreached) ++count;
  }
  return count;
}

class BoundedBfsTest : public ::testing::TestWithParam<Level> {};

TEST_P(BoundedBfsTest, SingleSourceKernelsRespectRadius) {
  const Level radius = GetParam();
  BfsOptions options;
  options.max_level = radius;

  Graph graphs[] = {Path(300), Grid(20, 20),
                    SocialNetwork({.num_vertices = 2048, .avg_degree = 8.0,
                                   .seed = 31})};
  WorkerPool pool({.num_workers = 3, .pin_threads = false});
  for (const Graph& g : graphs) {
    const Vertex source = g.num_vertices() / 2;
    std::vector<Level> expected =
        Bounded(testing_util::ReferenceLevels(g, source), radius);
    std::vector<Level> got(g.num_vertices());

    for (SmsVariant variant : {SmsVariant::kBit, SmsVariant::kByte,
                               SmsVariant::kQueue}) {
      auto bfs = MakeSmsPbfs(g, variant, &pool);
      BfsResult r = bfs->Run(source, options, got.data());
      EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
          << SmsVariantName(variant) << " radius " << radius;
      EXPECT_EQ(r.vertices_visited, CountReached(expected))
          << SmsVariantName(variant);
      EXPECT_LE(r.iterations, static_cast<int>(radius));
    }
    for (BeamerVariant variant : {BeamerVariant::kSparse,
                                  BeamerVariant::kDense,
                                  BeamerVariant::kGapbs}) {
      BfsResult r = BeamerBfs(g, source, variant, options, got.data());
      EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
          << BeamerVariantName(variant) << " radius " << radius;
      EXPECT_EQ(r.vertices_visited, CountReached(expected));
      EXPECT_LE(r.iterations, static_cast<int>(radius));
    }
  }
}

TEST_P(BoundedBfsTest, MultiSourceKernelsRespectRadius) {
  const Level radius = GetParam();
  BfsOptions options;
  options.max_level = radius;

  Graph g = SocialNetwork({.num_vertices = 2048, .avg_degree = 8.0,
                           .seed = 31});
  const Vertex n = g.num_vertices();
  std::vector<Vertex> sources = PickSources(g, 5, 3);
  SerialExecutor serial;

  auto check = [&](MultiSourceBfsBase* bfs, const char* name) {
    std::vector<Level> levels(sources.size() * n);
    bfs->Run(sources, options, levels.data());
    for (size_t i = 0; i < sources.size(); ++i) {
      std::vector<Level> expected =
          Bounded(testing_util::ReferenceLevels(g, sources[i]), radius);
      std::vector<Level> got(levels.begin() + i * n,
                             levels.begin() + (i + 1) * n);
      EXPECT_EQ(testing_util::FirstLevelMismatch(expected, got), -1)
          << name << " source index " << i << " radius " << radius;
    }
  };
  auto mspbfs = MakeMsPbfs(g, 64, &serial);
  check(mspbfs.get(), "ms-pbfs");
  auto msbfs = MakeMsBfs(g, 64);
  check(msbfs.get(), "ms-bfs");
  auto jfq = MakeJfqMsBfs(g, 64);
  check(jfq.get(), "jfq");
}

INSTANTIATE_TEST_SUITE_P(Radii, BoundedBfsTest,
                         ::testing::Values<Level>(0, 1, 2, 5),
                         [](const ::testing::TestParamInfo<Level>& info) {
                           return "radius" + std::to_string(info.param);
                         });

TEST(BoundedBfsTest, ZeroRadiusVisitsOnlySource) {
  Graph g = Star(50);
  SerialExecutor serial;
  BfsOptions options;
  options.max_level = 0;
  auto bfs = MakeSmsPbfs(g, SmsVariant::kBit, &serial);
  std::vector<Level> levels(g.num_vertices());
  BfsResult r = bfs->Run(0, options, levels.data());
  EXPECT_EQ(r.vertices_visited, 1u);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(levels[0], 0);
  EXPECT_EQ(levels[1], kLevelUnreached);
}

// The single-source kernels the sink tests run, one instance each.
std::vector<std::unique_ptr<SingleSourceBfsBase>> SingleSourceKernels(
    const Graph& g, Executor* executor) {
  std::vector<std::unique_ptr<SingleSourceBfsBase>> kernels;
  for (SmsVariant variant :
       {SmsVariant::kBit, SmsVariant::kByte, SmsVariant::kQueue}) {
    kernels.push_back(MakeSmsPbfs(g, variant, executor));
  }
  return kernels;
}

// The engine's batch sink ends a traversal at its last target: on a
// path, a width-64 batch (or a lone source on a single-source kernel)
// whose targets all lie within 3 hops of their sources runs at most 3
// levels, while the full-levels entry point on the same instance still
// runs the whole component and writes the oracle's rows. A target added
// as unreachable is answered so and does not hold the batch open, even
// where the traversal would reach it.
TEST(ResultSinkTest, TargetSinkStopsAtLastTarget) {
  const Vertex n = 1000;
  Graph g = Path(n);
  std::vector<Vertex> sources;
  for (Vertex i = 0; i < 64; ++i) sources.push_back(i * 15);
  WorkerPool pool({.num_workers = 3, .pin_threads = false});

  // Slot i asks for targets around srcs[i]; `run` runs the sink and
  // returns the levels it took.
  auto run_targets = [&](std::span<const Vertex> srcs, int num_workers,
                         const char* name, auto&& run) {
    const int slots = static_cast<int>(srcs.size());
    BatchSink sink;
    sink.Reset(n, num_workers);
    for (int i = 0; i < slots; ++i) {
      const Vertex s = srcs[i];
      sink.AddTarget(i, s);      // the source itself
      sink.AddTarget(i, s + 3);  // the farthest target
      sink.AddTarget(i, s + 1);
      sink.AddTarget(i, s + 1);  // repeated
      if (s >= 2) sink.AddTarget(i, s - 2);
      if (s + 500 < n) sink.AddUnreachableTarget(i, s + 500);
    }
    sink.Seal();
    EXPECT_LE(run(sink), 3) << name;
    for (int i = 0; i < slots; ++i) {
      const Vertex s = srcs[i];
      EXPECT_EQ(sink.TargetLevel(i, s), 0) << name << " slot " << i;
      EXPECT_EQ(sink.TargetLevel(i, s + 1), 1) << name << " slot " << i;
      EXPECT_EQ(sink.TargetLevel(i, s + 3), 3) << name << " slot " << i;
      if (s >= 2) {
        EXPECT_EQ(sink.TargetLevel(i, s - 2), 2) << name << " slot " << i;
      }
      if (s + 500 < n) {
        EXPECT_EQ(sink.TargetLevel(i, s + 500), kLevelUnreached)
            << name << " slot " << i;
      }
    }
  };
  auto batch_run = [&](MultiSourceBfsBase* bfs) {
    return [&sources, bfs](BatchSink& sink) {
      return bfs->Run(sources, BfsOptions{}, sink).iterations;
    };
  };
  auto mspbfs = MakeMsPbfs(g, 64, &pool);
  run_targets(sources, pool.num_workers(), "ms-pbfs", batch_run(mspbfs.get()));
  auto msbfs = MakeMsBfs(g, 64);
  run_targets(sources, 1, "ms-bfs", batch_run(msbfs.get()));
  auto jfq = MakeJfqMsBfs(g, 64);
  run_targets(sources, 1, "jfq", batch_run(jfq.get()));

  // Full rows after a sink run on the same instance: the oracle's rows,
  // and every level of the component (source 0 is 999 hops from the
  // far end).
  std::vector<Level> levels(sources.size() * n);
  MsBfsResult full = mspbfs->Run(sources, BfsOptions{}, levels.data());
  EXPECT_EQ(full.iterations, static_cast<int>(n) - 1);
  for (size_t i = 0; i < sources.size(); ++i) {
    std::vector<Level> got(levels.begin() + i * n,
                           levels.begin() + (i + 1) * n);
    EXPECT_EQ(testing_util::FirstLevelMismatch(
                  testing_util::ReferenceLevels(g, sources[i]), got),
              -1)
        << "source index " << i;
  }

  // A lone source (15, 984 hops from the far end) on the single-source
  // kernels, then a full row on the same instance.
  const Vertex lone = sources[1];
  const std::vector<Level> expected = testing_util::ReferenceLevels(g, lone);
  for (auto& bfs : SingleSourceKernels(g, &pool)) {
    const char* name = SmsVariantName(bfs->variant());
    run_targets({&lone, 1}, pool.num_workers(), name, [&](BatchSink& sink) {
      return bfs->Run(lone, BfsOptions{}, sink).iterations;
    });
    std::vector<Level> row(n);
    const BfsResult r = bfs->Run(lone, BfsOptions{}, row.data());
    EXPECT_EQ(r.iterations, static_cast<int>(n - 1 - lone)) << name;
    EXPECT_EQ(testing_util::FirstLevelMismatch(expected, row), -1) << name;
  }
}

// k-hop counts and level rows share one batch with targets: the counts
// match the rows, and a row slot keeps the traversal running to the end.
// A single-source kernel runs a radius-r k-hop slot for exactly r levels,
// and a row slot to the end.
TEST(ResultSinkTest, KHopCountsAndRowsMatchFullLevels) {
  Graph g = SocialNetwork({.num_vertices = 2048, .avg_degree = 8.0,
                           .seed = 31});
  const Vertex n = g.num_vertices();
  std::vector<Vertex> sources = PickSources(g, 40, 3);
  WorkerPool pool({.num_workers = 3, .pin_threads = false});
  auto bfs = MakeMsPbfs(g, 64, &pool);
  std::vector<Level> full(sources.size() * n);
  const MsBfsResult full_result =
      bfs->Run(sources, BfsOptions{}, full.data());

  BatchSink sink;
  sink.Reset(n, pool.num_workers());
  std::vector<Level> row(n);
  for (int i = 0; i < static_cast<int>(sources.size()); ++i) {
    if (i == 7) {
      sink.AddRow(i, row.data());
    } else {
      sink.AddKHop(i, static_cast<Level>(i % 4));
    }
  }
  sink.Seal();
  const MsBfsResult r = bfs->Run(sources, BfsOptions{}, sink);
  EXPECT_EQ(r.iterations, full_result.iterations);
  EXPECT_TRUE(std::equal(row.begin(), row.end(), full.begin() + 7 * n));
  for (int i = 0; i < static_cast<int>(sources.size()); ++i) {
    if (i == 7) continue;
    const Level radius = static_cast<Level>(i % 4);
    EXPECT_EQ(sink.KHopSizes(i, radius),
              testing_util::KHopSizesFromLevels({full.data() + i * n, n},
                                                radius))
        << "slot " << i;
  }

  const Vertex source = sources[0];
  const std::vector<Level> expected =
      testing_util::ReferenceLevels(g, source);
  for (auto& single : SingleSourceKernels(g, &pool)) {
    const char* name = SmsVariantName(single->variant());
    const BfsResult full_single =
        single->Run(source, BfsOptions{}, row.data());
    for (Level radius = 0; radius <= 3; ++radius) {
      sink.Reset(n, pool.num_workers());
      sink.AddKHop(0, radius);
      sink.Seal();
      EXPECT_EQ(single->Run(source, BfsOptions{}, sink).iterations, radius)
          << name << " radius " << radius;
      EXPECT_EQ(sink.KHopSizes(0, radius),
                testing_util::KHopSizesFromLevels(expected, radius))
          << name << " radius " << radius;
    }
    sink.Reset(n, pool.num_workers());
    sink.AddRow(0, row.data());
    sink.Seal();
    EXPECT_EQ(single->Run(source, BfsOptions{}, sink).iterations,
              full_single.iterations)
        << name;
    EXPECT_EQ(testing_util::FirstLevelMismatch(expected, row), -1) << name;
  }
}

}  // namespace
}  // namespace pbfs
