// Scheduler schedule-perturbation suite.
//
// Forces the pathological work-stealing interleavings that natural
// timing almost never produces — every task stolen, one worker starved,
// queues scanned in reverse — and checks two things under each forced
// schedule: the TaskQueues exactly-once invariant, and that every
// parallel BFS variant still reproduces the sequential oracle's levels.
// Runs under ThreadSanitizer in CI (ctest -L sched).

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bfs/registry.h"
#include "diff_util.h"
#include "sched/steal_policy.h"
#include "sched/task_queues.h"
#include "sched/worker_pool.h"

namespace pbfs {
namespace {

// Drains `queues` from a single thread, interleaving the workers'
// fetches in a seeded random order — a deterministic stand-in for "any
// schedule" — and returns how many times each vertex was covered.
std::vector<int> DrainWithRandomInterleaving(TaskQueues& queues,
                                             uint64_t total, uint64_t seed) {
  const int workers = queues.num_workers();
  std::vector<int> cursors(workers, 0);
  std::vector<bool> done(workers, false);
  std::vector<int> covered(total, 0);
  Rng rng(seed);
  int live = workers;
  while (live > 0) {
    int w = static_cast<int>(rng.NextBounded(workers));
    if (done[w]) continue;
    TaskRange r = queues.Fetch(w, &cursors[w]);
    if (r.empty()) {
      done[w] = true;
      --live;
      continue;
    }
    for (uint64_t v = r.begin; v < r.end; ++v) ++covered[v];
  }
  return covered;
}

// ---------------------------------------------------------------------
// TaskQueues invariants (satellites: zero-total regression, exactly-once
// property over arbitrary schedules).
// ---------------------------------------------------------------------

TEST(TaskQueuesRegressionTest, ZeroTotalFetchesNothing) {
  TaskQueues queues(3);
  // Prior loop leaves nonzero split_size_ and queue counts behind.
  queues.Reset(100, 16);
  int cursor = 0;
  EXPECT_FALSE(queues.Fetch(0, &cursor).empty());
  // A zero-vertex loop must fetch nothing for any worker, regardless of
  // the leftover state.
  queues.Reset(0, 16);
  EXPECT_EQ(queues.num_tasks(), 0u);
  for (int w = 0; w < 3; ++w) {
    cursor = 0;
    EXPECT_TRUE(queues.Fetch(w, &cursor).empty()) << "worker " << w;
  }
  // And the next real loop starts from fully reinitialized state.
  queues.Reset(32, 8);
  uint64_t seen = 0;
  for (int w = 0; w < 3; ++w) {
    cursor = 0;
    for (;;) {
      TaskRange r = queues.Fetch(w, &cursor);
      if (r.empty()) break;
      seen += r.size();
    }
  }
  EXPECT_EQ(seen, 32u);
}

TEST(TaskQueuesRegressionTest, FetchBeforeAnyResetIsEmpty) {
  TaskQueues queues(2);
  int cursor = 0;
  EXPECT_TRUE(queues.Fetch(0, &cursor).empty());
  EXPECT_TRUE(queues.Fetch(1, &cursor).empty());
}

TEST(TaskQueuesRegressionTest, ShrinkingResetDropsOldTasks) {
  TaskQueues queues(4);
  queues.Reset(10000, 64);
  int cursor = 0;
  EXPECT_FALSE(queues.Fetch(2, &cursor).empty());
  // Reset to a much smaller loop: exactly the new range is covered.
  queues.Reset(96, 32);
  std::vector<int> covered = DrainWithRandomInterleaving(queues, 96, 7);
  for (int c : covered) EXPECT_EQ(c, 1);
}

TEST(WorkerPoolRegressionTest, EmptyLoopResetsQueueState) {
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  std::atomic<uint64_t> covered{0};
  pool.ParallelFor(640, 64, [&](int, uint64_t b, uint64_t e) {
    covered.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), 640u);
  // A zero-vertex loop between real loops must not replay stale tasks.
  bool called = false;
  pool.ParallelFor(0, 64, [&](int, uint64_t, uint64_t) { called = true; });
  EXPECT_FALSE(called);
  covered.store(0);
  pool.ParallelFor(100, 64, [&](int, uint64_t b, uint64_t e) {
    covered.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), 100u);
}

struct PropertyCase {
  int workers;
  uint64_t total;
  uint32_t split;
};

class TaskQueuesPropertyTest
    : public ::testing::TestWithParam<PropertyCase> {};

// Every task in [0, num_tasks) is returned exactly once across any
// worker/steal-cursor schedule.
TEST_P(TaskQueuesPropertyTest, ExactlyOnceUnderRandomSchedules) {
  const PropertyCase pc = GetParam();
  TaskQueues queues(pc.workers);
  for (uint64_t trial = 0; trial < 8; ++trial) {
    uint64_t seed = SplitMix64(diff::BaseSeed() ^ (trial + 1));
    queues.Reset(pc.total, pc.split);
    std::vector<int> covered =
        DrainWithRandomInterleaving(queues, pc.total, seed);
    for (uint64_t v = 0; v < pc.total; ++v) {
      ASSERT_EQ(covered[v], 1)
          << "vertex " << v << " " << diff::ReproNote(seed);
    }
  }
}

// Same invariant with real concurrency.
TEST_P(TaskQueuesPropertyTest, ExactlyOnceUnderConcurrentFetch) {
  const PropertyCase pc = GetParam();
  TaskQueues queues(pc.workers);
  queues.Reset(pc.total, pc.split);
  std::vector<std::atomic<int>> covered(pc.total);
  for (auto& c : covered) c.store(0);
  std::vector<std::thread> threads;
  for (int w = 0; w < pc.workers; ++w) {
    threads.emplace_back([&, w] {
      int cursor = 0;
      for (;;) {
        TaskRange r = queues.Fetch(w, &cursor);
        if (r.empty()) break;
        for (uint64_t v = r.begin; v < r.end; ++v) {
          covered[v].fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (uint64_t v = 0; v < pc.total; ++v) {
    ASSERT_EQ(covered[v].load(), 1) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TaskQueuesPropertyTest,
    ::testing::Values(PropertyCase{1, 1000, 64},       // single worker
                      PropertyCase{4, 1000, 64},       // balanced
                      PropertyCase{8, 3, 1},           // workers > tasks
                      PropertyCase{4, 10, 64},         // split > total
                      PropertyCase{3, 1, 4096},        // one tiny task
                      PropertyCase{7, 100000, 128}),   // many tasks
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      // Append steps, not one operator+ chain: the chain trips a GCC 12
      // -Wrestrict false positive at -O2.
      std::string name = "w";
      name += std::to_string(info.param.workers);
      name += "_n";
      name += std::to_string(info.param.total);
      name += "_s";
      name += std::to_string(info.param.split);
      return name;
    });

// ---------------------------------------------------------------------
// Forced perturbation schedules.
// ---------------------------------------------------------------------

// Exactly-once must hold under every perturbation schedule: a policy
// whose probe offsets were not a permutation would silently drop tasks.
TEST(SchedPerturbTest, ExactlyOnceUnderEveryPerturbation) {
  for (const NamedStealPolicy& np : PerturbationSchedules()) {
    for (const PropertyCase& pc :
         {PropertyCase{4, 1000, 64}, PropertyCase{8, 3, 1},
          PropertyCase{4, 10, 64}, PropertyCase{2, 5000, 16}}) {
      TaskQueues queues(pc.workers);
      queues.SetStealPolicy(np.policy);
      queues.Reset(pc.total, pc.split);
      std::vector<int> covered =
          DrainWithRandomInterleaving(queues, pc.total, 11);
      for (uint64_t v = 0; v < pc.total; ++v) {
        ASSERT_EQ(covered[v], 1)
            << "schedule=" << np.name << " workers=" << pc.workers
            << " total=" << pc.total << " vertex=" << v;
      }
    }
  }
}

// The probe offsets of every policy form a permutation of [0, W) for
// every worker and cursor value — the contract Fetch relies on.
TEST(SchedPerturbTest, ProbeOffsetsAreAPermutation) {
  for (const NamedStealPolicy& np : PerturbationSchedules()) {
    for (int workers : {1, 2, 3, 4, 7, 8}) {
      for (int worker = 0; worker < workers; ++worker) {
        for (int cursor = 0; cursor < workers; ++cursor) {
          std::vector<bool> seen(workers, false);
          for (int probe = 0; probe < workers; ++probe) {
            int offset =
                np.policy->ProbeOffset(worker, probe, workers, cursor);
            ASSERT_GE(offset, 0) << np.name;
            ASSERT_LT(offset, workers) << np.name;
            ASSERT_FALSE(seen[offset])
                << np.name << " repeats offset " << offset << " for worker "
                << worker << "/" << workers << " cursor " << cursor;
            seen[offset] = true;
          }
        }
      }
    }
  }
}

// Steal-heavy: with the policy installed, a sequential drain by worker 0
// fetches from every other queue before touching its own.
TEST(SchedPerturbTest, StealHeavyRaidsOtherQueuesFirst) {
  StealHeavyPolicy policy;
  TaskQueues queues(4);
  queues.SetStealPolicy(&policy);
  queues.Reset(8 * 64, 64);  // 8 tasks: worker w owns tasks w, w+4
  int cursor = 0;
  // Worker 0's first fetch must come from queue 1 (task 1), not its own
  // queue (task 0).
  TaskRange r = queues.Fetch(0, &cursor);
  EXPECT_EQ(r.begin, 64u);
}

// Reversed: queues are drained in descending queue order regardless of
// which worker fetches.
TEST(SchedPerturbTest, ReversedOrderDrainsHighestQueueFirst) {
  ReversedOrderPolicy policy;
  TaskQueues queues(4);
  queues.SetStealPolicy(&policy);
  queues.Reset(4 * 64, 64);  // tasks 0..3, task w in queue w
  int cursor = 0;
  TaskRange r = queues.Fetch(1, &cursor);
  EXPECT_EQ(r.begin, 3u * 64);  // queue 3 first
  r = queues.Fetch(1, &cursor);
  EXPECT_EQ(r.begin, 2u * 64);
}

// Starvation: thieves empty the victim's queue before their own.
TEST(SchedPerturbTest, StarvationVictimQueueRaidedFirst) {
  StarvationPolicy policy(/*victim=*/0, /*victim_yields=*/1);
  TaskQueues queues(4);
  queues.SetStealPolicy(&policy);
  queues.Reset(8 * 64, 64);
  int cursor = 0;
  // Worker 2 fetches the victim's tasks (0, then 4) before its own.
  TaskRange r = queues.Fetch(2, &cursor);
  EXPECT_EQ(r.begin, 0u);
  cursor = 0;
  r = queues.Fetch(2, &cursor);
  EXPECT_EQ(r.begin, 4u * 64);
}

// WorkerPool under perturbation still covers ranges exactly once, and
// steal-heavy actually steals nearly everything.
TEST(SchedPerturbTest, WorkerPoolCoversExactlyOnceUnderPerturbations) {
  for (const NamedStealPolicy& np : PerturbationSchedules()) {
    WorkerPool pool({.num_workers = 4, .pin_threads = false});
    pool.SetStealPolicy(np.policy);
    const uint64_t kTotal = 54321;
    std::vector<std::atomic<uint8_t>> hits(kTotal);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(kTotal, 100, [&](int, uint64_t b, uint64_t e) {
      for (uint64_t v = b; v < e; ++v) {
        hits[v].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (uint64_t v = 0; v < kTotal; ++v) {
      ASSERT_EQ(hits[v].load(), 1u) << np.name << " vertex " << v;
    }
  }
}

TEST(SchedPerturbTest, StealHeavyInflatesStealFraction) {
  StealHeavyPolicy policy;
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  pool.SetStealPolicy(&policy);
  pool.ResetSchedulerStats();
  pool.ParallelFor(100000, 64, [](int, uint64_t, uint64_t) {});
  WorkerPool::SchedulerStats stats = pool.scheduler_stats();
  EXPECT_EQ(stats.local_tasks + stats.stolen_tasks, (100000u + 63) / 64);
  // Offset 0 (own queue) is probed last, so the overwhelming majority of
  // fetches are steals; without the policy this fraction is near zero.
  EXPECT_GT(stats.StealFraction(), 0.5);
}

// ---------------------------------------------------------------------
// Differential BFS under forced schedules: the paper's determinism claim
// under the interleavings that actually stress it.
// ---------------------------------------------------------------------

TEST(SchedPerturbTest, AllParallelVariantsMatchOracleUnderPerturbations) {
  uint64_t seed = diff::TrialSeed(77);
  std::vector<diff::CorpusGraph> corpus = diff::MakeCorpus(seed);
  BfsOptions options;
  options.split_size = 64;  // many tiny tasks: maximal interleaving
  for (const NamedStealPolicy& np : PerturbationSchedules()) {
    WorkerPool pool({.num_workers = 4, .pin_threads = false});
    pool.SetStealPolicy(np.policy);
    uint64_t sub_seed = seed;
    for (const diff::CorpusGraph& gc : corpus) {
      sub_seed = SplitMix64(sub_seed);
      const Vertex n = gc.graph.num_vertices();
      std::vector<Vertex> sources = diff::CorpusSources(gc.graph, 4, sub_seed);
      std::vector<Level> oracle = diff::OracleLevels(gc.graph, sources);
      for (auto& runner : MakeAllVariantRunners(gc.graph, &pool)) {
        if (!runner->desc().parallel) continue;  // schedule-independent
        std::vector<Level> got(sources.size() * n, Level{0xABCD});
        runner->ComputeLevels(sources, options, got.data());
        std::string d = diff::DiffAgainstOracle(oracle, got, n);
        EXPECT_TRUE(d.empty())
            << runner->desc().name << " under schedule=" << np.name
            << " diverges on " << gc.name << ": " << d << " "
            << diff::ReproNote(seed);
      }
    }
  }
}

}  // namespace
}  // namespace pbfs
