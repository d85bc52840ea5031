// Kernel-level microbenchmarks (google-benchmark): bitset operations at
// every supported width, atomic OR updates, task queue fetch cost, task
// creation, labeling computation, single top-down / bottom-up
// iterations, one MS-PBFS batch into each result sink, and the wire
// codec on a full level row. These quantify the low-level claims of the
// paper — task fetch is "barely more than an atomic increment", wide
// bitset steps amortize over concurrent BFSs — and serve as regression
// guards.

#include <benchmark/benchmark.h>

#include "bfs/multi_source.h"
#include "bfs/result_sink.h"
#include "bfs/sequential.h"
#include "bfs/single_source.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "graph/labeling.h"
#include "sched/executor.h"
#include "sched/task_queues.h"
#include "server/protocol.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace pbfs {
namespace {

template <int kBits>
void BM_BitsetOrNotAnd(benchmark::State& state) {
  // The MS-BFS inner step: next = next | (frontier & ~seen).
  Bitset<kBits> next = Bitset<kBits>::Zero();
  Bitset<kBits> frontier = Bitset<kBits>::LowBits(kBits / 2);
  Bitset<kBits> seen = Bitset<kBits>::LowBits(kBits / 3);
  for (auto _ : state) {
    next |= frontier & ~seen;
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(state.iterations() * kBits);
}
BENCHMARK(BM_BitsetOrNotAnd<64>);
BENCHMARK(BM_BitsetOrNotAnd<128>);
BENCHMARK(BM_BitsetOrNotAnd<256>);
BENCHMARK(BM_BitsetOrNotAnd<512>);

template <int kBits>
void BM_BitsetAtomicOr(benchmark::State& state) {
  Bitset<kBits> target = Bitset<kBits>::Zero();
  Bitset<kBits> source = Bitset<kBits>::LowBits(kBits / 2);
  for (auto _ : state) {
    target.AtomicOr(source);
    benchmark::DoNotOptimize(target);
  }
}
BENCHMARK(BM_BitsetAtomicOr<64>);
BENCHMARK(BM_BitsetAtomicOr<512>);

void BM_AtomicFetchOrIfChanged_NoChange(benchmark::State& state) {
  // The common case the paper optimizes: the word already contains the
  // bits, so the atomic write (and its cache-line invalidation) is
  // skipped.
  uint64_t word = ~uint64_t{0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(AtomicFetchOrIfChanged(&word, 0xff));
  }
}
BENCHMARK(BM_AtomicFetchOrIfChanged_NoChange);

void BM_AtomicFetchOrIfChanged_Change(benchmark::State& state) {
  uint64_t word = 0;
  uint64_t bit = 1;
  for (auto _ : state) {
    word = 0;
    benchmark::DoNotOptimize(AtomicFetchOrIfChanged(&word, bit));
  }
}
BENCHMARK(BM_AtomicFetchOrIfChanged_Change);

void BM_TaskFetchOwnQueue(benchmark::State& state) {
  // Cost of one task fetch from the worker's own queue.
  TaskQueues queues(4);
  int cursor = 0;
  uint64_t fetched = 0;
  queues.Reset(1u << 30, 1024);
  for (auto _ : state) {
    TaskRange r = queues.Fetch(0, &cursor);
    benchmark::DoNotOptimize(r);
    if (++fetched % 100000 == 0) queues.Reset(1u << 30, 1024);
  }
}
BENCHMARK(BM_TaskFetchOwnQueue);

void BM_TaskCreate(benchmark::State& state) {
  // CreateTasks for a graph of 2^20 vertices (paper: "barely
  // measurable").
  TaskQueues queues(60);
  for (auto _ : state) {
    queues.Reset(1u << 20, 256);
    benchmark::DoNotOptimize(queues.num_tasks());
  }
}
BENCHMARK(BM_TaskCreate);

void BM_ComputeStripedLabeling(benchmark::State& state) {
  Graph g = Kronecker({.scale = 14, .edge_factor = 8, .seed = 1});
  for (auto _ : state) {
    auto perm = ComputeLabeling(g, Labeling::kStriped,
                                {.num_workers = 8, .split_size = 1024});
    benchmark::DoNotOptimize(perm);
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_ComputeStripedLabeling);

void BM_ComputeDegreeOrderedLabeling(benchmark::State& state) {
  Graph g = Kronecker({.scale = 14, .edge_factor = 8, .seed = 1});
  for (auto _ : state) {
    auto perm = ComputeLabeling(g, Labeling::kDegreeOrdered);
    benchmark::DoNotOptimize(perm);
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_ComputeDegreeOrderedLabeling);

void BM_FullSmsPbfs(benchmark::State& state) {
  const SmsVariant variant =
      state.range(0) == 0 ? SmsVariant::kBit : SmsVariant::kByte;
  Graph g = Kronecker({.scale = 14, .edge_factor = 16, .seed = 2});
  SerialExecutor serial;
  auto bfs = MakeSmsPbfs(g, variant, &serial);
  Vertex source = PickSources(g, 1, 3)[0];
  std::vector<Level> row(state.range(1) == 0 ? 0 : g.num_vertices());
  Level* levels = row.empty() ? nullptr : row.data();
  for (auto _ : state) {
    BfsResult r = bfs->Run(source, BfsOptions{}, levels);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
// Second arg: no output (0, the null sink) or one full level row (1,
// the full-levels sink), the two instantiations of the kernel template.
BENCHMARK(BM_FullSmsPbfs)->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"bit0_byte1", "null0_row1"});

void BM_FullMsPbfsBatch(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  Graph g = Kronecker({.scale = 13, .edge_factor = 16, .seed = 2});
  SerialExecutor serial;
  auto bfs = MakeMsPbfs(g, width, &serial);
  std::vector<Vertex> sources = PickSources(g, width, 3);
  for (auto _ : state) {
    MsBfsResult r = bfs->Run(sources, BfsOptions{}, nullptr);
    benchmark::DoNotOptimize(r);
  }
  // Edge traversals amortized over the whole batch.
  state.SetItemsProcessed(state.iterations() * g.num_edges() * width);
}
BENCHMARK(BM_FullMsPbfsBatch)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Arg(1024)->ArgName("width");

// One width-64 MS-PBFS batch on a 2^16-vertex social graph, delivered
// to the full-levels sink (arg 0: 64 rows of |V| levels, what the query
// engine wrote for every batch before it had a batch sink), to the
// engine's batch sink with 4 targets per slot, which ends the batch at
// its last target (arg 1), or to the batch sink with a row for every
// slot, an all-kLevels batch (arg 2). The in-process A/B for result-sink
// changes; `levels` reports the levels the batch ran.
void BM_MsPbfsSink(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  static const Graph g = SocialNetwork(
      {.num_vertices = 1 << 16, .avg_degree = 12.0, .seed = 5});
  const Vertex n = g.num_vertices();
  SerialExecutor serial;
  auto bfs = MakeMsPbfs(g, 64, &serial);
  // Sources and targets from the component of the highest-degree
  // vertex, so every target resolves and the batch ends at the farthest.
  Vertex hub = 0;
  for (Vertex v = 1; v < n; ++v) {
    if (g.Degree(v) > g.Degree(hub)) hub = v;
  }
  std::vector<Level> levels(64 * static_cast<size_t>(n));
  SequentialBfs(g, hub, levels.data());
  Rng rng(5);
  auto pick = [&] {
    while (true) {
      const Vertex v = static_cast<Vertex>(rng.NextBounded(n));
      if (levels[v] != kLevelUnreached) return v;
    }
  };
  std::vector<Vertex> sources(64);
  for (Vertex& s : sources) s = pick();
  std::vector<Vertex> picks(4 * 64);
  for (Vertex& t : picks) t = pick();
  BatchSink sink;
  MsBfsResult r;
  for (auto _ : state) {
    if (mode == 0) {
      r = bfs->Run(sources, BfsOptions{}, levels.data());
    } else {
      sink.Reset(n, serial.num_workers());
      for (int i = 0; i < 64; ++i) {
        if (mode == 1) {
          for (int k = 0; k < 4; ++k) sink.AddTarget(i, picks[i * 4 + k]);
        } else {
          sink.AddRow(i, levels.data() + static_cast<size_t>(i) * n);
        }
      }
      sink.Seal();
      r = bfs->Run(sources, BfsOptions{}, sink);
    }
    benchmark::DoNotOptimize(r);
    benchmark::ClobberMemory();
  }
  state.counters["levels"] = r.iterations;
}
BENCHMARK(BM_MsPbfsSink)->Arg(0)->Arg(1)->Arg(2)
    ->ArgName("full0_targets1_rows2")
    ->Unit(benchmark::kMillisecond);

void BM_SequentialMsBfsBaseline(benchmark::State& state) {
  Graph g = Kronecker({.scale = 13, .edge_factor = 16, .seed = 2});
  auto bfs = MakeMsBfs(g, 64);
  std::vector<Vertex> sources = PickSources(g, 64, 3);
  for (auto _ : state) {
    MsBfsResult r = bfs->Run(sources, BfsOptions{}, nullptr);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 64);
}
BENCHMARK(BM_SequentialMsBfsBaseline);

// One full kLevels response for 2^18 vertices, the 512 KiB row the
// server encodes per query on perfbench's levels_kron workload.
server::QueryResponse LevelsResponse() {
  server::QueryResponse resp;
  resp.type = QueryType::kLevels;
  resp.levels.resize(size_t{1} << 18);
  for (size_t i = 0; i < resp.levels.size(); ++i) {
    resp.levels[i] = static_cast<Level>(SplitMix64(i) % 16);
  }
  resp.vertices_reached = resp.levels.size();
  return resp;
}

void BM_EncodeLevelsResponse(benchmark::State& state) {
  const server::QueryResponse resp = LevelsResponse();
  size_t frame_bytes = 0;
  for (auto _ : state) {
    std::string frame;  // fresh per response, as the server encodes
    server::EncodeQueryResponse(resp, &frame);
    frame_bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() *
                                               frame_bytes));
}
BENCHMARK(BM_EncodeLevelsResponse);

void BM_DecodeLevelsResponse(benchmark::State& state) {
  std::string frame;
  server::EncodeQueryResponse(LevelsResponse(), &frame);
  for (auto _ : state) {
    server::Response resp;
    size_t consumed = 0;
    const server::DecodeStatus status = server::DecodeResponse(
        frame, server::kMaxResponseBytes, &resp, &consumed);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(resp.query.levels.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() *
                                               frame.size()));
}
BENCHMARK(BM_DecodeLevelsResponse);

}  // namespace
}  // namespace pbfs

BENCHMARK_MAIN();
