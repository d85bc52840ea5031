// Query-engine throughput: batched submission through the concurrent
// query engine vs. answering the same queries one SMS-PBFS run at a
// time. The workload is point-to-point distance queries (source +
// a few targets) — the shortest-path primitive behind the social
// network analysis workloads that motivate the paper's multi-source
// BFS. Either way each query costs a full traversal; the engine
// coalesces the pending burst into one MS-PBFS batch per `width`
// sources, and the headline number is the queries/sec ratio (>= 3x for
// 64 pending queries on an ER graph of 2^20 vertices, avg degree 64).
//
// Emits BENCH_engine.json (see BenchJson in util/bench_json.h) so the
// perf trajectory is machine-diffable across commits; diff two runs
// with scripts/bench_compare.py. --profile adds hardware counters and
// the NUMA placement audit to the same document.
//
//   ./engine_throughput [--vertices_log2 20] [--avg_degree 64]
//                       [--queries 64] [--targets 4] [--threads N]
//                       [--trials 3] [--json_out BENCH_engine.json]

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench_common.h"
#include "bfs/multi_source.h"
#include "bfs/registry.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "obs/obs_cli.h"
#include "sched/worker_pool.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  int64_t vertices_log2 = 20;
  int64_t avg_degree = 64;
  int64_t queries = 64;
  int64_t targets = 4;
  int64_t threads = pbfs::bench::DefaultThreads();
  int64_t trials = 3;
  std::string batch_variant = "mspbfs";
  std::string json_out = "BENCH_engine.json";
  pbfs::FlagParser flags(
      "Query-engine throughput: coalesced MS-PBFS batches vs. "
      "one-query-at-a-time SMS-PBFS");
  flags.AddInt64("vertices_log2", &vertices_log2, "log2 of ER graph size");
  flags.AddInt64("avg_degree", &avg_degree, "ER average degree");
  flags.AddInt64("queries", &queries, "pending queries per burst");
  flags.AddInt64("targets", &targets, "distance targets per query");
  flags.AddInt64("threads", &threads, "worker threads");
  flags.AddInt64("trials", &trials, "trials (median reported)");
  flags.AddString("batch_variant", &batch_variant,
                  "registry name of the engine's batch kernel (a "
                  "multi-source variant: msbfs, jfq_msbfs or mspbfs)");
  flags.AddString("json_out", &json_out, "machine-readable output path");
  pbfs::obs::ObsCli obs_cli("engine_throughput");
  obs_cli.Register(&flags);
  flags.Parse(argc, argv);
  obs_cli.set_json_path(json_out);
  obs_cli.set_always_write_json(true);
  obs_cli.Start();

  const pbfs::Vertex n = pbfs::Vertex{1} << vertices_log2;
  const pbfs::EdgeIndex m =
      static_cast<pbfs::EdgeIndex>(n) * avg_degree / 2;
  pbfs::Graph graph = pbfs::ErdosRenyi(n, m, /*seed=*/7);
  std::printf("graph: ER, %u vertices, %llu edges\n", graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  pbfs::WorkerPool pool({.num_workers = static_cast<int>(threads)});
  // The engine aborts on a batch variant that is not multi-source; say
  // why here instead.
  auto batch_runner = pbfs::FindVariantRunner(batch_variant, graph, &pool);
  if (batch_runner == nullptr || !batch_runner->desc().multi_source) {
    std::fprintf(stderr,
                 "--batch_variant=%s: not a multi-source variant (msbfs, "
                 "jfq_msbfs or mspbfs)\n",
                 batch_variant.c_str());
    return 1;
  }
  batch_runner.reset();
  obs_cli.AuditPlacement(graph, &pool, pbfs::BfsOptions{}.split_size);
  pbfs::Rng rng(11);
  std::vector<pbfs::Vertex> sources;
  std::vector<std::vector<pbfs::Vertex>> query_targets;
  for (int64_t q = 0; q < queries; ++q) {
    sources.push_back(static_cast<pbfs::Vertex>(rng.NextBounded(n)));
    std::vector<pbfs::Vertex> ts;
    for (int64_t t = 0; t < targets; ++t) {
      ts.push_back(static_cast<pbfs::Vertex>(rng.NextBounded(n)));
    }
    query_targets.push_back(std::move(ts));
  }

  // Baseline: the same query stream answered one SMS-PBFS run at a
  // time, the way the one-shot driver binaries do it — a full
  // traversal per query, then the target distances read off the level
  // array.
  auto single = pbfs::FindVariantRunner("smspbfs_bit", graph, &pool);
  std::vector<pbfs::Level> levels(graph.num_vertices());
  uint64_t distance_sink = 0;
  double baseline_s = pbfs::bench::MedianSeconds(trials, [&] {
    for (int64_t q = 0; q < queries; ++q) {
      single->ComputeLevels({&sources[q], 1}, pbfs::BfsOptions{},
                            levels.data());
      for (pbfs::Vertex t : query_targets[q]) distance_sink += levels[t];
    }
  });
  const double baseline_qps = static_cast<double>(queries) / baseline_s;
  std::printf("one-at-a-time SMS-PBFS: %.3f s for %lld queries "
              "(%.1f queries/s)\n",
              baseline_s, static_cast<long long>(queries), baseline_qps);

  // Snapshot fast-path overhead: the same kernel and query stream over
  // the null-overlay snapshot view — the graph a never-updated engine
  // traverses (see graph/snapshot.h). The static-graph acceptance bar
  // is <2% vs. the raw CSR; CI gates on snapshot_overhead_frac.
  pbfs::Graph snapshot_view = pbfs::Graph::OverlayView(graph, nullptr);
  auto view_single = pbfs::FindVariantRunner("smspbfs_bit", snapshot_view,
                                             &pool);
  double view_s = pbfs::bench::MedianSeconds(trials, [&] {
    for (int64_t q = 0; q < queries; ++q) {
      view_single->ComputeLevels({&sources[q], 1}, pbfs::BfsOptions{},
                                 levels.data());
      for (pbfs::Vertex t : query_targets[q]) distance_sink += levels[t];
    }
  });
  const double snapshot_overhead_frac = view_s / baseline_s - 1.0;
  std::printf("snapshot view (static):  %.3f s for %lld queries "
              "(overhead %+.2f%%)\n",
              view_s, static_cast<long long>(queries),
              100.0 * snapshot_overhead_frac);

  // Engine: the burst submitted concurrently-pending, coalesced into
  // MS-PBFS batches. A generous coalesce window keeps the whole burst
  // in one batch; submission cost is part of the measured time.
  pbfs::QueryEngineOptions options;
  options.batch_variant = batch_variant;
  options.coalesce_wait_ms = 20.0;
  // Width sized to the burst: once all `queries` are pending the
  // dispatcher stops lingering and launches immediately, so the window
  // above is a bound, not a tax.
  options.max_batch_width = static_cast<int>(
      *std::lower_bound(std::begin(pbfs::kSupportedWidths),
                        std::end(pbfs::kSupportedWidths),
                        std::min<int64_t>(queries, 1024)));
  pbfs::QueryEngine engine(graph, &pool, options);
  // Live telemetry (--serve-metrics): scrape windowed latency quantiles
  // and queue depth while the burst loop below runs.
  obs_cli.WatchPool(&pool);
  obs_cli.WatchEngine(&engine);
  double engine_s = pbfs::bench::MedianSeconds(trials, [&] {
    std::vector<pbfs::QueryEngine::Submission> subs;
    subs.reserve(sources.size());
    for (int64_t q = 0; q < queries; ++q) {
      pbfs::Query query;
      query.type = pbfs::QueryType::kDistances;
      query.source = sources[q];
      query.targets = query_targets[q];
      subs.push_back(engine.Submit(std::move(query)));
    }
    for (auto& sub : subs) {
      for (pbfs::Level d : sub.result.get().levels) distance_sink += d;
    }
    engine.Drain();  // dispatcher bookkeeping, so Stats() is consistent
  });
  const double engine_qps = static_cast<double>(queries) / engine_s;
  const double speedup = baseline_s / engine_s;
  pbfs::QueryEngineStats stats = engine.Stats();
  std::printf("engine (coalesced):     %.3f s for %lld queries "
              "(%.1f queries/s) -> %.2fx\n",
              engine_s, static_cast<long long>(queries), engine_qps, speedup);
  std::printf("engine stats: %s\n", stats.ToString().c_str());
  std::printf("distance checksum: %llu\n",
              static_cast<unsigned long long>(distance_sink));

  pbfs::BenchJson& json = obs_cli.json();
  json.Add("vertices", static_cast<uint64_t>(graph.num_vertices()));
  json.Add("edges", static_cast<uint64_t>(graph.num_edges()));
  json.Add("threads", static_cast<int64_t>(threads));
  json.Add("queries", static_cast<int64_t>(queries));
  json.Add("targets", static_cast<int64_t>(targets));
  json.Add("trials", static_cast<int64_t>(trials));
  json.Add("baseline_s", baseline_s);
  json.Add("baseline_qps", baseline_qps);
  json.Add("snapshot_view_s", view_s);
  json.Add("snapshot_overhead_frac", snapshot_overhead_frac);
  json.Add("engine_s", engine_s);
  json.Add("engine_qps", engine_qps);
  json.Add("speedup", speedup);
  json.Add("batches_run", stats.batches_run);
  json.Add("single_runs", stats.single_runs);
  json.Add("mean_batch_occupancy", stats.batch_occupancy.mean());
  json.Add("mean_coalesce_wait_ms", stats.coalesce_wait_ms.mean());
  obs_cli.Finish();  // writes json_out, enriched in --profile mode
  return 0;
}
