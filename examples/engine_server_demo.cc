// Multi-threaded client simulation against the concurrent query
// engine: N client threads each fire a mixed stream of typed BFS
// queries (levels / distances / reachability / k-hop) at
// QueryEngine::Submit and wait for their futures, the way a server
// front-end would. Prints per-type counts, end-to-end throughput, and
// the engine's stats dump (batch occupancy, coalesce wait).
//
// Two modes:
//  * One-shot (default): each client submits --queries_per_client
//    queries and exits.
//  * Server (--run-seconds > 0): clients loop, sustaining a mixed
//    workload until the time is up or a SIGINT/SIGTERM arrives. With
//    --serve-metrics=PORT the live telemetry endpoints (/metrics,
//    /healthz, /debug/trace) and the stall watchdog run alongside;
//    scrape while it runs. Shutdown is graceful either way: stop
//    admitting, drain the engine, flush the final metrics/trace
//    outputs, then stop the metrics server.
//
// --inject-slow-query-ms=N submits one artificially slow query
// (Query::debug_delay_ms) after startup so the watchdog's slow-query
// report and flight-recorder dump can be exercised end-to-end.
//
// --churn-edges-per-sec=N runs an updater thread alongside the clients,
// publishing batched edge inserts/deletes through ApplyUpdates() at
// roughly that rate — the dynamic-graph smoke workload: queries resolve
// against admission-time snapshots while the background compactor folds
// the churn back into flat CSRs (see docs/dynamic.md).
//
// --sketch-clusters=N enables the Cluster-BFS distance sketches with N
// clusters and mixes point-to-point distance queries into the client
// streams; sketch-resolvable ones answer inline without a batch slot
// (pbfs_sketch_* series on /metrics; see docs/sketches.md).
//
// --listen-port=P serves the length-prefixed binary TCP protocol on
// 127.0.0.1:P (0 picks an ephemeral port) with session FSMs and
// deadline-aware admission in front of the engine, and drives the
// client threads over real sockets (server::PbfsClient) instead of
// direct Submit calls — the full network path, including shedding
// under overload (kShed responses and pbfs_server_* metrics on
// /metrics when --serve-metrics is also given). See docs/server.md.
//
//   ./engine_server_demo [--vertices_log2 16] [--clients 8]
//                        [--queries_per_client 64] [--threads N]
//                        [--run-seconds 0] [--serve-metrics PORT]
//                        [--inject-slow-query-ms 0]
//                        [--churn-edges-per-sec 0] [--sketch-clusters 0]
//                        [--listen-port -1]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "graph/generators.h"
#include "obs/obs_cli.h"
#include "sched/worker_pool.h"
#include "server/client.h"
#include "server/server.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

// Written by the signal handler, polled by the client loops. A plain
// lock-free atomic store is async-signal-safe.
std::atomic<bool> g_stop{false};

void HandleStopSignal(int /*signum*/) {
  g_stop.store(true, std::memory_order_relaxed);
}

pbfs::Query RandomQuery(pbfs::Rng& rng, pbfs::Vertex n, bool sketches) {
  pbfs::Query query;
  query.source = static_cast<pbfs::Vertex>(rng.NextBounded(n));
  switch (rng.NextBounded(sketches ? 5 : 4)) {
    case 0:
      query.type = pbfs::QueryType::kLevels;
      break;
    case 1:
      query.type = pbfs::QueryType::kDistances;
      for (int t = 0; t < 4; ++t) {
        query.targets.push_back(
            static_cast<pbfs::Vertex>(rng.NextBounded(n)));
      }
      break;
    case 2:
      query.type = pbfs::QueryType::kReachability;
      query.targets.push_back(static_cast<pbfs::Vertex>(rng.NextBounded(n)));
      break;
    case 3:
      query.type = pbfs::QueryType::kKHop;
      query.max_hops = 3;
      break;
    default:
      // Point-to-point distance with a loose tolerance: most pairs on
      // the hub-heavy social graph resolve from the sketch inline.
      query.type = pbfs::QueryType::kPointToPointDistance;
      query.targets.push_back(static_cast<pbfs::Vertex>(rng.NextBounded(n)));
      query.tolerance = static_cast<pbfs::Level>(rng.NextBounded(4));
      break;
  }
  return query;
}

// The same random workload, as a wire-protocol request.
pbfs::server::QueryRequest WireRequest(const pbfs::Query& query,
                                       uint64_t request_id) {
  pbfs::server::QueryRequest req;
  req.request_id = request_id;
  req.type = query.type;
  req.source = query.source;
  req.targets = query.targets;
  req.max_hops = query.max_hops;
  req.tolerance = query.tolerance;
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t vertices_log2 = 16;
  int64_t clients = 8;
  int64_t queries_per_client = 64;
  int64_t threads = 4;
  double run_seconds = 0;
  double inject_slow_query_ms = 0;
  int64_t churn_edges_per_sec = 0;
  int64_t sketch_clusters = 0;
  int64_t listen_port = -1;
  pbfs::FlagParser flags(
      "Concurrent BFS query engine demo: multi-threaded clients, "
      "coalesced MS-PBFS batches, optional live telemetry server");
  flags.AddInt64("vertices_log2", &vertices_log2, "log2 of graph size");
  flags.AddInt64("clients", &clients, "client threads");
  flags.AddInt64("queries_per_client", &queries_per_client,
                 "queries submitted by each client (one-shot mode)");
  flags.AddInt64("threads", &threads, "BFS worker threads");
  flags.AddDouble("run-seconds", &run_seconds,
                  "sustain the workload this long instead of a fixed "
                  "query count (0 = one-shot); SIGINT/SIGTERM ends early");
  flags.AddDouble("inject-slow-query-ms", &inject_slow_query_ms,
                  "submit one artificially slow query to trip the "
                  "watchdog (0 = none)");
  flags.AddInt64("churn-edges-per-sec", &churn_edges_per_sec,
                 "publish ~this many edge updates per second through "
                 "ApplyUpdates while the workload runs (0 = static)");
  flags.AddInt64("sketch-clusters", &sketch_clusters,
                 "enable Cluster-BFS distance sketches with this many "
                 "clusters and mix point-to-point distance queries into "
                 "the client streams (0 = disabled)");
  flags.AddInt64("listen-port", &listen_port,
                 "serve the binary TCP protocol on this loopback port "
                 "(0 = ephemeral) and run the clients over real sockets "
                 "(-1 = in-process Submit)");
  pbfs::obs::ObsCli obs_cli("engine_server_demo");
  obs_cli.Register(&flags);
  flags.Parse(argc, argv);
  obs_cli.Start();

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  pbfs::Graph graph = pbfs::SocialNetwork({
      .num_vertices = pbfs::Vertex{1} << vertices_log2,
      .avg_degree = 12.0,
      .seed = 5,
  });
  std::printf("graph: %u vertices, %llu edges\n", graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  pbfs::WorkerPool pool({.num_workers = static_cast<int>(threads)});
  obs_cli.AuditPlacement(graph, &pool, pbfs::BfsOptions{}.split_size);
  pbfs::QueryEngineOptions engine_options;
  if (sketch_clusters > 0) {
    engine_options.enable_sketches = true;
    engine_options.sketch.num_clusters = static_cast<int>(sketch_clusters);
  }
  pbfs::QueryEngine engine(graph, &pool, engine_options);
  obs_cli.WatchPool(&pool);
  obs_cli.WatchEngine(&engine);
  if (sketch_clusters > 0) {
    // Serve from a warm sketch so the very first p2p queries can hit.
    engine.WaitSketchIdle();
    const pbfs::SketchRebuilder::Stats sketch = engine.SketchStats();
    std::printf("sketch: %lld clusters, %.1f MB, built in %.1f ms\n",
                static_cast<long long>(sketch_clusters),
                static_cast<double>(sketch.sketch_bytes) / 1e6,
                sketch.last_build_ms);
  }

  // Network front-end (--listen-port >= 0): session FSMs + admission
  // in front of the same engine, clients over real loopback sockets.
  std::unique_ptr<pbfs::server::PbfsServer> server;
  if (listen_port >= 0) {
    pbfs::server::ServerOptions server_options;
    server_options.port = static_cast<int>(listen_port);
    server = std::make_unique<pbfs::server::PbfsServer>(&engine,
                                                        server_options);
    if (!server->Start()) {
      std::fprintf(stderr, "failed to listen on port %lld\n",
                   static_cast<long long>(listen_port));
      return 1;
    }
    obs_cli.WatchServer(server.get());
    std::printf("listening on 127.0.0.1:%d (binary frame protocol)\n",
                server->port());
  }

  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> reached_sum{0};
  pbfs::Timer timer;
  std::vector<std::thread> client_threads;
  for (int64_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      pbfs::Rng rng(static_cast<uint64_t>(c) + 1);
      const pbfs::Vertex n = graph.num_vertices();
      pbfs::server::PbfsClient net_client;
      if (server != nullptr &&
          !net_client.Connect({.port = server->port()})) {
        std::fprintf(stderr, "client %lld: connect failed\n",
                     static_cast<long long>(c));
        return;
      }
      for (int64_t q = 0;; ++q) {
        if (g_stop.load(std::memory_order_relaxed)) break;
        if (run_seconds > 0) {
          if (timer.ElapsedSeconds() >= run_seconds) break;
        } else if (q >= queries_per_client) {
          break;
        }
        pbfs::Query query = RandomQuery(rng, n, sketch_clusters > 0);
        if (server != nullptr) {
          // Over the wire: encode, round-trip, decode. Overload comes
          // back as a kShed response instead of queueing.
          pbfs::server::QueryResponse resp;
          std::string error;
          if (!net_client.Call(
                  WireRequest(query, static_cast<uint64_t>(q) + 1), &resp,
                  &error)) {
            std::fprintf(stderr, "client %lld: %s\n",
                         static_cast<long long>(c), error.c_str());
            break;
          }
          submitted.fetch_add(1, std::memory_order_relaxed);
          if (resp.status == pbfs::QueryStatus::kOk) {
            ok.fetch_add(1, std::memory_order_relaxed);
            reached_sum.fetch_add(resp.vertices_reached,
                                  std::memory_order_relaxed);
          } else if (resp.status == pbfs::QueryStatus::kShed) {
            shed.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        auto sub = engine.Submit(std::move(query));
        submitted.fetch_add(1, std::memory_order_relaxed);
        pbfs::QueryResult result = sub.result.get();
        if (result.status == pbfs::QueryStatus::kOk) {
          ok.fetch_add(1, std::memory_order_relaxed);
          reached_sum.fetch_add(result.vertices_reached,
                                std::memory_order_relaxed);
        }
      }
    });
  }

  // Edge churn: one updater thread publishes small batches at a steady
  // rate. Inserted edges are remembered so about half of later updates
  // delete a genuinely present edge — real churn, not no-ops. The
  // background compactor folds the overlay away continuously; queries
  // keep answering from their admission-time snapshots throughout.
  std::atomic<bool> churn_stop{false};
  std::thread churn_thread;
  if (churn_edges_per_sec > 0) {
    churn_thread = std::thread([&] {
      pbfs::Rng rng(99);
      const pbfs::Vertex n = graph.num_vertices();
      const int64_t batch_size = std::max<int64_t>(1, churn_edges_per_sec / 20);
      std::deque<pbfs::EdgeUpdate> inserted;
      while (!churn_stop.load(std::memory_order_relaxed)) {
        std::vector<pbfs::EdgeUpdate> batch;
        batch.reserve(static_cast<size_t>(batch_size));
        for (int64_t i = 0; i < batch_size; ++i) {
          if (!inserted.empty() && rng.NextBounded(2) == 0) {
            pbfs::EdgeUpdate del = inserted.front();
            inserted.pop_front();
            del.insert = false;
            batch.push_back(del);
          } else {
            pbfs::Vertex u = static_cast<pbfs::Vertex>(rng.NextBounded(n));
            pbfs::Vertex v = static_cast<pbfs::Vertex>(rng.NextBounded(n));
            if (u == v) v = (v + 1) % n;
            pbfs::EdgeUpdate ins{u, v, /*insert=*/true};
            inserted.push_back(ins);
            batch.push_back(ins);
          }
        }
        engine.ApplyUpdates(batch);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }

  if (inject_slow_query_ms > 0) {
    // Let the workload warm up, then wedge the dispatcher once. The
    // watchdog (--watchdog / --serve-metrics) should emit exactly one
    // slow-query report and one flight-recorder dump for this.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    pbfs::Query slow;
    slow.type = pbfs::QueryType::kLevels;
    slow.source = 0;
    slow.debug_delay_ms = inject_slow_query_ms;
    std::printf("injecting one slow query (%.0f ms)\n", inject_slow_query_ms);
    auto sub = engine.Submit(std::move(slow));
    submitted.fetch_add(1, std::memory_order_relaxed);
    if (sub.result.get().status == pbfs::QueryStatus::kOk) {
      ok.fetch_add(1, std::memory_order_relaxed);
    }
  }

  for (std::thread& t : client_threads) t.join();
  const double elapsed_s = timer.ElapsedSeconds();
  if (server != nullptr) {
    const pbfs::server::ServerStats sstats = server->GetStats();
    std::printf("server: %llu sessions, %llu frames rx, %llu shed "
                "(%llu queue-full, %llu deadline), %llu backpressure "
                "pauses, %llu protocol errors\n",
                static_cast<unsigned long long>(sstats.sessions_opened),
                static_cast<unsigned long long>(sstats.frames_rx),
                static_cast<unsigned long long>(
                    sstats.admission.shed_queue_full +
                    sstats.admission.shed_deadline),
                static_cast<unsigned long long>(
                    sstats.admission.shed_queue_full),
                static_cast<unsigned long long>(
                    sstats.admission.shed_deadline),
                static_cast<unsigned long long>(sstats.backpressure_events),
                static_cast<unsigned long long>(sstats.protocol_errors));
    obs_cli.json().Add("server_sessions", sstats.sessions_opened);
    obs_cli.json().Add("server_shed",
                       sstats.admission.shed_queue_full +
                           sstats.admission.shed_deadline);
    obs_cli.json().Add("queries_shed", shed.load());
    server->Stop();  // withdraws its metrics collector
  }
  // Graceful shutdown, signal or not: stop the churn, let the
  // compactor fold the last deltas in, and drain what is in flight —
  // no new queries are being admitted (clients joined).
  if (churn_thread.joinable()) {
    churn_stop.store(true, std::memory_order_relaxed);
    churn_thread.join();
    engine.WaitCompactorIdle();
  }
  engine.Drain();

  const uint64_t total = submitted.load();
  std::printf("%lld clients, %llu queries: %llu ok in %.3f s "
              "(%.1f queries/s end-to-end)%s\n",
              static_cast<long long>(clients),
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(ok.load()), elapsed_s,
              static_cast<double>(total) / elapsed_s,
              g_stop.load() ? " [stopped by signal]" : "");
  std::printf("engine stats: %s\n", engine.Stats().ToString().c_str());
  if (churn_edges_per_sec > 0) {
    const pbfs::QueryEngineStats stats = engine.Stats();
    const pbfs::SnapshotStats snap = engine.SnapshotInfo();
    const pbfs::Compactor::Stats compact = engine.CompactorStats();
    std::printf("churn: %llu batches, %llu edge updates, snapshot v%llu "
                "(content v%llu), %llu compactions\n",
                static_cast<unsigned long long>(stats.update_batches),
                static_cast<unsigned long long>(stats.edge_updates_applied),
                static_cast<unsigned long long>(snap.version),
                static_cast<unsigned long long>(snap.content_version),
                static_cast<unsigned long long>(compact.compactions));
    obs_cli.json().Add("update_batches", stats.update_batches);
    obs_cli.json().Add("edge_updates_applied", stats.edge_updates_applied);
    obs_cli.json().Add("snapshot_content_version", snap.content_version);
    obs_cli.json().Add("compactions", compact.compactions);
  }
  if (sketch_clusters > 0) {
    const pbfs::QueryEngineStats stats = engine.Stats();
    const pbfs::SketchRebuilder::Stats sketch = engine.SketchStats();
    std::printf("sketch: %llu hits, %llu fallbacks, %llu stale, "
                "%llu rebuilds (content v%llu)\n",
                static_cast<unsigned long long>(stats.sketch_hits),
                static_cast<unsigned long long>(stats.sketch_fallbacks),
                static_cast<unsigned long long>(stats.sketch_stale),
                static_cast<unsigned long long>(sketch.rebuilds),
                static_cast<unsigned long long>(sketch.content_version));
    obs_cli.json().Add("sketch_hits", stats.sketch_hits);
    obs_cli.json().Add("sketch_fallbacks", stats.sketch_fallbacks);
    obs_cli.json().Add("sketch_stale", stats.sketch_stale);
    obs_cli.json().Add("sketch_rebuilds", sketch.rebuilds);
    obs_cli.json().Add("sketch_bytes", sketch.sketch_bytes);
  }
  obs_cli.json().Add("clients", clients);
  obs_cli.json().Add("queries_submitted", total);
  obs_cli.json().Add("queries_ok", ok.load());
  obs_cli.json().Add("queries_per_s", static_cast<double>(total) / elapsed_s);
  obs_cli.json().AddBool("stopped_by_signal", g_stop.load());
  // ... then flush the final metrics/trace outputs and stop the
  // watchdog and metrics server (Finish does all of it, in that order,
  // before the engine and pool go out of scope).
  obs_cli.Finish();
  std::printf("shutdown complete\n");
  return 0;
}
