// End-to-end server suite over real loopback sockets: mixed queries
// diffed against the oracle, versioned edge updates, overload
// shedding, backpressure resume, protocol-error disconnect, and
// graceful stop. Labeled `server` so both sanitizer CI legs run it —
// the poll/submit/completion threads against concurrent clients are
// exactly the interleavings TSan is for.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "differential/diff_util.h"
#include "dynamic/dynamic_util.h"
#include "graph/generators.h"
#include "obs/query_trace.h"
#include "sched/worker_pool.h"
#include "server/client.h"
#include "server/server.h"
#include "server/server_test_util.h"
#include "util/rng.h"

namespace pbfs {
namespace server {
namespace {

using diff::ReproNote;
using diff::TrialSeed;

TEST(ServerE2eTest, MixedQueriesMatchOracleOverSocket) {
  const uint64_t seed = TrialSeed(1);
  const std::string note = ReproNote(seed);
  const Graph graph = ErdosRenyi(256, 1024, seed);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  PbfsServer srv(&engine, {});
  ASSERT_TRUE(srv.Start());
  ASSERT_GT(srv.port(), 0);

  constexpr int kClients = 3;
  constexpr int kQueriesPerClient = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(SplitMix64(seed + static_cast<uint64_t>(c)));
      PbfsClient client;
      ASSERT_TRUE(client.Connect({.port = srv.port()}));
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const QueryRequest req = RandomQueryRequest(
            rng, graph.num_vertices(),
            static_cast<uint64_t>(c) * 1000 + static_cast<uint64_t>(q));
        QueryResponse resp;
        std::string error;
        ASSERT_TRUE(client.Call(req, &resp, &error)) << error << " " << note;
        ASSERT_EQ(resp.status, QueryStatus::kOk) << note;
        const std::string diff = DiffWireResponse(graph, req, resp);
        if (!diff.empty()) {
          ++mismatches;
          ADD_FAILURE() << diff << " " << note;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServerStats stats = srv.GetStats();
  EXPECT_EQ(stats.admission.admitted, kClients * kQueriesPerClient);
  EXPECT_EQ(stats.queries_ok, kClients * kQueriesPerClient);
  EXPECT_EQ(stats.protocol_errors, 0u);
  srv.Stop();
}

// Full level rows pipelined by three clients at once: the completion
// thread encodes each 128 KiB frame outside the server mutex while the
// poll thread sends the other connections' frames. Every row is diffed
// against the oracle.
TEST(ServerE2eTest, PipelinedLevelRowsFromThreeClientsMatchOracle) {
  const uint64_t seed = TrialSeed(8);
  const std::string note = ReproNote(seed);
  const Graph graph = ErdosRenyi(Vertex{1} << 16, EdgeIndex{1} << 18, seed);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  PbfsServer srv(&engine, {});
  ASSERT_TRUE(srv.Start());

  constexpr int kClients = 3;
  constexpr uint64_t kQueriesPerClient = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(SplitMix64(seed + static_cast<uint64_t>(c)));
      const uint64_t first_id = static_cast<uint64_t>(c) * 1000;
      PbfsClient client;
      ASSERT_TRUE(client.Connect({.port = srv.port()}));
      std::vector<QueryRequest> sent;
      std::string pipelined;
      for (uint64_t q = 0; q < kQueriesPerClient; ++q) {
        QueryRequest req;
        req.request_id = first_id + q;
        req.type = QueryType::kLevels;
        req.source = static_cast<Vertex>(rng.NextBounded(graph.num_vertices()));
        EncodeQueryRequest(req, &pipelined);
        sent.push_back(req);
      }
      ASSERT_TRUE(client.Send(pipelined));
      for (uint64_t q = 0; q < kQueriesPerClient; ++q) {
        Response resp;
        std::string error;
        ASSERT_TRUE(client.ReadResponse(&resp, &error)) << error << " " << note;
        ASSERT_EQ(resp.kind, MessageKind::kQuery) << note;
        const QueryResponse& row = resp.query;
        ASSERT_GE(row.request_id, first_id) << note;
        ASSERT_LT(row.request_id - first_id, kQueriesPerClient) << note;
        ASSERT_EQ(row.status, QueryStatus::kOk) << note;
        ASSERT_EQ(row.levels.size(), graph.num_vertices()) << note;
        const std::string diff =
            DiffWireResponse(graph, sent[row.request_id - first_id], row);
        if (!diff.empty()) {
          ++mismatches;
          ADD_FAILURE() << diff << " " << note;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServerStats stats = srv.GetStats();
  EXPECT_EQ(stats.queries_ok, kClients * kQueriesPerClient);
  EXPECT_EQ(stats.protocol_errors, 0u);
  srv.Stop();
}

TEST(ServerE2eTest, EdgeUpdatesAckWithContentVersionAndQueriesSeeThem) {
  const uint64_t seed = TrialSeed(2);
  const std::string note = ReproNote(seed);
  const Graph graph = ErdosRenyi(128, 400, seed);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  PbfsServer srv(&engine, {});
  ASSERT_TRUE(srv.Start());

  PbfsClient client;
  ASSERT_TRUE(client.Connect({.port = srv.port()}));

  dyn::EdgeSet edges = dyn::GraphToSet(graph);
  Rng rng(seed);
  uint64_t next_id = 1;
  for (int round = 0; round < 5; ++round) {
    UpdateRequest upd;
    upd.request_id = next_id++;
    for (int i = 0; i < 20; ++i) {
      EdgeUpdate op;
      op.u = static_cast<Vertex>(rng.NextBounded(graph.num_vertices()));
      op.v = static_cast<Vertex>(rng.NextBounded(graph.num_vertices()));
      op.insert = rng.NextBounded(2) == 1;
      upd.updates.push_back(op);
    }
    UpdateResponse ack;
    std::string error;
    ASSERT_TRUE(client.ApplyUpdates(upd, &ack, &error)) << error << " "
                                                        << note;
    ASSERT_EQ(ack.num_applied, upd.updates.size());
    dyn::ApplyToSet(edges, upd.updates);
    const Graph oracle =
        Graph::FromEdges(graph.num_vertices(), dyn::SetToEdges(edges));

    // A query submitted after the ack must run against a snapshot at
    // least as new as the acked content version, and on this quiet
    // connection exactly it (no competing updaters).
    QueryRequest req;
    req.request_id = next_id++;
    req.type = QueryType::kLevels;
    req.source = static_cast<Vertex>(rng.NextBounded(graph.num_vertices()));
    QueryResponse resp;
    ASSERT_TRUE(client.Call(req, &resp, &error)) << error << " " << note;
    ASSERT_EQ(resp.status, QueryStatus::kOk) << note;
    EXPECT_EQ(resp.snapshot_version, ack.content_version) << note;
    EXPECT_EQ(DiffWireResponse(oracle, req, resp), "") << note;
  }
  const ServerStats stats = srv.GetStats();
  EXPECT_EQ(stats.updates_applied, 5u);
  srv.Stop();
}

TEST(ServerE2eTest, OverloadBurstShedsInsteadOfQueueing) {
  const uint64_t seed = TrialSeed(3);
  const Graph graph = ErdosRenyi(2048, 8192, seed);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  ServerOptions opts;
  opts.admission.max_queue = 2;
  opts.max_engine_inflight = 1;
  opts.session.max_inflight = 128;
  opts.session.resume_inflight = 64;
  PbfsServer srv(&engine, opts);
  ASSERT_TRUE(srv.Start());

  PbfsClient client;
  ASSERT_TRUE(client.Connect({.port = srv.port()}));
  constexpr int kBurst = 64;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    QueryRequest req;
    req.request_id = static_cast<uint64_t>(i);
    req.type = QueryType::kLevels;
    req.source = static_cast<Vertex>(i % graph.num_vertices());
    EncodeQueryRequest(req, &burst);
  }
  ASSERT_TRUE(client.Send(burst));

  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    Response resp;
    std::string error;
    ASSERT_TRUE(client.ReadResponse(&resp, &error)) << error << " after "
                                                    << i << " responses";
    ASSERT_EQ(resp.kind, MessageKind::kQuery);
    if (resp.query.status == QueryStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(resp.query.status, QueryStatus::kShed);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  // A 64-query burst against queue cap 2 + inflight cap 1 must shed.
  EXPECT_GT(shed, 0);
  const ServerStats stats = srv.GetStats();
  EXPECT_EQ(stats.admission.shed_queue_full + stats.admission.shed_deadline,
            static_cast<uint64_t>(shed));
  EXPECT_EQ(stats.admission.admitted, static_cast<uint64_t>(ok));
  // The bounded queue never exceeded its cap (depth is current, so
  // just sanity-check the invariant fields).
  EXPECT_LE(stats.admission.depth, opts.admission.max_queue);
  srv.Stop();
}

TEST(ServerE2eTest, BackpressurePausesReadsThenAnswersEverything) {
  const uint64_t seed = TrialSeed(4);
  const Graph graph = ErdosRenyi(64, 128, seed);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  ServerOptions opts;
  opts.session.max_inflight = 4;
  opts.session.resume_inflight = 2;
  PbfsServer srv(&engine, opts);
  ASSERT_TRUE(srv.Start());

  PbfsClient client;
  ASSERT_TRUE(client.Connect({.port = srv.port()}));
  constexpr int kCount = 100;
  std::string pipelined;
  for (int i = 0; i < kCount; ++i) {
    QueryRequest req;
    req.request_id = static_cast<uint64_t>(i);
    req.type = QueryType::kReachability;
    req.source = static_cast<Vertex>(i % graph.num_vertices());
    req.targets = {static_cast<Vertex>((i + 1) % graph.num_vertices())};
    EncodeQueryRequest(req, &pipelined);
  }
  ASSERT_TRUE(client.Send(pipelined));
  std::vector<bool> seen(kCount, false);
  for (int i = 0; i < kCount; ++i) {
    Response resp;
    std::string error;
    ASSERT_TRUE(client.ReadResponse(&resp, &error)) << error << " after "
                                                    << i;
    ASSERT_EQ(resp.kind, MessageKind::kQuery);
    ASSERT_LT(resp.query.request_id, static_cast<uint64_t>(kCount));
    EXPECT_FALSE(seen[resp.query.request_id]) << "duplicate response";
    seen[resp.query.request_id] = true;
  }
  const ServerStats stats = srv.GetStats();
  // 100 pipelined requests against a window of 4 had to pause reads.
  EXPECT_GT(stats.backpressure_events, 0u);
  EXPECT_EQ(stats.frames_rx, static_cast<uint64_t>(kCount));
  srv.Stop();
}

TEST(ServerE2eTest, MalformedFrameClosesConnection) {
  const Graph graph = ErdosRenyi(32, 64, 1);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  PbfsServer srv(&engine, {});
  ASSERT_TRUE(srv.Start());

  PbfsClient client;
  ASSERT_TRUE(client.Connect({.port = srv.port()}));
  QueryRequest req;
  req.request_id = 1;
  std::string wire;
  EncodeQueryRequest(req, &wire);
  wire[4 + 8] = 42;  // unknown message kind
  ASSERT_TRUE(client.Send(wire));
  Response resp;
  std::string error;
  // The server closes without answering.
  EXPECT_FALSE(client.ReadResponse(&resp, &error));
  // Poll loop reaps the session; stats follow shortly.
  for (int i = 0; i < 100; ++i) {
    if (srv.GetStats().protocol_errors > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(srv.GetStats().protocol_errors, 1u);
  srv.Stop();
}

// An edge update naming a vertex outside the graph is well-formed on
// the wire (the decoder cannot know |V|) but must not reach the engine,
// whose range check aborts the process. It closes that session as a
// protocol error; the server keeps serving everyone else, and nothing
// in the frame is applied.
TEST(ServerE2eTest, OutOfRangeEdgeUpdateClosesOnlyItsSession) {
  const Graph graph = ErdosRenyi(100, 300, 3);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  PbfsServer srv(&engine, {});
  ASSERT_TRUE(srv.Start());

  PbfsClient bad;
  ASSERT_TRUE(bad.Connect({.port = srv.port()}));
  UpdateRequest upd;
  upd.request_id = 1;
  upd.updates = {{0, 1, true}, {5, 1000, true}};
  UpdateResponse ack;
  std::string error;
  // The server closes without acking.
  EXPECT_FALSE(bad.ApplyUpdates(upd, &ack, &error));
  for (int i = 0; i < 100; ++i) {
    if (srv.GetStats().protocol_errors > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(srv.GetStats().protocol_errors, 1u);
  EXPECT_EQ(srv.GetStats().updates_applied, 0u);

  PbfsClient good;
  ASSERT_TRUE(good.Connect({.port = srv.port()}));
  QueryRequest req;
  req.request_id = 2;
  req.type = QueryType::kLevels;
  req.source = 5;
  QueryResponse resp;
  ASSERT_TRUE(good.Call(req, &resp, &error)) << error;
  ASSERT_EQ(resp.status, QueryStatus::kOk);
  EXPECT_EQ(resp.snapshot_version, 1u);  // not even (0, 1) was applied
  EXPECT_EQ(DiffWireResponse(graph, req, resp), "");
  EXPECT_EQ(engine.SnapshotInfo().content_version, 1u);
  srv.Stop();
}

TEST(ServerE2eTest, GracefulStopUnderPendingLoadDoesNotHang) {
  const Graph graph = ErdosRenyi(1024, 4096, 5);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  ServerOptions opts;
  opts.session.drain_timeout_ms = 200;  // bound the test, not 5 s
  opts.max_engine_inflight = 2;
  PbfsServer srv(&engine, opts);
  ASSERT_TRUE(srv.Start());

  PbfsClient client;
  ASSERT_TRUE(client.Connect({.port = srv.port()}));
  std::string burst;
  for (int i = 0; i < 20; ++i) {
    QueryRequest req;
    req.request_id = static_cast<uint64_t>(i);
    req.type = QueryType::kLevels;
    req.source = static_cast<Vertex>(i);
    EncodeQueryRequest(req, &burst);
  }
  ASSERT_TRUE(client.Send(burst));
  // Stop with queries pending: must complete within the drain bounds
  // (joins all three threads) rather than hanging.
  srv.Stop();
  SUCCEED();
}

// At the connection cap the server reclaims the least-recently-active
// session instead of refusing the newcomer; the evicted peer sees its
// connection close and the stats count the eviction.
TEST(ServerE2eTest, ConnectionCapEvictsLeastRecentlyActive) {
  const Graph graph = ErdosRenyi(64, 128, 6);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  ServerOptions opts;
  opts.max_sessions = 2;
  PbfsServer srv(&engine, opts);
  ASSERT_TRUE(srv.Start());

  auto query = [&](PbfsClient& client, uint64_t id) {
    QueryRequest req;
    req.request_id = id;
    req.type = QueryType::kLevels;
    req.source = 0;
    QueryResponse resp;
    std::string error;
    ASSERT_TRUE(client.Call(req, &resp, &error)) << error;
    ASSERT_EQ(resp.status, QueryStatus::kOk);
  };

  PbfsClient a;
  ASSERT_TRUE(a.Connect({.port = srv.port()}));
  query(a, 1);
  PbfsClient b;
  ASSERT_TRUE(b.Connect({.port = srv.port()}));
  query(b, 2);  // b is now the more recently active of the two

  // Third connection: the cap forces out a — the least recently active.
  PbfsClient c;
  ASSERT_TRUE(c.Connect({.port = srv.port()}));
  query(c, 3);
  for (int i = 0; i < 100 && srv.GetStats().sessions_evicted == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(srv.GetStats().sessions_evicted, 1u);

  // The evicted peer's connection is dead; the survivors still answer.
  Response stale;
  std::string error;
  EXPECT_FALSE(a.ReadResponse(&stale, &error));
  query(b, 4);
  query(c, 5);
  srv.Stop();
}

// A client-supplied trace context survives the whole pipeline: the
// sampled query's span tree lands in the flight recorder under the
// client's id, with the record's stage durations telescoping to its
// wire latency, every server and engine boundary stamped in order, and
// the snapshot it actually ran on.
TEST(ServerE2eTest, ClientTraceIdFlowsToRetainedRecord) {
  obs::QueryTraceStore& store = obs::QueryTraceStore::Get();
  obs::QueryTraceStore::Options trace_opts;
  trace_opts.slow_ms = 0;     // only sampled/shed/error retain:
  trace_opts.p99_factor = 0;  // deterministic regardless of timing
  trace_opts.emit_spans = false;
  store.Configure(trace_opts);

  const Graph graph = ErdosRenyi(128, 512, 7);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  PbfsServer srv(&engine, {});
  ASSERT_TRUE(srv.Start());

  PbfsClient client;
  ASSERT_TRUE(client.Connect({.port = srv.port()}));
  constexpr uint64_t kClientTraceId = 0xABCDEF0123456789ULL;
  QueryRequest req;
  req.request_id = 77;
  req.type = QueryType::kLevels;
  req.source = 3;
  req.trace_id = kClientTraceId;
  req.trace_sampled = true;
  QueryResponse resp;
  std::string error;
  ASSERT_TRUE(client.Call(req, &resp, &error)) << error;
  ASSERT_EQ(resp.status, QueryStatus::kOk);

  // The server Finishes the trace on the completion thread as it queues
  // the response, so it may land a beat after the client reads it.
  std::vector<obs::QueryTraceRecord> retained;
  for (int i = 0; i < 100; ++i) {
    retained = store.Retained();
    if (!retained.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(retained.size(), 1u);
  const obs::QueryTraceRecord& r = retained[0];
  EXPECT_EQ(r.trace_id, kClientTraceId);
  EXPECT_EQ(r.request_id, 77u);
  EXPECT_NE(r.session_id, 0u);
  EXPECT_TRUE(r.sampled);
  EXPECT_STREQ(r.retain_reason, "sampled");
  EXPECT_EQ(r.outcome, obs::QueryOutcome::kOk);
  EXPECT_EQ(r.snapshot_version, resp.snapshot_version);
  EXPECT_GT(r.wire_latency_ns, 0);
  EXPECT_EQ(r.batch_width, 1u);
  for (int b = 1; b < obs::kNumQueryStageBounds; ++b) {
    EXPECT_GE(r.bounds_ns[b], r.bounds_ns[b - 1]) << "bound " << b;
  }
  using B = obs::QueryStageBound;
  EXPECT_GT(r.bound(B::kSubmitted), r.bound(B::kReceived));
  EXPECT_GT(r.bound(B::kKernelDone), r.bound(B::kSubmitted));
  int64_t stage_sum = 0;
  for (int i = 0; i < obs::kNumQueryStageSpans; ++i) {
    EXPECT_GE(r.StageDurNs(i), 0) << "stage " << i;
    stage_sum += r.StageDurNs(i);
  }
  EXPECT_EQ(stage_sum, r.wire_latency_ns);

  // An unsampled fast query through the same pipeline retains nothing.
  req.request_id = 78;
  req.trace_id = 0;
  req.trace_sampled = false;
  ASSERT_TRUE(client.Call(req, &resp, &error)) << error;
  for (int i = 0; i < 100 && store.GetStats(0).discarded_total == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(store.Retained().size(), 1u);
  EXPECT_GE(store.GetStats(0).discarded_total, 1u);
  // Two wire calls, two finished records: the server closes each wire
  // record once, and the engine never closes a record it did not open.
  srv.Stop();
  const obs::QueryTraceStore::Stats stats = store.GetStats(0);
  EXPECT_EQ(stats.retained_total() + stats.discarded_total, 2u);
  store.Configure(obs::QueryTraceStore::Options());  // restore defaults
}

// A query shed at admission never reaches the engine: the poll thread
// closes its record on the spot, with the admission reason, and the
// client's id and session identity intact.
TEST(ServerE2eTest, ShedQueryRecordIsClosedAtAdmission) {
  obs::QueryTraceStore& store = obs::QueryTraceStore::Get();
  store.Configure({.emit_spans = false});
  const Graph graph = ErdosRenyi(128, 512, 7);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  ServerOptions opts;
  opts.admission.max_queue = 0;  // every query sheds as queue_full
  PbfsServer srv(&engine, opts);
  ASSERT_TRUE(srv.Start());
  PbfsClient client;
  ASSERT_TRUE(client.Connect({.port = srv.port()}));
  QueryRequest req;
  req.request_id = 5;
  req.trace_id = 0x5EDull;
  QueryResponse resp;
  std::string error;
  ASSERT_TRUE(client.Call(req, &resp, &error)) << error;
  EXPECT_EQ(resp.status, QueryStatus::kShed);
  srv.Stop();

  const std::vector<obs::QueryTraceRecord> retained = store.Retained();
  ASSERT_EQ(retained.size(), 1u);
  const obs::QueryTraceRecord& r = retained[0];
  EXPECT_EQ(r.trace_id, 0x5EDull);
  EXPECT_EQ(r.request_id, 5u);
  EXPECT_NE(r.session_id, 0u);
  EXPECT_EQ(r.outcome, obs::QueryOutcome::kShed);
  EXPECT_STREQ(r.retain_reason, "shed");
  EXPECT_STREQ(r.shed_reason, "queue_full");
  EXPECT_EQ(r.batch_width, 0u);  // never dispatched
  EXPECT_EQ(engine.Stats().queries_admitted, 0u);
  const obs::QueryTraceStore::Stats stats = store.GetStats(0);
  EXPECT_EQ(stats.retained_total() + stats.discarded_total, 1u);
  store.Configure(obs::QueryTraceStore::Options());  // restore defaults
}

}  // namespace
}  // namespace server
}  // namespace pbfs
