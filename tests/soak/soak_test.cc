// Soak/replay harness: N client threads pipeline a mixed query
// workload (point-to-point, levels, reachability, k-hop) over real
// loopback sockets while a churn thread streams edge-update batches,
// and EVERY completed response is diffed against the rebuild-then-BFS
// oracle for the graph content identified by its `snapshot_version`.
//
// The run is wall-clock budgeted and environment-scalable — the same
// binary is the CI smoke leg (a few seconds, thousands of queries) and
// the overnight soak (PBFS_SOAK_SECONDS=3600 at a few kqps ≈ millions
// of queries). Gates: zero oracle mismatches, zero watchdog reports,
// accepted-query p99 within PBFS_SOAK_P99_MS, and a live /metrics
// endpoint that serves pbfs_server_* families throughout.
//
// Knobs (all env, all optional):
//   PBFS_SOAK_SECONDS             wall-clock budget    (default 3)
//   PBFS_SOAK_CLIENTS             query client threads (default 4)
//   PBFS_SOAK_WINDOW              per-client pipeline  (default 8)
//   PBFS_SOAK_VERTICES            graph size           (default 1024)
//   PBFS_SOAK_EDGES               initial edges        (default 4096)
//   PBFS_SOAK_UPDATE_INTERVAL_MS  churn batch spacing  (default 25)
//   PBFS_SOAK_BATCH               updates per batch    (default 24)
//   PBFS_SOAK_P99_MS              accepted p99 gate    (default 500)
//   PBFS_SOAK_OVERLOAD_SECONDS    overload-test budget (default 2)
//   PBFS_SOAK_OVERLOAD_P99_MS     overload p99 gate    (default 2000)
//   PBFS_SOAK_TRACE_SLOW_MS       slow-retention threshold (default 250)
//   PBFS_SOAK_TRACE_RETAINED      flight-recorder ring cap (default 128Ki)
//   PBFS_SOAK_STATS_JSON          write run summary JSON here (optional)
//   PBFS_SOAK_SLOWLOG             write slow-query JSON lines here (optional)
//   PBFS_SOAK_PROFILE_OUT         sample the whole soak and write the
//                                 folded stacks here (optional;
//                                 diffable with perf_attribution.py)
//   PBFS_DIFF_SEED                corpus seed (printed in every banner)
//
// Tracing builds additionally gate the tail-retention contract: every
// client stamps its queries with deterministic trace ids, and after the
// run >= 99% of the shed/expired ones must have a span tree in the
// flight recorder, every retained record's stage durations must
// telescope to exactly its wire latency, fast unsampled queries must
// retain nothing, and the ring must stay within its cap.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "differential/diff_util.h"
#include "dynamic/dynamic_util.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "obs/live/http_server.h"
#include "obs/live/metrics_registry.h"
#include "obs/live/stall_watchdog.h"
#include "obs/profiler/phase_profile.h"
#include "obs/profiler/sampling_profiler.h"
#include "obs/profiler/symbolize.h"
#include "obs/query_trace.h"
#include "sched/worker_pool.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/server_test_util.h"
#include "util/rng.h"
#include "util/timer.h"

namespace pbfs {
namespace server {
namespace {

using diff::EnvOr;
using diff::ReproNote;

// ---- Versioned oracle -------------------------------------------------
//
// The updater thread is the only writer of graph content, so the acked
// content version sequence totally orders the edge-set history. Each
// ack materializes the post-batch graph under that version; a query
// response is then diffed against exactly the graph its
// `snapshot_version` names, regardless of which version is current by
// the time the response is read off the socket.
class VersionedOracle {
 public:
  // Retain this many most-recent versions. Responses are looked up as
  // soon as they arrive, so a live lookup can only trail the newest
  // version by the client pipeline depth — minutes of history at any
  // realistic churn rate, far beyond any response's lifetime.
  static constexpr size_t kKeepVersions = 8192;

  void Record(uint64_t version, const dyn::EdgeSet& edges, Vertex n) {
    auto graph = std::make_shared<const Graph>(
        Graph::FromEdges(n, dyn::SetToEdges(edges)));
    std::lock_guard<std::mutex> lock(mu_);
    graphs_[version] = std::move(graph);
    while (graphs_.size() > kKeepVersions) graphs_.erase(graphs_.begin());
  }

  // nullptr when `version` has not been recorded (yet). The caller
  // distinguishes "not yet" from "pruned" via max_version().
  std::shared_ptr<const Graph> Lookup(uint64_t version) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = graphs_.find(version);
    return it == graphs_.end() ? nullptr : it->second;
  }

  uint64_t max_version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return graphs_.empty() ? 0 : graphs_.rbegin()->first;
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const Graph>> graphs_;
};

// A response whose snapshot_version had not been recorded when it
// arrived (the ack -> Record race); retried after the updater joins.
struct DeferredDiff {
  QueryRequest request;
  QueryResponse response;
};

struct ClientTally {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t mismatches = 0;
  uint64_t sampled_ok = 0;  // ok responses whose request was sampled
  std::vector<double> ok_latency_ms;
  std::vector<DeferredDiff> deferred;
  // Trace ids of shed/expired responses: the tail-retention gate
  // requires their span trees in the flight recorder after the run.
  std::vector<uint64_t> interesting_trace_ids;
  std::string first_mismatch;
};

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      q * static_cast<double>(values->size() - 1) + 0.5);
  std::nth_element(values->begin(),
                   values->begin() + static_cast<ptrdiff_t>(rank),
                   values->end());
  return (*values)[rank];
}

void DiffAgainstOracle(const VersionedOracle& oracle, const QueryRequest& req,
                       const QueryResponse& resp, ClientTally* tally) {
  const std::shared_ptr<const Graph> graph = oracle.Lookup(
      resp.snapshot_version);
  if (graph == nullptr) {
    tally->deferred.push_back(DeferredDiff{req, resp});
    return;
  }
  const std::string diff = DiffWireResponse(*graph, req, resp);
  if (!diff.empty()) {
    ++tally->mismatches;
    if (tally->first_mismatch.empty()) {
      tally->first_mismatch = "version " +
                              std::to_string(resp.snapshot_version) + ": " +
                              diff;
    }
  }
}

std::string HttpGet(int port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: soak\r\n\r\n";
  (void)send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

// ---- The soak ---------------------------------------------------------

TEST(SoakTest, MixedWorkloadWithChurnMatchesVersionedOracle) {
  const uint64_t seed = diff::TrialSeed(100);
  const std::string note = ReproNote(seed);
  const double run_seconds =
      static_cast<double>(EnvOr("PBFS_SOAK_SECONDS", 3));
  const int num_clients =
      static_cast<int>(EnvOr("PBFS_SOAK_CLIENTS", 4));
  const int window = static_cast<int>(EnvOr("PBFS_SOAK_WINDOW", 8));
  const Vertex n =
      static_cast<Vertex>(EnvOr("PBFS_SOAK_VERTICES", 1024));
  const uint64_t m = EnvOr("PBFS_SOAK_EDGES", 4096);
  const int update_interval_ms =
      static_cast<int>(EnvOr("PBFS_SOAK_UPDATE_INTERVAL_MS", 25));
  const int batch_size = static_cast<int>(EnvOr("PBFS_SOAK_BATCH", 24));
  const double p99_gate_ms =
      static_cast<double>(EnvOr("PBFS_SOAK_P99_MS", 500));

  const Graph graph = ErdosRenyi(n, m, seed);
  WorkerPool pool({.num_workers = 4, .pin_threads = false});
  // Declared before the engine so it outlives it: ~QueryEngine withdraws
  // its collector from the registry.
  obs::MetricsRegistry registry;
  QueryEngine engine(graph, &pool);
  PbfsServer srv(&engine, {});
  ASSERT_TRUE(srv.Start()) << note;

  // Full observability stack, exactly as a production deployment would
  // run it: engine + server metrics on one registry, the registry on a
  // live /metrics endpoint, and the stall watchdog over the engine's
  // in-flight table and the pool's heartbeats. The soak gates on the
  // watchdog staying silent and the endpoint staying scrapeable.
  // Flight recorder: absolute threshold only (the p99-relative trigger
  // would make "what retains" depend on the run's own latency
  // distribution — useless as a deterministic gate), ring sized so a
  // full-length soak's interesting tail fits.
  const double trace_slow_ms =
      static_cast<double>(EnvOr("PBFS_SOAK_TRACE_SLOW_MS", 250));
  obs::QueryTraceStore& trace_store = obs::QueryTraceStore::Get();
  obs::QueryTraceStore::Options trace_opts;
  trace_opts.slow_ms = trace_slow_ms;
  trace_opts.p99_factor = 0;
  trace_opts.max_retained =
      static_cast<size_t>(EnvOr("PBFS_SOAK_TRACE_RETAINED", 128 * 1024));
  std::unique_ptr<std::ofstream> slowlog_file;
  const char* slowlog_path = std::getenv("PBFS_SOAK_SLOWLOG");
  if (slowlog_path != nullptr && slowlog_path[0] != '\0') {
    slowlog_file = std::make_unique<std::ofstream>(slowlog_path,
                                                   std::ios::trunc);
    std::ofstream* out = slowlog_file.get();
    trace_opts.slowlog_sink = [out](const std::string& line) {
      *out << line << '\n';
    };
  }
  trace_store.Configure(trace_opts);

  engine.ExportLiveMetrics(&registry);
  srv.ExportLiveMetrics(&registry);
  registry.AddCollector(&trace_store, [](obs::ExpositionWriter& writer) {
    obs::QueryTraceStore::Get().CollectMetrics(writer, NowNanos());
  });
  obs::StallWatchdog::Options wd_options;
  wd_options.slow_query_ms = 5000;
  wd_options.worker_stall_ms = 5000;
  wd_options.dump_dir = "";  // report, don't dump
  wd_options.registry = &registry;
  obs::StallWatchdog watchdog(wd_options);
  watchdog.WatchAdmissions([&engine] {
    std::vector<obs::StallWatchdog::AdmissionSample> samples;
    for (const QueryEngine::InFlightQuery& q : engine.InFlightQueries()) {
      samples.push_back(obs::StallWatchdog::AdmissionSample{
          q.id, q.submit_ns, QueryTypeName(q.type)});
    }
    return samples;
  });
  watchdog.WatchWorkers([&pool] {
    std::vector<obs::StallWatchdog::WorkerSample> samples;
    for (const WorkerPool::WorkerHeartbeat& hb : pool.HeartbeatSamples()) {
      samples.push_back(
          obs::StallWatchdog::WorkerSample{hb.worker_id, hb.epoch, hb.busy});
    }
    return samples;
  });
  watchdog.Start();
  obs::MetricsHttpServer http;
  http.AddRoute("/metrics", [&registry] {
    obs::MetricsHttpServer::Response response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = registry.ExpositionText();
    return response;
  });
  ASSERT_TRUE(http.Start(/*port=*/0)) << note;

  // Continuous profiling over the whole soak: sample every thread (the
  // pool workers register themselves at spawn) and dump the folded
  // stacks as a nightly artifact. Degrades loudly but does not gate —
  // a perf-denied runner still soaks.
  const char* profile_out = std::getenv("PBFS_SOAK_PROFILE_OUT");
  bool profiler_on = false;
  if (profile_out != nullptr && profile_out[0] != '\0') {
    obs::SamplingProfiler::RegisterCurrentThread();
    profiler_on = obs::SamplingProfiler::Get().Start();
    if (!profiler_on) {
      std::fprintf(stderr, "soak: profiler unavailable: %s\n",
                   obs::SamplingProfiler::Get().unavailable_reason());
    }
  }

  VersionedOracle oracle;
  std::atomic<bool> stop{false};

  // Seed the oracle with the pre-churn content version: one probe
  // query's snapshot_version names the base graph.
  {
    PbfsClient probe;
    ASSERT_TRUE(probe.Connect({.port = srv.port()})) << note;
    QueryRequest req;
    req.request_id = 1;
    req.type = QueryType::kLevels;
    req.source = 0;
    QueryResponse resp;
    std::string error;
    ASSERT_TRUE(probe.Call(req, &resp, &error)) << error << " " << note;
    ASSERT_EQ(resp.status, QueryStatus::kOk) << note;
    oracle.Record(resp.snapshot_version, dyn::GraphToSet(graph), n);
  }

  // Churn: one updater streams batches over the wire and records the
  // acked content version against the post-batch edge set. Being the
  // sole writer makes the version -> content mapping exact.
  std::atomic<uint64_t> updates_acked{0};
  std::thread updater([&] {
    PbfsClient client;
    ASSERT_TRUE(client.Connect({.port = srv.port()})) << note;
    Rng rng(SplitMix64(seed ^ 0xc4u));
    dyn::EdgeSet edges = dyn::GraphToSet(graph);
    std::deque<EdgeUpdate> inserted;
    uint64_t next_id = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      UpdateRequest upd;
      upd.request_id = next_id++;
      for (int i = 0; i < batch_size; ++i) {
        EdgeUpdate op;
        if (!inserted.empty() && rng.NextBounded(5) < 2) {
          op = inserted.front();  // delete something we inserted
          inserted.pop_front();
          op.insert = false;
        } else {
          op.u = static_cast<Vertex>(rng.NextBounded(n));
          op.v = static_cast<Vertex>(rng.NextBounded(n));
          op.insert = true;
          inserted.push_back(op);
        }
        upd.updates.push_back(op);
      }
      UpdateResponse ack;
      std::string error;
      ASSERT_TRUE(client.ApplyUpdates(upd, &ack, &error)) << error << " "
                                                          << note;
      dyn::ApplyToSet(edges, upd.updates);
      oracle.Record(ack.content_version, edges, n);
      updates_acked.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(update_interval_ms));
    }
  });

  // Query clients: pipelined window over one connection each, every
  // response diffed on arrival.
  std::vector<ClientTally> tallies(static_cast<size_t>(num_clients));
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      ClientTally& tally = tallies[static_cast<size_t>(c)];
      PbfsClient client;
      ASSERT_TRUE(client.Connect({.port = srv.port()})) << note;
      Rng rng(SplitMix64(seed + 17 * static_cast<uint64_t>(c + 1)));
      std::map<uint64_t, std::pair<QueryRequest, int64_t>> outstanding;
      uint64_t next_id = 1;
      bool draining = false;
      while (!draining || !outstanding.empty()) {
        draining = stop.load(std::memory_order_relaxed);
        while (!draining &&
               outstanding.size() < static_cast<size_t>(window)) {
          QueryRequest req = RandomQueryRequest(rng, n, next_id++);
          // A slice of the traffic carries deadlines so the
          // deadline-shedding path sees sustained, realistic load.
          if (rng.NextBounded(10) == 0) req.deadline_ms = 250;
          // Deterministic client-owned trace context (overriding the
          // random one): the tail-retention gate below looks these ids
          // up in the flight recorder, so the client must know exactly
          // which id each request carried. ~1/64 are client-sampled.
          req.trace_id =
              (static_cast<uint64_t>(c + 1) << 40) | req.request_id;
          req.trace_sampled = rng.NextBounded(64) == 0;
          ASSERT_TRUE(client.SendQuery(req)) << note;
          const int64_t sent_ns = NowNanos();
          outstanding.emplace(req.request_id,
                              std::make_pair(std::move(req), sent_ns));
          ++tally.sent;
          draining = stop.load(std::memory_order_relaxed);
        }
        if (outstanding.empty()) continue;
        Response resp;
        std::string error;
        ASSERT_TRUE(client.ReadResponse(&resp, &error))
            << error << " with " << outstanding.size() << " outstanding "
            << note;
        ASSERT_EQ(resp.kind, MessageKind::kQuery) << note;
        auto it = outstanding.find(resp.query.request_id);
        ASSERT_NE(it, outstanding.end())
            << "response for unknown request_id " << resp.query.request_id
            << " " << note;
        const QueryRequest& req = it->second.first;
        switch (resp.query.status) {
          case QueryStatus::kOk:
            ++tally.ok;
            if (req.trace_sampled) ++tally.sampled_ok;
            tally.ok_latency_ms.push_back(
                static_cast<double>(NowNanos() - it->second.second) * 1e-6);
            DiffAgainstOracle(oracle, req, resp.query, &tally);
            break;
          case QueryStatus::kShed:
            ++tally.shed;
            tally.interesting_trace_ids.push_back(req.trace_id);
            break;
          case QueryStatus::kDeadlineExceeded:
            ++tally.deadline_exceeded;
            tally.interesting_trace_ids.push_back(req.trace_id);
            break;
          default:
            ADD_FAILURE() << "unexpected status "
                          << QueryStatusName(resp.query.status) << " for "
                          << QueryTypeName(req.type) << " " << note;
        }
        outstanding.erase(it);
      }
    });
  }

  // Scraper: the endpoint must serve the server families for the whole
  // run, not just after shutdown.
  std::atomic<uint64_t> scrapes{0};
  std::atomic<uint64_t> scrape_failures{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string body = HttpGet(http.port(), "/metrics");
      if (body.find("pbfs_server_admitted_total") == std::string::npos ||
          body.find("pbfs_server_request_latency_ms") == std::string::npos ||
          body.find("pbfs_query_trace_retained_total") ==
              std::string::npos) {
        scrape_failures.fetch_add(1, std::memory_order_relaxed);
      }
      scrapes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  });

  std::this_thread::sleep_for(std::chrono::duration<double>(run_seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  updater.join();
  scraper.join();

  // Every ack is recorded now: deferred responses (which raced the
  // updater's Record) must all resolve, and must all match.
  uint64_t total_sent = 0, total_ok = 0, total_shed = 0, total_deadline = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
  std::vector<double> latencies;
  for (ClientTally& tally : tallies) {
    for (const DeferredDiff& d : tally.deferred) {
      const std::shared_ptr<const Graph> g =
          oracle.Lookup(d.response.snapshot_version);
      ASSERT_NE(g, nullptr)
          << "snapshot_version " << d.response.snapshot_version
          << " never acked (max recorded " << oracle.max_version() << ") "
          << note;
      const std::string diff = DiffWireResponse(*g, d.request, d.response);
      if (!diff.empty()) {
        ++tally.mismatches;
        if (tally.first_mismatch.empty()) tally.first_mismatch = diff;
      }
    }
    total_sent += tally.sent;
    total_ok += tally.ok;
    total_shed += tally.shed;
    total_deadline += tally.deadline_exceeded;
    mismatches += tally.mismatches;
    if (first_mismatch.empty()) first_mismatch = tally.first_mismatch;
    latencies.insert(latencies.end(), tally.ok_latency_ms.begin(),
                     tally.ok_latency_ms.end());
  }

  EXPECT_EQ(mismatches, 0u) << first_mismatch << " " << note;
  EXPECT_EQ(total_ok + total_shed + total_deadline, total_sent) << note;
  EXPECT_GT(total_ok, 0u) << note;
  EXPECT_GT(updates_acked.load(), 0u) << note;

  const double p50 = Percentile(&latencies, 0.50);
  const double p99 = Percentile(&latencies, 0.99);
  EXPECT_LE(p99, p99_gate_ms) << "accepted-query p99 over gate " << note;

  const ServerStats stats = srv.GetStats();
  // Our clients are the only traffic (+1 oracle probe), so the server's
  // books must reconcile exactly with what the clients observed.
  EXPECT_EQ(stats.queries_ok, total_ok + 1) << note;
  EXPECT_EQ(stats.queries_timed_out, total_deadline) << note;
  EXPECT_EQ(stats.admission.shed_queue_full + stats.admission.shed_deadline,
            total_shed)
      << note;
  EXPECT_EQ(stats.updates_applied, updates_acked.load()) << note;
  EXPECT_EQ(stats.protocol_errors, 0u) << note;

  EXPECT_GT(scrapes.load(), 0u) << note;
  EXPECT_EQ(scrape_failures.load(), 0u)
      << "scrapes missing pbfs_server_* families " << note;
  const obs::StallWatchdog::Stats wd = watchdog.stats();
  EXPECT_EQ(wd.stall_reports, 0u) << wd.last_report << " " << note;
  EXPECT_EQ(wd.slow_query_reports, 0u) << wd.last_report << " " << note;
  const std::string final_scrape = registry.ExpositionText();
  for (const char* family :
       {"pbfs_server_sessions_opened_total", "pbfs_server_frames_rx_total",
        "pbfs_server_shed_total", "pbfs_server_updates_total",
        "pbfs_server_request_latency_ms", "pbfs_server_evicted_total",
        "pbfs_server_request_latency_exemplar", "pbfs_query_trace_retained",
        "pbfs_query_trace_retained_total",
        "pbfs_query_trace_discarded_total",
        "pbfs_query_trace_slow_threshold_ms"}) {
    EXPECT_NE(final_scrape.find(family), std::string::npos)
        << family << " missing from exposition " << note;
  }

  // ---- Tail-retention gate ----
  // Every shed/expired query the clients observed must have its span
  // tree in the flight recorder (the ring is sized not to wrap in this
  // run, and the record travels with the query, so a missing id means
  // the pipeline lost a trace).
  const std::vector<obs::QueryTraceRecord> retained = trace_store.Retained();
  std::unordered_set<uint64_t> retained_ids;
  retained_ids.reserve(retained.size());
  for (const obs::QueryTraceRecord& r : retained) {
    retained_ids.insert(r.trace_id);
    // The telescoping identity holds for every record, not within 5%
    // but exactly: Finish forward-fills and clamps by construction.
    int64_t stage_sum = 0;
    for (int i = 0; i < obs::kNumQueryStageSpans; ++i) {
      ASSERT_GE(r.StageDurNs(i), 0)
          << "trace " << r.trace_id << " stage " << i << " " << note;
      stage_sum += r.StageDurNs(i);
    }
    ASSERT_EQ(stage_sum, r.wire_latency_ns) << "trace " << r.trace_id << " "
                                            << note;
    // Fast unsampled queries must not be here: an ok-outcome record is
    // either client-sampled or over the slow threshold.
    if (r.outcome == obs::QueryOutcome::kOk && !r.sampled) {
      ASSERT_GE(static_cast<double>(r.wire_latency_ns) * 1e-6,
                trace_slow_ms)
          << "fast query retained: trace " << r.trace_id << " " << note;
    }
  }
  EXPECT_LE(retained.size(), trace_opts.max_retained) << note;

  uint64_t interesting = 0;
  uint64_t covered = 0;
  uint64_t total_sampled_ok = 0;
  for (const ClientTally& tally : tallies) {
    total_sampled_ok += tally.sampled_ok;
    for (const uint64_t id : tally.interesting_trace_ids) {
      ++interesting;
      covered += retained_ids.count(id);
    }
  }
  EXPECT_EQ(covered, interesting)
      << covered << "/" << interesting << " shed/expired traces retained "
      << note;
  const obs::QueryTraceStore::Stats trace_stats = trace_store.GetStats(
      NowNanos());
  // The bulk of the traffic is fast and unsampled: discards must
  // dominate, proving retention really is tail-based.
  EXPECT_GT(trace_stats.discarded_total, 0u) << note;
  // Client-sampled fast queries are the one way an ok query retains
  // below the threshold; the books must agree with the clients.
  EXPECT_GE(trace_stats.retained_sampled, total_sampled_ok) << note;
  // Exactly once: every wire query answered (the clients' plus the
  // oracle probe) closed exactly one record, retained or discarded.
  EXPECT_EQ(trace_stats.retained_total() + trace_stats.discarded_total,
            total_sent + 1)
      << "trace records finished vs wire queries answered " << note;

  // ---- Artifacts (nightly soak uploads these) ----
  if (slowlog_file != nullptr) slowlog_file->flush();
  const char* stats_path = std::getenv("PBFS_SOAK_STATS_JSON");
  if (stats_path != nullptr && stats_path[0] != '\0') {
    std::ofstream stats_out(stats_path, std::ios::trunc);
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "{\"seconds\":%.1f,\"clients\":%d,\"window\":%d,"
        "\"sent\":%llu,\"ok\":%llu,\"shed\":%llu,\"deadline\":%llu,"
        "\"update_batches\":%llu,\"p50_ms\":%.3f,\"p99_ms\":%.3f,",
        run_seconds, num_clients, window,
        static_cast<unsigned long long>(total_sent),
        static_cast<unsigned long long>(total_ok),
        static_cast<unsigned long long>(total_shed),
        static_cast<unsigned long long>(total_deadline),
        static_cast<unsigned long long>(updates_acked.load()), p50, p99);
    stats_out << line;
    std::snprintf(
        line, sizeof(line),
        "\"trace_retained\":%llu,\"trace_retained_slow\":%llu,"
        "\"trace_retained_shed\":%llu,\"trace_retained_expired\":%llu,"
        "\"trace_retained_sampled\":%llu,\"trace_discarded\":%llu,"
        "\"trace_interesting\":%llu,"
        "\"trace_covered\":%llu,\"scrapes\":%llu}\n",
        static_cast<unsigned long long>(trace_stats.retained),
        static_cast<unsigned long long>(trace_stats.retained_slow),
        static_cast<unsigned long long>(trace_stats.retained_shed),
        static_cast<unsigned long long>(trace_stats.retained_expired),
        static_cast<unsigned long long>(trace_stats.retained_sampled),
        static_cast<unsigned long long>(trace_stats.discarded_total),
        static_cast<unsigned long long>(interesting),
        static_cast<unsigned long long>(covered),
        static_cast<unsigned long long>(scrapes.load()));
    stats_out << line;
  }
  if (profiler_on) {
    const obs::ProfileCounts prof = obs::SamplingProfiler::Get().Snapshot();
    const obs::SamplingProfiler::Stats prof_stats =
        obs::SamplingProfiler::Get().stats();
    obs::SamplingProfiler::Get().Stop();
    obs::Symbolizer symbolizer;
    std::ofstream prof_out(profile_out, std::ios::trunc);
    prof_out << obs::FoldedProfileText(prof, &symbolizer);
    std::printf("soak: profile %llu samples (%s backend, %.2f%% overhead) "
                "-> %s\n",
                static_cast<unsigned long long>(prof.SampleSum()),
                prof_stats.backend, 100.0 * prof_stats.overhead_frac,
                profile_out);
  }
  watchdog.Stop();
  http.Stop();
  srv.Stop();

  std::printf(
      "soak: %.1fs %d clients window %d | %llu queries (%.0f/s) "
      "ok=%llu shed=%llu deadline=%llu | %llu update batches | "
      "p50=%.2fms p99=%.2fms (gate %.0fms)\n",
      run_seconds, num_clients, window,
      static_cast<unsigned long long>(total_sent),
      static_cast<double>(total_sent) / run_seconds,
      static_cast<unsigned long long>(total_ok),
      static_cast<unsigned long long>(total_shed),
      static_cast<unsigned long long>(total_deadline),
      static_cast<unsigned long long>(updates_acked.load()), p50, p99,
      p99_gate_ms);
}

// ---- Sustained overload -----------------------------------------------
//
// At a sustained offered load far beyond capacity (tiny admission queue
// and engine window, saturating pipelined clients) the server must shed
// rather than queue unboundedly: queue depth stays within its cap the
// whole run and the queries it DOES accept keep a bounded p99.
TEST(SoakTest, SustainedOverloadShedsAndBoundsAcceptedLatency) {
  const uint64_t seed = diff::TrialSeed(200);
  const std::string note = ReproNote(seed);
  const double run_seconds =
      static_cast<double>(EnvOr("PBFS_SOAK_OVERLOAD_SECONDS", 2));
  const double p99_gate_ms =
      static_cast<double>(EnvOr("PBFS_SOAK_OVERLOAD_P99_MS", 2000));

  const Graph graph = ErdosRenyi(4096, 16384, seed);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  ServerOptions opts;
  opts.admission.max_queue = 8;
  opts.max_engine_inflight = 2;
  opts.session.max_inflight = 256;
  opts.session.resume_inflight = 128;
  PbfsServer srv(&engine, opts);
  ASSERT_TRUE(srv.Start()) << note;

  std::atomic<bool> stop{false};
  constexpr int kClients = 4;
  constexpr int kWindow = 64;  // 4*64 outstanding vs capacity 8+2: >2x
  std::vector<ClientTally> tallies(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientTally& tally = tallies[static_cast<size_t>(c)];
      PbfsClient client;
      ASSERT_TRUE(client.Connect({.port = srv.port()})) << note;
      Rng rng(SplitMix64(seed + static_cast<uint64_t>(c)));
      std::map<uint64_t, int64_t> outstanding;  // id -> send ns
      uint64_t next_id = 1;
      bool draining = false;
      while (!draining || !outstanding.empty()) {
        draining = stop.load(std::memory_order_relaxed);
        while (!draining && outstanding.size() < kWindow) {
          QueryRequest req;
          req.request_id = next_id++;
          req.type = QueryType::kLevels;
          req.source = static_cast<Vertex>(rng.NextBounded(4096));
          if (rng.NextBounded(2) == 0) req.deadline_ms = 100;
          ASSERT_TRUE(client.SendQuery(req)) << note;
          outstanding.emplace(req.request_id, NowNanos());
          ++tally.sent;
          draining = stop.load(std::memory_order_relaxed);
        }
        if (outstanding.empty()) continue;
        Response resp;
        std::string error;
        ASSERT_TRUE(client.ReadResponse(&resp, &error)) << error << " "
                                                        << note;
        auto it = outstanding.find(resp.query.request_id);
        ASSERT_NE(it, outstanding.end()) << note;
        switch (resp.query.status) {
          case QueryStatus::kOk:
            ++tally.ok;
            tally.ok_latency_ms.push_back(
                static_cast<double>(NowNanos() - it->second) * 1e-6);
            break;
          case QueryStatus::kShed:
            ++tally.shed;
            break;
          case QueryStatus::kDeadlineExceeded:
            ++tally.deadline_exceeded;
            break;
          default:
            ADD_FAILURE() << QueryStatusName(resp.query.status) << " "
                          << note;
        }
        outstanding.erase(it);
      }
    });
  }

  // Sample the queue depth while the blast runs: bounded at every
  // observation, not just at the end.
  uint64_t max_observed_depth = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(run_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    max_observed_depth =
        std::max<uint64_t>(max_observed_depth, srv.GetStats().admission.depth);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  uint64_t total_sent = 0, total_ok = 0, total_shed = 0, total_deadline = 0;
  std::vector<double> latencies;
  for (ClientTally& tally : tallies) {
    total_sent += tally.sent;
    total_ok += tally.ok;
    total_shed += tally.shed;
    total_deadline += tally.deadline_exceeded;
    latencies.insert(latencies.end(), tally.ok_latency_ms.begin(),
                     tally.ok_latency_ms.end());
  }

  EXPECT_EQ(total_ok + total_shed + total_deadline, total_sent) << note;
  // Overload MUST shed: accepting everything would mean an unbounded
  // queue somewhere.
  EXPECT_GT(total_shed, 0u) << note;
  EXPECT_GT(total_ok, 0u) << note;
  EXPECT_LE(max_observed_depth,
            static_cast<uint64_t>(opts.admission.max_queue))
      << note;
  const double p99 = Percentile(&latencies, 0.99);
  EXPECT_LE(p99, p99_gate_ms) << "accepted p99 under overload " << note;

  const ServerStats stats = srv.GetStats();
  EXPECT_EQ(stats.admission.shed_queue_full + stats.admission.shed_deadline,
            total_shed)
      << note;
  srv.Stop();

  std::printf(
      "overload: %.1fs | %llu offered ok=%llu shed=%llu deadline=%llu | "
      "max depth %llu (cap %zu) | accepted p99=%.2fms (gate %.0fms)\n",
      run_seconds, static_cast<unsigned long long>(total_sent),
      static_cast<unsigned long long>(total_ok),
      static_cast<unsigned long long>(total_shed),
      static_cast<unsigned long long>(total_deadline),
      static_cast<unsigned long long>(max_observed_depth),
      opts.admission.max_queue, p99, p99_gate_ms);
}

}  // namespace
}  // namespace server
}  // namespace pbfs
