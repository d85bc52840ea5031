// Live telemetry invariants (src/obs/live): metrics registry +
// Prometheus exposition, the embedded HTTP server exercised through a
// real client socket, the stall watchdog's exactly-once report
// semantics under an injected clock, and the query engine's windowed
// metrics end to end.
//
// Everything asynchronous is made deterministic: the watchdog is
// driven by PollOnce() against a fake clock instead of its thread, and
// HTTP tests bind ephemeral ports so parallel ctest jobs never
// collide.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "graph/generators.h"
#include "obs/live/http_server.h"
#include "obs/live/metrics_registry.h"
#include "obs/live/stall_watchdog.h"
#include "obs/obs_cli.h"
#include "obs/trace.h"
#include "sched/worker_pool.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/timer.h"

namespace pbfs {
namespace {

using obs::ExpositionWriter;
using obs::MetricsHttpServer;
using obs::MetricsRegistry;
using obs::StallWatchdog;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---- Exposition format ----

// Every family comes from a collector reading its owner's state at
// scrape time, so a value changed between scrapes shows in the next.
TEST(MetricsRegistryTest, ExposesCountersGaugesAndCallbacks) {
  MetricsRegistry registry;
  uint64_t requests = 3;
  double depth = 7;
  registry.AddCollector(&registry, [&](ExpositionWriter& writer) {
    writer.BeginFamily("test_requests_total", "Requests seen.", "counter");
    writer.Sample("test_requests_total", {},
                  static_cast<double>(requests));
    writer.BeginFamily("test_depth", "Depth.", "gauge");
    writer.Sample("test_depth", {}, depth);
    writer.BeginFamily("test_dynamic", "Computed at scrape.", "gauge");
    writer.Sample("test_dynamic", {}, 2.5);
  });

  const std::string text = registry.ExpositionText();
  EXPECT_TRUE(Contains(text, "# HELP test_requests_total Requests seen.\n"));
  EXPECT_TRUE(Contains(text, "# TYPE test_requests_total counter\n"));
  EXPECT_TRUE(Contains(text, "test_requests_total 3\n"));
  EXPECT_TRUE(Contains(text, "# TYPE test_depth gauge\n"));
  EXPECT_TRUE(Contains(text, "test_depth 7\n"));
  EXPECT_TRUE(Contains(text, "test_dynamic 2.5\n"));
  // The built-in scrape counter counts this very exposition.
  EXPECT_TRUE(Contains(text, "pbfs_scrapes_total 1\n"));
  requests = 4;
  const std::string second = registry.ExpositionText();
  EXPECT_TRUE(Contains(second, "pbfs_scrapes_total 2\n"));
  EXPECT_TRUE(Contains(second, "test_requests_total 4\n"));
}

TEST(MetricsRegistryTest, HistogramRendersCumulativeBuckets) {
  MetricsRegistry registry;
  Histogram hist(/*min_bound=*/1.0, /*growth=*/2.0, /*num_log_buckets=*/4);
  hist.Add(0.5);    // underflow bucket
  hist.Add(3.0);
  hist.Add(100.0);  // overflow bucket
  registry.AddCollector(&registry, [&hist](ExpositionWriter& writer) {
    writer.BeginFamily("test_latency", "Latency.", "histogram");
    writer.HistogramSamples("test_latency", {}, hist);
  });

  const std::string text = registry.ExpositionText();
  EXPECT_TRUE(Contains(text, "# TYPE test_latency histogram\n"));
  EXPECT_TRUE(Contains(text, "test_latency_count 3\n"));
  EXPECT_TRUE(Contains(text, "test_latency_sum 103.5\n"));
  // Cumulative: every bucket count is >= the previous, closing at +Inf
  // with the total.
  EXPECT_TRUE(Contains(text, "le=\"+Inf\"} 3\n"));
  uint64_t last = 0;
  size_t pos = 0;
  int buckets = 0;
  while ((pos = text.find("test_latency_bucket{", pos)) !=
         std::string::npos) {
    const size_t value_at = text.find("} ", pos) + 2;
    const uint64_t value = std::stoull(text.substr(value_at));
    EXPECT_GE(value, last);
    last = value;
    ++buckets;
    ++pos;
  }
  EXPECT_GE(buckets, 4);
  EXPECT_EQ(last, 3u);
}

TEST(MetricsRegistryTest, EscapesLabelValuesAndHelp) {
  MetricsRegistry registry;
  registry.AddCollector(&registry, [](ExpositionWriter& writer) {
    writer.BeginFamily("test_labeled", "line1\nline2 back\\slash", "gauge");
    writer.Sample("test_labeled", {{"name", "quo\"te\\and\nnewline"}}, 1);
  });
  const std::string text = registry.ExpositionText();
  EXPECT_TRUE(Contains(text, "line1\\nline2 back\\\\slash"));
  EXPECT_TRUE(
      Contains(text, "test_labeled{name=\"quo\\\"te\\\\and\\nnewline\"} 1"));
}

TEST(MetricsRegistryTest, CollectorsAreRemovableByOwner) {
  MetricsRegistry registry;
  int owner_a = 0, owner_b = 0;
  registry.AddCollector(&owner_a, [](ExpositionWriter& writer) {
    writer.BeginFamily("test_from_a", "a", "gauge");
    writer.Sample("test_from_a", {}, 1);
  });
  registry.AddCollector(&owner_b, [](ExpositionWriter& writer) {
    writer.BeginFamily("test_from_b", "b", "gauge");
    writer.Sample("test_from_b", {}, 1);
  });
  EXPECT_TRUE(Contains(registry.ExpositionText(), "test_from_a"));
  registry.RemoveCollectors(&owner_a);
  const std::string text = registry.ExpositionText();
  EXPECT_FALSE(Contains(text, "test_from_a"));
  EXPECT_TRUE(Contains(text, "test_from_b"));
}

TEST(ExpositionWriterTest, FormatValueEdgeCases) {
  EXPECT_EQ(ExpositionWriter::FormatValue(42), "42");
  EXPECT_EQ(ExpositionWriter::FormatValue(-3), "-3");
  EXPECT_EQ(ExpositionWriter::FormatValue(0.5), "0.5");
  EXPECT_EQ(ExpositionWriter::FormatValue(
                std::numeric_limits<double>::quiet_NaN()),
            "NaN");
  EXPECT_EQ(ExpositionWriter::FormatValue(
                std::numeric_limits<double>::infinity()),
            "+Inf");
  EXPECT_EQ(ExpositionWriter::FormatValue(
                -std::numeric_limits<double>::infinity()),
            "-Inf");
}

TEST(MetricsRegistryTest, ValidatesMetricNames) {
  EXPECT_TRUE(obs::IsValidMetricName("pbfs_engine_queue_depth"));
  EXPECT_TRUE(obs::IsValidMetricName("a:b_c9"));
  EXPECT_FALSE(obs::IsValidMetricName(""));
  EXPECT_FALSE(obs::IsValidMetricName("9starts_with_digit"));
  EXPECT_FALSE(obs::IsValidMetricName("has-dash"));
  EXPECT_FALSE(obs::IsValidMetricName("has space"));
}

// The one render path checks every family a scrape begins: an invalid
// name, or a name begun twice in one scrape (here by two collectors),
// fails a check instead of emitting an exposition scrapers reject.
TEST(MetricsRegistryTest, RejectsInvalidAndDuplicateFamilies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto family = [](const char* name) {
    return [name](ExpositionWriter& writer) {
      writer.BeginFamily(name, "help", "gauge");
      writer.Sample(name, {}, 1);
    };
  };
  int owner_a = 0, owner_b = 0;
  MetricsRegistry bad_name;
  bad_name.AddCollector(&owner_a, family("has-dash"));
  EXPECT_DEATH(bad_name.ExpositionText(), "PBFS_CHECK");

  MetricsRegistry twice;
  twice.AddCollector(&owner_a, family("test_shared"));
  twice.AddCollector(&owner_b, family("test_shared"));
  EXPECT_DEATH(twice.ExpositionText(), "PBFS_CHECK");
  // One collector per name renders, scrape after scrape.
  twice.RemoveCollectors(&owner_b);
  EXPECT_TRUE(Contains(twice.ExpositionText(), "test_shared 1\n"));
  EXPECT_TRUE(Contains(twice.ExpositionText(), "test_shared 1\n"));

  MetricsRegistry builtin;
  builtin.AddCollector(&owner_a, family("pbfs_scrapes_total"));
  EXPECT_DEATH(builtin.ExpositionText(), "PBFS_CHECK");
}

// ---- HTTP server, through a real client socket ----

std::string HttpRequest(int port, const std::string& request) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  EXPECT_EQ(send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

TEST(MetricsHttpServerTest, ServesRoutesAndErrors) {
  MetricsHttpServer server;
  server.AddRoute("/metrics", [] {
    MetricsHttpServer::Response response;
    response.body = "metric_a 1\n";
    return response;
  });
  server.AddRoute("/healthz", [] {
    MetricsHttpServer::Response response;
    response.body = "ok\n";
    return response;
  });
  ASSERT_TRUE(server.Start(/*port=*/0));  // ephemeral
  const int port = server.port();
  ASSERT_GT(port, 0);

  const std::string ok =
      HttpRequest(port, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_TRUE(Contains(ok, "HTTP/1.1 200 OK"));
  EXPECT_TRUE(Contains(ok, "Content-Type: text/plain"));
  EXPECT_TRUE(Contains(ok, "metric_a 1\n"));

  // Query strings route to the same handler.
  EXPECT_TRUE(Contains(
      HttpRequest(port, "GET /metrics?x=1 HTTP/1.1\r\nHost: t\r\n\r\n"),
      "metric_a 1\n"));
  EXPECT_TRUE(Contains(
      HttpRequest(port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"), "ok\n"));
  EXPECT_TRUE(Contains(
      HttpRequest(port, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n"),
      "HTTP/1.1 404"));
  EXPECT_TRUE(Contains(
      HttpRequest(port, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n"),
      "HTTP/1.1 405"));
  EXPECT_TRUE(Contains(HttpRequest(port, "garbage\r\n\r\n"),
                       "HTTP/1.1 400"));
  EXPECT_GE(server.requests_served(), 6u);

  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(server.running());
}

// /debug/vars through the full ObsCli wiring: the aggregated metrics
// snapshot as JSON, with the same method/path error behavior as
// /metrics; /debug/pprof degrades to an explicit 503 when sampling was
// disabled instead of serving an empty profile.
TEST(MetricsHttpServerTest, ObsCliServesDebugVarsAndPprofDegrades) {
  obs::ObsCli cli("debug_vars_test");
  FlagParser flags("test");
  cli.Register(&flags);
  const char* argv[] = {"test", "--serve-metrics=0", "--profile-sample-hz=0",
                        "--watchdog-dump-dir="};
  flags.Parse(4, const_cast<char**>(argv));
  cli.Start();
  const int port = cli.metrics_port();
  ASSERT_GT(port, 0);

  const std::string vars =
      HttpRequest(port, "GET /debug/vars HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_TRUE(Contains(vars, "HTTP/1.1 200 OK"));
  EXPECT_TRUE(Contains(vars, "Content-Type: application/json"));
  EXPECT_TRUE(Contains(vars, "\"num_threads\""));
  EXPECT_TRUE(Contains(vars, "\"entries\""));
  EXPECT_TRUE(Contains(
      HttpRequest(port, "POST /debug/vars HTTP/1.1\r\nHost: t\r\n\r\n"),
      "HTTP/1.1 405"));
  EXPECT_TRUE(Contains(
      HttpRequest(port, "GET /debug/var HTTP/1.1\r\nHost: t\r\n\r\n"),
      "HTTP/1.1 404"));

  const std::string pprof =
      HttpRequest(port, "GET /debug/pprof HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_TRUE(Contains(pprof, "HTTP/1.1 503"));
  EXPECT_TRUE(Contains(pprof, "profiler_unavailable"));

  cli.Finish();
  EXPECT_EQ(cli.metrics_port(), -1);
}

// ---- Stall watchdog, driven deterministically ----

struct FakeClock {
  int64_t now_ns = 0;
  std::function<int64_t()> fn() {
    return [this] { return now_ns; };
  }
};

constexpr int64_t kMs = 1000 * 1000;

TEST(StallWatchdogTest, StallReportsOncePerEpisodeAndRearms) {
  FakeClock clock;
  clock.now_ns = 1000 * kMs;
  StallWatchdog::Options options;
  options.worker_stall_ms = 100;
  options.report_cooldown_ms = 1000;
  options.dump_dir = "";  // no tracer session in this test
  options.now_ns = clock.fn();
  StallWatchdog watchdog(options);

  StallWatchdog::WorkerSample worker{0, /*epoch=*/5, /*busy=*/true};
  watchdog.WatchWorkers([&worker] {
    return std::vector<StallWatchdog::WorkerSample>{worker};
  });

  watchdog.PollOnce();  // baseline observation
  clock.now_ns += 50 * kMs;
  watchdog.PollOnce();  // frozen 50 ms < threshold
  EXPECT_EQ(watchdog.stats().stall_reports, 0u);

  clock.now_ns += 100 * kMs;
  watchdog.PollOnce();  // frozen 150 ms -> report
  EXPECT_EQ(watchdog.stats().stall_reports, 1u);
  EXPECT_TRUE(Contains(watchdog.stats().last_report, "worker 0"));

  clock.now_ns += 200 * kMs;
  watchdog.PollOnce();  // same episode: debounced
  watchdog.PollOnce();
  EXPECT_EQ(watchdog.stats().stall_reports, 1u);

  // Progress re-arms; a later freeze past the cooldown reports again.
  worker.epoch = 6;
  clock.now_ns += 1000 * kMs;
  watchdog.PollOnce();
  clock.now_ns += 150 * kMs;
  watchdog.PollOnce();
  EXPECT_EQ(watchdog.stats().stall_reports, 2u);

  // An idle worker never stalls, however frozen its epoch.
  worker.busy = false;
  clock.now_ns += 1000 * kMs;
  watchdog.PollOnce();
  clock.now_ns += 1000 * kMs;
  watchdog.PollOnce();
  EXPECT_EQ(watchdog.stats().stall_reports, 2u);
}

TEST(StallWatchdogTest, SlowQueryReportsOncePerIdWithCooldown) {
  FakeClock clock;
  clock.now_ns = 1000 * kMs;
  StallWatchdog::Options options;
  options.slow_query_ms = 100;
  options.report_cooldown_ms = 500;
  options.dump_dir = "";
  options.now_ns = clock.fn();
  StallWatchdog watchdog(options);

  std::vector<StallWatchdog::AdmissionSample> in_flight;
  watchdog.WatchAdmissions([&in_flight] { return in_flight; });

  in_flight = {{1, clock.now_ns, "levels"}};
  clock.now_ns += 50 * kMs;
  watchdog.PollOnce();
  EXPECT_EQ(watchdog.stats().slow_query_reports, 0u);

  clock.now_ns += 100 * kMs;  // id 1 now 150 ms old
  watchdog.PollOnce();
  EXPECT_EQ(watchdog.stats().slow_query_reports, 1u);
  EXPECT_TRUE(Contains(watchdog.stats().last_report, "id=1"));
  EXPECT_TRUE(Contains(watchdog.stats().last_report, "type=levels"));

  watchdog.PollOnce();  // same id: debounced, not even suppressed
  EXPECT_EQ(watchdog.stats().slow_query_reports, 1u);
  EXPECT_EQ(watchdog.stats().reports_suppressed, 0u);

  // A second slow id inside the cooldown is suppressed but remembered.
  in_flight.push_back({2, clock.now_ns - 200 * kMs, "khop"});
  watchdog.PollOnce();
  EXPECT_EQ(watchdog.stats().slow_query_reports, 1u);
  EXPECT_EQ(watchdog.stats().reports_suppressed, 1u);
  clock.now_ns += 600 * kMs;  // cooldown over; id 2 already reported
  watchdog.PollOnce();
  EXPECT_EQ(watchdog.stats().slow_query_reports, 1u);

  // Queries complete (leave the feed); a fresh slow id reports again.
  in_flight.clear();
  watchdog.PollOnce();
  in_flight = {{3, clock.now_ns - 200 * kMs, "distances"}};
  watchdog.PollOnce();
  EXPECT_EQ(watchdog.stats().slow_query_reports, 2u);
  EXPECT_TRUE(Contains(watchdog.stats().last_report, "id=3"));
}

TEST(StallWatchdogTest, AnomalyDumpsFlightRecorderFromLiveSession) {
  obs::Tracer::Get().Start({});
  obs::Tracer::Get().Record(
      obs::MakeInstant("test.marker", NowNanos()));

  FakeClock clock;
  clock.now_ns = 5000 * kMs;
  StallWatchdog::Options options;
  options.slow_query_ms = 100;
  options.now_ns = clock.fn();
  options.dump_dir = testing::TempDir();
  StallWatchdog watchdog(options);
  watchdog.WatchAdmissions([&clock] {
    return std::vector<StallWatchdog::AdmissionSample>{
        {9, clock.now_ns - 200 * kMs, "levels"}};
  });
  watchdog.PollOnce();
  const StallWatchdog::Stats stats = watchdog.stats();
  EXPECT_EQ(stats.slow_query_reports, 1u);
  ASSERT_EQ(stats.dumps_written, 1u);
  FILE* dump = std::fopen(stats.last_dump_path.c_str(), "r");
  ASSERT_NE(dump, nullptr) << stats.last_dump_path;
  std::fclose(dump);
  std::remove(stats.last_dump_path.c_str());

  // The session survived the snapshot: the tracer is still recording.
  EXPECT_TRUE(obs::Tracer::Get().enabled());
  const obs::TraceDump final_dump = obs::Tracer::Get().Stop();
  EXPECT_GE(final_dump.total_events(), 1u);
}

TEST(StallWatchdogTest, RegistersCountersOnRegistry) {
  MetricsRegistry registry;
  FakeClock clock;
  clock.now_ns = 1000 * kMs;
  StallWatchdog::Options options;
  options.worker_stall_ms = 100;
  options.dump_dir = "";
  options.registry = &registry;
  options.now_ns = clock.fn();
  StallWatchdog watchdog(options);
  watchdog.WatchWorkers([] {
    return std::vector<StallWatchdog::WorkerSample>{{0, 1, true}};
  });
  watchdog.PollOnce();
  clock.now_ns += 200 * kMs;
  watchdog.PollOnce();
  EXPECT_TRUE(Contains(registry.ExpositionText(),
                       "pbfs_watchdog_stall_reports_total 1\n"));
}

// The pbfs_watchdog_* families are rendered by the watchdog's collector
// from stats(), so a scrape reads exactly the counts stats() reports;
// Stop() withdraws them (started or not) and the registry scrapes on.
TEST(StallWatchdogTest, CollectorMirrorsStatsAndStopWithdrawsIt) {
  MetricsRegistry registry;
  FakeClock clock;
  clock.now_ns = 1000 * kMs;
  StallWatchdog::Options options;
  options.worker_stall_ms = 100;
  options.slow_query_ms = 100;
  options.report_cooldown_ms = 0;
  options.dump_dir = "";
  options.registry = &registry;
  options.now_ns = clock.fn();
  StallWatchdog watchdog(options);
  watchdog.WatchWorkers([] {
    return std::vector<StallWatchdog::WorkerSample>{{0, 1, true}};
  });
  std::vector<StallWatchdog::AdmissionSample> in_flight = {
      {7, clock.now_ns, "levels"}, {8, clock.now_ns, "levels"}};
  watchdog.WatchAdmissions([&in_flight] { return in_flight; });

  std::string text = registry.ExpositionText();
  EXPECT_TRUE(Contains(text, "pbfs_watchdog_stall_reports_total 0\n"));
  EXPECT_TRUE(Contains(text, "pbfs_watchdog_slow_query_reports_total 0\n"));
  EXPECT_TRUE(Contains(text, "pbfs_watchdog_flightrec_dumps_total 0\n"));

  watchdog.PollOnce();
  clock.now_ns += 200 * kMs;
  watchdog.PollOnce();  // one stall report, one slow-query report
  in_flight.push_back({9, clock.now_ns - 150 * kMs, "khop"});
  clock.now_ns += 1 * kMs;
  watchdog.PollOnce();  // a second slow-query report (id 9)
  const StallWatchdog::Stats stats = watchdog.stats();
  EXPECT_EQ(stats.stall_reports, 1u);
  EXPECT_EQ(stats.slow_query_reports, 2u);
  text = registry.ExpositionText();
  EXPECT_TRUE(Contains(text, "# TYPE pbfs_watchdog_stall_reports_total "
                             "counter\n"));
  EXPECT_TRUE(Contains(text, "pbfs_watchdog_stall_reports_total " +
                                 std::to_string(stats.stall_reports) + "\n"));
  EXPECT_TRUE(Contains(text, "pbfs_watchdog_slow_query_reports_total " +
                                 std::to_string(stats.slow_query_reports) +
                                 "\n"));
  EXPECT_TRUE(Contains(text, "pbfs_watchdog_flightrec_dumps_total " +
                                 std::to_string(stats.dumps_written) + "\n"));

  watchdog.Stop();
  text = registry.ExpositionText();
  EXPECT_FALSE(Contains(text, "pbfs_watchdog_"));
  EXPECT_TRUE(Contains(text, "pbfs_scrapes_total 3\n"));
  watchdog.Stop();  // idempotent
}

// ---- Query engine live telemetry, end to end ----

class EngineLiveTelemetryTest : public ::testing::Test {
 protected:
  EngineLiveTelemetryTest()
      : graph_(ErdosRenyi(/*num_vertices=*/512, /*num_edges=*/2048,
                          /*seed=*/3)),
        pool_({.num_workers = 2, .pin_threads = false}) {}

  Graph graph_;
  WorkerPool pool_;
};

TEST_F(EngineLiveTelemetryTest, ExportsWindowedMetricsAndInFlight) {
  MetricsRegistry registry;
  {
    QueryEngine engine(graph_, &pool_);
    engine.ExportLiveMetrics(&registry);

    std::vector<QueryEngine::Submission> subs;
    for (int i = 0; i < 8; ++i) {
      Query query;
      query.type = i % 2 == 0 ? QueryType::kLevels : QueryType::kDistances;
      query.source = static_cast<Vertex>(i);
      if (query.type == QueryType::kDistances) query.targets = {1, 2};
      subs.push_back(engine.Submit(std::move(query)));
    }
    for (auto& sub : subs) {
      EXPECT_EQ(sub.result.get().status, QueryStatus::kOk);
    }
    engine.Drain();

    const std::string text = registry.ExpositionText();
    EXPECT_TRUE(Contains(text, "pbfs_engine_queries_admitted_total 8\n"));
    EXPECT_TRUE(Contains(text, "pbfs_engine_queries_completed_total 8\n"));
    EXPECT_TRUE(Contains(text, "pbfs_engine_queue_depth 0\n"));
    EXPECT_TRUE(Contains(text, "pbfs_engine_inflight_queries 0\n"));
    // Windowed summaries carry per-type quantile series for the types
    // that saw traffic, and _count for all of them.
    EXPECT_TRUE(Contains(
        text, "pbfs_engine_query_latency_ms{type=\"levels\",quantile=\"0.5\"}"));
    EXPECT_TRUE(Contains(
        text,
        "pbfs_engine_query_latency_ms{type=\"distances\",quantile=\"0.99\"}"));
    EXPECT_TRUE(Contains(
        text, "pbfs_engine_query_latency_ms_count{type=\"levels\"} 4\n"));
    EXPECT_TRUE(Contains(
        text, "pbfs_engine_query_latency_ms_count{type=\"khop\"} 0\n"));
    EXPECT_TRUE(Contains(text, "pbfs_engine_batch_occupancy_count"));

    EXPECT_TRUE(engine.InFlightQueries().empty());
    EXPECT_EQ(engine.QueueDepth(), 0u);
  }
  // The engine withdrew its collector on destruction.
  EXPECT_FALSE(Contains(registry.ExpositionText(), "pbfs_engine_"));
}

TEST_F(EngineLiveTelemetryTest, DebugDelayKeepsQueryVisibleInFlight) {
  QueryEngine engine(graph_, &pool_);
  Query slow;
  slow.type = QueryType::kLevels;
  slow.source = 0;
  slow.debug_delay_ms = 300;
  const int64_t before = NowNanos();
  QueryEngine::Submission sub = engine.Submit(std::move(slow));

  // While the injected delay holds the batch, the query stays visible
  // to the admission feed with its real submit timestamp.
  bool seen_in_flight = false;
  while (NowNanos() - before < 250 * kMs) {
    for (const QueryEngine::InFlightQuery& q : engine.InFlightQueries()) {
      if (q.id == sub.id) {
        seen_in_flight = true;
        EXPECT_GE(q.submit_ns, before);
        EXPECT_EQ(q.type, QueryType::kLevels);
      }
    }
    if (seen_in_flight) break;
  }
  EXPECT_TRUE(seen_in_flight);
  EXPECT_EQ(sub.result.get().status, QueryStatus::kOk);
  EXPECT_GE(NowNanos() - before, 300 * kMs);  // the delay really held it
  engine.Drain();
  EXPECT_TRUE(engine.InFlightQueries().empty());
}

}  // namespace
}  // namespace pbfs
