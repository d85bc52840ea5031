// Shared observability CLI wiring for the demo and bench binaries:
// register the flags, Start() after parsing, Finish() before exit.
//
//   --trace-out=PATH    write a Chrome trace_event JSON file
//   --metrics-out=PATH  write an aggregated MetricsSnapshot JSON file
//   --profile           record hardware counters + stack samples + a
//                       NUMA placement audit and fold them into
//                       BENCH_<name>.json (sampler stats + the
//                       per-phase attribution table)
//   --profile-out=PATH  write the sampled stacks as a folded-stack
//                       file (FlameGraph/speedscope "collapsed"
//                       format); implies sampling even without
//                       --profile
//   --profile-sample-hz=HZ  sampling rate (default 97; 0 disables the
//                       sampler entirely)
//   --serve-metrics=PORT  serve live telemetry over HTTP: /metrics
//                       (Prometheus exposition), /healthz, /debug/trace
//                       (flight-recorder snapshot as Chrome trace JSON;
//                       ?trace_id=N filters to one query's span tree),
//                       /debug/slowlog (retained query-trace records as
//                       JSON lines; ?trace_id=N filters), /debug/vars
//                       (aggregated metrics as JSON), /debug/pprof
//                       (profile since start, or ?seconds=N delta;
//                       folded by default, ?format=json for the
//                       attribution payload). The sampling profiler
//                       runs for the server's lifetime, so delta
//                       profiles work on live servers.
//                       0 binds an ephemeral port (printed on stderr);
//                       the stall watchdog starts alongside the server.
//   --slowlog-out=PATH  append each retained (slow/shed/expired/error/
//                       sampled) query's JSON line to this file
//   --trace-slow-ms=MS  absolute slow-query retention threshold for the
//                       query trace store (<=0 disables; the rolling
//                       p99-relative trigger stays active)
//   --watchdog          run the stall watchdog without the HTTP server
//   --watchdog-stall-ms / --watchdog-slow-query-ms / --watchdog-dump-dir
//                       watchdog thresholds and flight-recorder dump
//                       location (empty dir disables dumping)
//
// One ObsCli instance owns the bench's BenchJson document: the bench
// fills in its own timing fields via json(), and in profile mode
// Finish() appends the counter totals (aggregate and per worker), the
// derived IPC / LLC miss rate, the counters_unavailable marker, and the
// NUMA audit object before writing the file.
#ifndef PBFS_OBS_OBS_CLI_H_
#define PBFS_OBS_OBS_CLI_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "obs/live/http_server.h"
#include "obs/live/metrics_registry.h"
#include "obs/live/stall_watchdog.h"
#include "obs/profiler/sampling_profiler.h"
#include "obs/trace.h"
#include "util/bench_json.h"
#include "util/flags.h"

namespace pbfs {

class Graph;
class QueryEngine;
class WorkerPool;

namespace obs {

class ObsCli {
 public:
  explicit ObsCli(const std::string& bench_name)
      : json_(bench_name), json_path_("BENCH_" + bench_name + ".json") {}

  void Register(FlagParser* flags);

  bool profiling() const { return profile_; }
  bool sampling() const {
    return profile_sample_hz_ > 0 &&
           (profile_ || !profile_out_path_.empty() || serving_live());
  }
  bool serving_live() const {
    return serve_metrics_port_ >= 0 || watchdog_flag_;
  }
  bool active() const {
    return profile_ || !trace_path_.empty() || !metrics_path_.empty() ||
           !profile_out_path_.empty() || !slowlog_path_.empty() ||
           serving_live();
  }

  // The bench's JSON document (timings etc.); written by Finish() in
  // profile mode or when set_always_write_json(true).
  BenchJson& json() { return json_; }
  void set_json_path(const std::string& path) { json_path_ = path; }
  const std::string& json_path() const { return json_path_; }
  void set_always_write_json(bool always) { always_write_json_ = always; }

  // Call once after Parse(). Starts a trace session when any obs output
  // was requested and, in profile mode, enables the hardware counters
  // (degrading loudly-but-harmlessly when the host denies them).
  void Start();

  // ---- Live telemetry wiring (no-ops when the live surfaces were not
  // requested) ----

  // Feeds `pool`'s worker heartbeats to the stall watchdog and exposes
  // per-worker heartbeat gauges plus the scheduler's task counters.
  // `pool` must outlive telemetry (ObsCli::Finish stops both consumers).
  void WatchPool(WorkerPool* pool);

  // Exports `engine`'s windowed latency/occupancy metrics on the
  // registry and feeds its in-flight queries to the watchdog. The
  // engine withdraws its collector in its own destructor, so engine
  // lifetime shorter than the CLI's is safe; the watchdog must stop
  // before the engine dies (Finish() does).
  void WatchEngine(QueryEngine* engine);

  // Exports a network front-end's live metric families (the
  // pbfs_server_* series from server::PbfsServer) on the registry.
  // Duck-typed on ExportLiveMetrics(MetricsRegistry*) so the obs layer
  // does not depend on the server layer (which already depends on
  // obs). The server withdraws its collector in its own Stop(); stop
  // it before Finish() as with WatchEngine.
  template <typename ServerT>
  void WatchServer(ServerT* server) {
    if (!serving_live() || server == nullptr) return;
    server->ExportLiveMetrics(&registry_);
  }

  // The live registry, for binaries registering their own metrics.
  MetricsRegistry* registry() { return &registry_; }
  // Bound /metrics port, or -1 when the server is not running.
  int metrics_port() const { return server_.running() ? server_.port() : -1; }
  StallWatchdog* watchdog() { return watchdog_.get(); }

  // Audits the placement of `graph` plus a first-touch state probe run
  // on `pool` against the task-range ownership model (profile mode
  // only). Call between Start() and Finish(), after the graph exists.
  void AuditPlacement(const Graph& graph, WorkerPool* pool,
                      uint32_t split_size);

  // Call once before exit: stops the session, writes whichever outputs
  // were requested, and in profile mode prints the metrics table and
  // writes the enriched BENCH_<name>.json.
  void Finish();

 private:
  // "trace_id=42" (anywhere in the query string) -> 42; 0 when absent
  // or unparsable.
  static uint64_t ParseTraceIdQuery(const std::string& query);

  // /debug/pprof: the profile since profiler start, or — with
  // ?seconds=N (clamped to 30) — a delta captured by sleeping on the
  // accept thread, which the one-connection-at-a-time server design
  // explicitly permits. ?format=json returns the sampler stats +
  // attribution table + stacks; the default is the folded-stack text.
  static MetricsHttpServer::Response PprofResponse(const std::string& query);

  // The BENCH_<name>.json `profiler` section: sampler stats plus the
  // per-phase attribution table scripts/perf_attribution.py consumes;
  // an explicit `profiler_unavailable` marker when sampling was
  // requested but no backend could run (PBFS_PROFILER_DISABLE, or
  // perf denied *and* setitimer failing).
  void AppendProfilerJson(const TraceDump& dump,
                          const ProfileCounts& counts,
                          const SamplingProfiler::Stats& stats);

  void AppendProfileJson(const TraceDump& dump);

  BenchJson json_;
  std::string json_path_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string numa_json_;
  std::string numa_text_;
  std::string profile_out_path_;
  int64_t profile_sample_hz_ = 97;
  bool profiler_started_ = false;
  bool profile_ = false;
  bool always_write_json_ = false;
  bool started_ = false;
  bool backend_available_ = false;

  int64_t serve_metrics_port_ = -1;
  bool watchdog_flag_ = false;
  double watchdog_stall_ms_ = 1000;
  double watchdog_slow_query_ms_ = 1000;
  std::string watchdog_dump_dir_ = ".";
  std::string slowlog_path_;
  double trace_slow_ms_ = 250;
  MetricsRegistry registry_;
  MetricsHttpServer server_;
  std::unique_ptr<StallWatchdog> watchdog_;
  std::unique_ptr<std::ofstream> slowlog_file_;
};

}  // namespace obs
}  // namespace pbfs

#endif  // PBFS_OBS_OBS_CLI_H_
