#include "obs/obs_cli.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/numa_audit.h"
#include "obs/perf_counters.h"
#include "obs/profiler/phase_profile.h"
#include "obs/profiler/symbolize.h"
#include "obs/query_trace.h"
#include "sched/worker_pool.h"
#include "util/timer.h"

namespace pbfs {
namespace obs {

void ObsCli::Register(FlagParser* flags) {
  flags->AddString("trace-out", &trace_path_,
                   "write a Chrome trace_event JSON file here");
  flags->AddString("metrics-out", &metrics_path_,
                   "write an aggregated metrics snapshot JSON file here");
  flags->AddBool("profile", &profile_,
                 "record hardware counters and a NUMA placement audit; "
                 "writes BENCH_<name>.json");
  flags->AddString("profile-out", &profile_out_path_,
                   "write sampled stacks as a folded-stack file "
                   "(speedscope/FlameGraph collapsed format)");
  flags->AddInt64("profile-sample-hz", &profile_sample_hz_,
                  "stack sampling rate for the profiler (0 = no "
                  "sampling)");
  flags->AddInt64("serve-metrics", &serve_metrics_port_,
                  "serve /metrics, /healthz, /debug/trace on this port "
                  "(0 = ephemeral, -1 = off)");
  flags->AddBool("watchdog", &watchdog_flag_,
                 "run the stall watchdog (implied by --serve-metrics)");
  flags->AddDouble("watchdog-stall-ms", &watchdog_stall_ms_,
                   "busy worker with a frozen heartbeat for this long "
                   "is reported as stalled");
  flags->AddDouble("watchdog-slow-query-ms", &watchdog_slow_query_ms_,
                   "in-flight query older than this is reported as slow");
  flags->AddString("watchdog-dump-dir", &watchdog_dump_dir_,
                   "directory for flight-recorder dumps on anomaly "
                   "(empty = no dumps)");
  flags->AddString("slowlog-out", &slowlog_path_,
                   "append retained query-trace records (JSON lines) "
                   "to this file");
  flags->AddDouble("trace-slow-ms", &trace_slow_ms_,
                   "retain the span tree of any query slower than this "
                   "(ms; <=0 disables the absolute threshold)");
}

void ObsCli::Start() {
  if (!active()) return;
  if (profile_) {
    backend_available_ = PerfCounters::Enable();
    if (!backend_available_) {
      std::fprintf(stderr, "profile: hardware counters unavailable: %s\n",
                   PerfCounters::unavailable_reason());
    }
  }
  Tracer::Get().Start({});
  started_ = true;
  if (sampling()) {
    SamplingProfiler::Options prof;
    prof.sample_hz = static_cast<int>(profile_sample_hz_);
    profiler_started_ = SamplingProfiler::Get().Start(prof);
    if (!profiler_started_) {
      std::fprintf(stderr, "profiler: sampling unavailable: %s\n",
                   SamplingProfiler::Get().unavailable_reason());
    }
  }
  {
    // Query-trace retention: absolute threshold from the flag, JSON
    // lines to the slowlog file when one was requested. Configure
    // resets the store, so run state starts clean.
    QueryTraceStore::Options qt;
    qt.slow_ms = trace_slow_ms_;
    if (!slowlog_path_.empty()) {
      slowlog_file_ =
          std::make_unique<std::ofstream>(slowlog_path_, std::ios::app);
      if (!*slowlog_file_) {
        std::fprintf(stderr, "cannot open --slowlog-out=%s\n",
                     slowlog_path_.c_str());
        slowlog_file_.reset();
      } else {
        std::ofstream* out = slowlog_file_.get();
        qt.slowlog_sink = [out](const std::string& line) {
          *out << line << '\n';
          out->flush();
        };
      }
    }
    QueryTraceStore::Get().Configure(qt);
    registry_.AddCollector(this, [](ExpositionWriter& writer) {
      QueryTraceStore::Get().CollectMetrics(writer, NowNanos());
    });
  }
  if (serving_live()) {
    StallWatchdog::Options wd;
    wd.worker_stall_ms = watchdog_stall_ms_;
    wd.slow_query_ms = watchdog_slow_query_ms_;
    wd.dump_dir = watchdog_dump_dir_;
    wd.registry = &registry_;
    watchdog_ = std::make_unique<StallWatchdog>(wd);
    watchdog_->Start();
  }
  if (serve_metrics_port_ >= 0) {
    server_.AddRoute("/metrics", [this] {
      MetricsHttpServer::Response response;
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = registry_.ExpositionText();
      return response;
    });
    server_.AddRoute("/healthz", [] {
      MetricsHttpServer::Response response;
      response.body = "ok\n";
      return response;
    });
    server_.AddRoute("/debug/vars", [] {
      // The spans in the live trace rings, aggregated into a
      // MetricsSnapshot, as JSON (not the /metrics families).
      MetricsHttpServer::Response response;
      response.content_type = "application/json";
      response.body = MetricsJson(AggregateMetrics(Tracer::Get().Snapshot()));
      return response;
    });
    server_.AddQueryRoute("/debug/pprof", [](const std::string& query) {
      return PprofResponse(query);
    });
    server_.AddQueryRoute("/debug/trace", [](const std::string& query) {
      // Flight recorder on demand: snapshot the live rings without
      // stopping the session. ?trace_id=N keeps one query's tree.
      MetricsHttpServer::Response response;
      response.content_type = "application/json";
      response.body = ChromeTraceJson(Tracer::Get().Snapshot(),
                                      ParseTraceIdQuery(query));
      return response;
    });
    server_.AddQueryRoute("/debug/slowlog", [](const std::string& query) {
      MetricsHttpServer::Response response;
      response.content_type = "application/json";
      response.body =
          QueryTraceStore::Get().SlowlogJson(ParseTraceIdQuery(query));
      return response;
    });
    if (server_.Start(static_cast<int>(serve_metrics_port_))) {
      std::fprintf(stderr, "telemetry: serving http://127.0.0.1:%d"
                   "/metrics /healthz /debug/trace /debug/slowlog "
                   "/debug/vars /debug/pprof\n",
                   server_.port());
    }
  }
}

void ObsCli::WatchPool(WorkerPool* pool) {
  if (!serving_live() || pool == nullptr) return;
  if (watchdog_ != nullptr) {
    watchdog_->WatchWorkers([pool] {
      std::vector<StallWatchdog::WorkerSample> samples;
      for (const WorkerPool::WorkerHeartbeat& hb :
           pool->HeartbeatSamples()) {
        samples.push_back(
            StallWatchdog::WorkerSample{hb.worker_id, hb.epoch, hb.busy});
      }
      return samples;
    });
  }
  registry_.AddCollector(pool, [pool](ExpositionWriter& writer) {
    const WorkerPool::SchedulerStats sched = pool->scheduler_stats();
    writer.BeginFamily("pbfs_sched_local_tasks_total",
                       "Tasks fetched from the owning worker's queue.",
                       "counter");
    writer.Sample("pbfs_sched_local_tasks_total", {},
                  static_cast<double>(sched.local_tasks));
    writer.BeginFamily("pbfs_sched_stolen_tasks_total",
                       "Tasks stolen from another worker's queue.",
                       "counter");
    writer.Sample("pbfs_sched_stolen_tasks_total", {},
                  static_cast<double>(sched.stolen_tasks));
    // One snapshot, rendered family by family: the format requires
    // all samples of a family contiguous under its TYPE line.
    const std::vector<WorkerPool::WorkerHeartbeat> heartbeats =
        pool->HeartbeatSamples();
    writer.BeginFamily("pbfs_worker_heartbeat_epoch",
                       "Per-worker heartbeat epoch (bumps once per "
                       "fetched task).",
                       "gauge");
    for (const WorkerPool::WorkerHeartbeat& hb : heartbeats) {
      writer.Sample("pbfs_worker_heartbeat_epoch",
                    {{"worker", std::to_string(hb.worker_id)}},
                    static_cast<double>(hb.epoch));
    }
    writer.BeginFamily("pbfs_worker_busy",
                       "1 while the worker is inside a dispatched job.",
                       "gauge");
    for (const WorkerPool::WorkerHeartbeat& hb : heartbeats) {
      writer.Sample("pbfs_worker_busy",
                    {{"worker", std::to_string(hb.worker_id)}},
                    hb.busy ? 1 : 0);
    }
  });
}

void ObsCli::WatchEngine(QueryEngine* engine) {
  if (!serving_live() || engine == nullptr) return;
  engine->ExportLiveMetrics(&registry_);
  if (watchdog_ != nullptr) {
    watchdog_->WatchAdmissions([engine] {
      std::vector<StallWatchdog::AdmissionSample> samples;
      for (const QueryEngine::InFlightQuery& q :
           engine->InFlightQueries()) {
        samples.push_back(StallWatchdog::AdmissionSample{
            q.id, q.submit_ns, QueryTypeName(q.type)});
      }
      return samples;
    });
  }
}

void ObsCli::AuditPlacement(const Graph& graph, WorkerPool* pool,
                            uint32_t split_size) {
  if (!profile_) return;
  const GraphPlacementAudit audit =
      AuditBfsPlacement(graph, pool, split_size);
  numa_json_ = audit.ToJson();
  numa_text_ = audit.ToString();
}

void ObsCli::Finish() {
  // Live consumers go first: the watchdog and the scrape server read
  // the pool/engine through their sources, and callers destroy those
  // right after Finish() returns.
  if (watchdog_ != nullptr) {
    watchdog_->Stop();
    watchdog_.reset();
  }
  server_.Stop();
  registry_.RemoveCollectors(this);
  if (slowlog_file_ != nullptr) {
    // Detach the sink before the stream dies; the store outlives us.
    QueryTraceStore::Options qt = QueryTraceStore::Get().options();
    qt.slowlog_sink = nullptr;
    QueryTraceStore::Get().Configure(qt);
    slowlog_file_->flush();
    slowlog_file_.reset();
    std::fprintf(stderr, "slowlog: %s\n", slowlog_path_.c_str());
  }
  ProfileCounts prof_counts;
  SamplingProfiler::Stats prof_stats;
  if (profiler_started_) {
    // Capture before Stop(): the fold table survives Stop, but the
    // overhead clock does not tick past it.
    prof_counts = SamplingProfiler::Get().Snapshot();
    prof_stats = SamplingProfiler::Get().stats();
    SamplingProfiler::Get().Stop();
  }
  if (started_) {
    const TraceDump dump = Tracer::Get().Stop();
    started_ = false;
    if (!trace_path_.empty() && WriteChromeTraceFile(dump, trace_path_)) {
      std::fprintf(stderr, "trace: %llu events from %zu threads -> %s\n",
                   static_cast<unsigned long long>(dump.total_events()),
                   dump.threads.size(), trace_path_.c_str());
    }
    const MetricsSnapshot snapshot = AggregateMetrics(dump);
    if (!metrics_path_.empty() &&
        WriteMetricsJsonFile(snapshot, metrics_path_)) {
      std::fprintf(stderr, "metrics: %zu entries -> %s\n",
                   snapshot.entries.size(), metrics_path_.c_str());
    }
    if (profiler_started_ && !profile_out_path_.empty()) {
      Symbolizer symbolizer;
      std::ofstream out(profile_out_path_);
      if (!out) {
        std::fprintf(stderr, "cannot open --profile-out=%s\n",
                     profile_out_path_.c_str());
      } else {
        out << FoldedProfileText(prof_counts, &symbolizer);
        std::fprintf(stderr,
                     "profile: %llu samples (%s backend) -> %s\n",
                     static_cast<unsigned long long>(
                         prof_counts.SampleSum()),
                     prof_stats.backend, profile_out_path_.c_str());
      }
    }
    if (profile_) {
      std::printf("\n== profile: aggregated metrics ==\n%s",
                  snapshot.ToString().c_str());
      if (!numa_text_.empty()) std::printf("%s\n", numa_text_.c_str());
      AppendProfileJson(dump);
      AppendProfilerJson(dump, prof_counts, prof_stats);
      PerfCounters::Disable();
    }
  }
  if (profile_ || always_write_json_) json_.WriteFile(json_path_);
}

uint64_t ObsCli::ParseTraceIdQuery(const std::string& query) {
  const size_t pos = query.find("trace_id=");
  if (pos == std::string::npos) return 0;
  return std::strtoull(query.c_str() + pos + 9, nullptr, 10);
}

MetricsHttpServer::Response ObsCli::PprofResponse(const std::string& query) {
  MetricsHttpServer::Response response;
  SamplingProfiler& profiler = SamplingProfiler::Get();
  if (!profiler.running()) {
    response.status = 503;
    response.body = std::string("profiler_unavailable: ") +
                    profiler.unavailable_reason() + "\n";
    return response;
  }
  long seconds = 0;
  const size_t pos = query.find("seconds=");
  if (pos != std::string::npos) {
    seconds = std::strtol(query.c_str() + pos + 8, nullptr, 10);
    if (seconds < 0) seconds = 0;
    if (seconds > 30) seconds = 30;
  }
  ProfileCounts counts = profiler.Snapshot();
  if (seconds > 0) {
    const ProfileCounts base = std::move(counts);
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    counts = SubtractProfiles(profiler.Snapshot(), base);
  }
  Symbolizer symbolizer;
  if (query.find("format=json") != std::string::npos) {
    PhaseProfileStore store;
    store.SetSamples(std::move(counts));
    store.MergeSpans(Tracer::Get().Snapshot());
    const PhaseAttribution attribution =
        store.BuildAttribution(&symbolizer);
    response.content_type = "application/json";
    response.body = ProfileJson(store.samples(), profiler.stats(),
                                attribution, &symbolizer);
  } else {
    response.body = FoldedProfileText(counts, &symbolizer);
  }
  return response;
}

void ObsCli::AppendProfilerJson(const TraceDump& dump,
                                const ProfileCounts& counts,
                                const SamplingProfiler::Stats& stats) {
  if (!profiler_started_) {
    if (sampling()) {
      json_.AddBool("profiler_unavailable", true);
      json_.Add("profiler_unavailable_reason",
                SamplingProfiler::Get().unavailable_reason());
    }
    return;
  }
  Symbolizer symbolizer;
  PhaseProfileStore store;
  store.SetSamples(counts);
  store.MergeSpans(dump);
  const PhaseAttribution attribution = store.BuildAttribution(&symbolizer);
  std::printf("== profile: per-phase attribution ==\n%s\n",
              AttributionReportText(attribution).c_str());
  json_.AddRaw("profiler", "{\"sampler\":" +
                               SamplerStatsJson(counts, stats) +
                               ",\"phases\":" +
                               AttributionJsonArray(attribution) + "}");
}

void ObsCli::AppendProfileJson(const TraceDump& dump) {
  json_.AddBool("profile", true);
  json_.AddBool("counters_unavailable", !backend_available_);
  if (!backend_available_) {
    json_.Add("counters_unavailable_reason",
              PerfCounters::unavailable_reason());
  }
  json_.Add("trace_events", dump.total_events());
  json_.Add("trace_dropped", dump.total_dropped());

  // Per-worker counter totals from the scheduler's worker spans, plus
  // the cross-worker aggregate: skew between workers is the whole
  // point of recording these per thread (Figure 9).
  static const char* const kExtraKeys[] = {"local", "stolen", "elems",
                                           "edges_scanned",
                                           "counters_unavailable"};
  std::map<std::string, uint64_t> totals;
  std::string per_worker = "{";
  bool first_worker = true;
  for (const WorkerArgTotals& row : PerWorkerArgTotals(dump)) {
    if (!first_worker) per_worker += ',';
    first_worker = false;
    per_worker += "\"" + row.label + "\":{";
    bool first_key = true;
    auto emit = [&](const std::string& key, uint64_t value) {
      if (!first_key) per_worker += ',';
      first_key = false;
      per_worker += "\"" + key + "\":" + std::to_string(value);
    };
    for (int id = 0; id < kNumPerfCounters; ++id) {
      const auto it = row.totals.find(PerfCounterArgName(id));
      if (it == row.totals.end()) continue;
      emit(it->first, it->second);
      totals[it->first] += it->second;
    }
    for (const char* key : kExtraKeys) {
      const auto it = row.totals.find(key);
      if (it != row.totals.end()) emit(it->first, it->second);
    }
    per_worker += "}";
  }
  per_worker += "}";
  json_.AddRaw("perf_per_worker", per_worker);

  for (const auto& [key, value] : totals) {
    json_.Add("total_" + key, value);
  }
  const auto instructions = totals.find("instructions");
  const auto cycles = totals.find("cycles");
  if (instructions != totals.end() && cycles != totals.end() &&
      cycles->second > 0) {
    json_.Add("ipc", static_cast<double>(instructions->second) /
                         static_cast<double>(cycles->second));
  }
  const auto misses = totals.find("llc_misses");
  const auto loads = totals.find("llc_loads");
  if (misses != totals.end() && loads != totals.end() &&
      loads->second > 0) {
    json_.Add("llc_miss_rate", static_cast<double>(misses->second) /
                                   static_cast<double>(loads->second));
  }
  if (!numa_json_.empty()) json_.AddRaw("numa_audit", numa_json_);
}

}  // namespace obs
}  // namespace pbfs
