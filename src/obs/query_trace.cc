#include "obs/query_trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>

#include "obs/trace.h"
#include "util/timer.h"

namespace pbfs {
namespace obs {

namespace {

constexpr const char* kStageSpanNames[kNumQueryStageSpans] = {
    "query.decode", "query.queue",  "query.gate",
    "query.coalesce", "query.kernel", "query.deliver",
};

constexpr const char* kQueryTypeNames[] = {
    "levels", "distances", "reachability", "khop", "p2p",
};

const char* OutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kOk:
      return "ok";
    case QueryOutcome::kShed:
      return "shed";
    case QueryOutcome::kExpired:
      return "expired";
    case QueryOutcome::kError:
      return "error";
  }
  return "unknown";
}

// splitmix64 finalizer: uniform, non-zero-biased ids from a counter.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void AppendKeyMs(std::string* out, const char* key, int64_t ns,
                 bool trailing_comma) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.3f%s", key,
                static_cast<double>(ns) * 1e-6, trailing_comma ? "," : "");
  out->append(buf);
}

}  // namespace

const char* QueryStageSpanName(int i) {
  return (i >= 0 && i < kNumQueryStageSpans) ? kStageSpanNames[i] : "query.?";
}

std::string QueryTraceRecord::ToJson() const {
  std::string out;
  out.reserve(384);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"trace_id\":%" PRIu64 ",\"request_id\":%" PRIu64
                ",\"session_id\":%" PRIu64 ",",
                trace_id, request_id, session_id);
  out.append(buf);
  const char* type_name =
      query_type < sizeof(kQueryTypeNames) / sizeof(kQueryTypeNames[0])
          ? kQueryTypeNames[query_type]
          : "unknown";
  std::snprintf(buf, sizeof(buf),
                "\"type\":\"%s\",\"priority\":%u,\"outcome\":\"%s\","
                "\"reason\":\"%s\",\"shed_reason\":\"%s\",\"sampled\":%s,",
                type_name, static_cast<unsigned>(priority),
                OutcomeName(outcome), retain_reason, shed_reason,
                sampled ? "true" : "false");
  out.append(buf);
  AppendKeyMs(&out, "wire_ms", wire_latency_ns, true);
  out.append("\"stages_ms\":{");
  static constexpr const char* kKeys[kNumQueryStageSpans] = {
      "decode", "queue", "gate", "coalesce", "kernel", "deliver"};
  for (int i = 0; i < kNumQueryStageSpans; ++i) {
    AppendKeyMs(&out, kKeys[i], StageDurNs(i), i + 1 < kNumQueryStageSpans);
  }
  out.append("},");
  std::snprintf(buf, sizeof(buf),
                "\"batch_width\":%u,\"batch_seq\":%" PRIu64
                ",\"snapshot_version\":%" PRIu64 ",\"received_ns\":%" PRId64
                "}",
                batch_width, batch_seq, snapshot_version,
                bounds_ns[0]);
  out.append(buf);
  return out;
}

QueryTraceStore& QueryTraceStore::Get() {
  static QueryTraceStore* store = new QueryTraceStore();
  return *store;
}

QueryTraceStore::QueryTraceStore()
    : id_seed_(static_cast<uint64_t>(NowNanos()) | 1) {}

void QueryTraceStore::Configure(const Options& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_ = options;
  retained_.clear();
  RollingWindow::Options w;
  w.window_ns = options.p99_window_ns > 0 ? options.p99_window_ns
                                          : RollingWindow::Options().window_ns;
  latency_window_ = std::make_unique<RollingWindow>(w);
  for (Exemplar& e : exemplars_) e = Exemplar();
  retained_slow_ = retained_shed_ = retained_expired_ = retained_error_ =
      retained_sampled_ = discarded_total_ = 0;
}

QueryTraceStore::Options QueryTraceStore::options() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return options_;
}

uint64_t QueryTraceStore::MintTraceId() {
  uint64_t id = 0;
  while (id == 0) {
    id = Mix64(id_seed_ +
               id_counter_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  return id;
}

double QueryTraceStore::EffectiveSlowMsLocked(int64_t now_ns) const {
  double threshold = std::numeric_limits<double>::infinity();
  if (options_.slow_ms > 0) threshold = options_.slow_ms;
  if (options_.p99_factor > 0 && latency_window_ != nullptr) {
    const RollingWindow::Stats stats = latency_window_->WindowStats(now_ns);
    if (stats.count >= options_.min_p99_samples) {
      threshold = std::min(threshold, stats.p99 * options_.p99_factor);
    }
  }
  return threshold;
}

void QueryTraceStore::Finish(QueryTraceRecord& record, QueryOutcome outcome,
                             int64_t now_ns) {
  int64_t* b = record.bounds_ns;
  b[kNumQueryStageBounds - 1] = now_ns;
  // Forward-fill unreached boundaries (a shed query never passes
  // kTaken) and clamp cross-thread clock skew so every stage duration
  // is >= 0 and the durations telescope to exactly delivered-received.
  for (int i = 1; i < kNumQueryStageBounds; ++i) {
    if (b[i] == 0 || b[i] < b[i - 1]) b[i] = b[i - 1];
  }
  record.outcome = outcome;
  record.wire_latency_ns = b[kNumQueryStageBounds - 1] - b[0];
  const double latency_ms = static_cast<double>(record.wire_latency_ns) * 1e-6;
  switch (outcome) {
    case QueryOutcome::kShed:
      record.retain_reason = "shed";
      break;
    case QueryOutcome::kExpired:
      record.retain_reason = "expired";
      break;
    case QueryOutcome::kError:
      record.retain_reason = "error";
      break;
    case QueryOutcome::kOk:
      record.retain_reason = record.sampled ? "sampled" : "";
      break;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  const double threshold = EffectiveSlowMsLocked(now_ns);
  if (latency_window_ == nullptr) {
    latency_window_ = std::make_unique<RollingWindow>();
  }
  latency_window_->Add(latency_ms, now_ns);
  if (record.retain_reason[0] == '\0' && latency_ms >= threshold) {
    record.retain_reason = "slow";
  }
  if (record.retain_reason[0] == '\0') {
    ++discarded_total_;
    return;
  }
  RetainLocked(record);
}

void QueryTraceStore::RetainLocked(const QueryTraceRecord& record) {
  switch (record.outcome) {
    case QueryOutcome::kShed:
      ++retained_shed_;
      break;
    case QueryOutcome::kExpired:
      ++retained_expired_;
      break;
    case QueryOutcome::kError:
      ++retained_error_;
      break;
    case QueryOutcome::kOk:
      if (record.retain_reason[0] == 's' && record.retain_reason[1] == 'a') {
        ++retained_sampled_;
      } else {
        ++retained_slow_;
      }
      break;
  }
  const double latency_ms = static_cast<double>(record.wire_latency_ns) * 1e-6;
  if (record.priority < kMaxPriorities &&
      latency_ms >= exemplars_[record.priority].latency_ms) {
    exemplars_[record.priority] = {record.trace_id, latency_ms};
  }
  if (options_.slowlog_sink) options_.slowlog_sink(record.ToJson());
  if (options_.emit_spans) EmitSpans(record);
  retained_.push_back(record);
  while (retained_.size() > options_.max_retained) retained_.pop_front();
}

void QueryTraceStore::EmitSpans(const QueryTraceRecord& record) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  for (int i = 0; i < kNumQueryStageSpans; ++i) {
    if (record.StageDurNs(i) <= 0) continue;
    TraceEvent span = MakeSpan(kStageSpanNames[i], record.bounds_ns[i],
                               record.bounds_ns[i + 1]);
    span.AddArg("trace", record.trace_id);
    span.AddArg("request", record.request_id);
    if (i == 4) {  // kernel stage rode a dispatcher batch
      span.AddArg("batch", record.batch_seq);
      span.AddArg("width", record.batch_width);
    }
    tracer.Record(span);
  }
  TraceEvent done = MakeInstant("query.retained",
                                record.bounds_ns[kNumQueryStageBounds - 1]);
  done.AddArg("trace", record.trace_id);
  done.AddArg("wire_us",
              static_cast<uint64_t>(record.wire_latency_ns / 1000));
  tracer.Record(done);
}

std::vector<QueryTraceRecord> QueryTraceStore::Retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<QueryTraceRecord>(retained_.begin(), retained_.end());
}

std::string QueryTraceStore::SlowlogJson(uint64_t only_trace_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const QueryTraceRecord& record : retained_) {
    if (only_trace_id != 0 && record.trace_id != only_trace_id) continue;
    out.append(record.ToJson());
    out.push_back('\n');
  }
  return out;
}

QueryTraceStore::Stats QueryTraceStore::GetStats(int64_t now_ns) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.retained = retained_.size();
  stats.retained_slow = retained_slow_;
  stats.retained_shed = retained_shed_;
  stats.retained_expired = retained_expired_;
  stats.retained_error = retained_error_;
  stats.retained_sampled = retained_sampled_;
  stats.discarded_total = discarded_total_;
  const double threshold = EffectiveSlowMsLocked(now_ns);
  stats.effective_slow_ms =
      threshold == std::numeric_limits<double>::infinity() ? 0 : threshold;
  return stats;
}

QueryTraceStore::Exemplar QueryTraceStore::exemplar(uint8_t priority) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return priority < kMaxPriorities ? exemplars_[priority] : Exemplar();
}

void QueryTraceStore::CollectMetrics(ExpositionWriter& writer,
                                     int64_t now_ns) const {
  const Stats stats = GetStats(now_ns);
  writer.BeginFamily("pbfs_query_trace_retained",
                     "Span trees currently held in the bounded flight "
                     "recorder.",
                     "gauge");
  writer.Sample("pbfs_query_trace_retained", {},
                static_cast<double>(stats.retained));
  writer.BeginFamily("pbfs_query_trace_retained_total",
                     "Queries whose span tree was retained, by reason.",
                     "counter");
  const std::pair<const char*, uint64_t> reasons[] = {
      {"slow", stats.retained_slow},       {"shed", stats.retained_shed},
      {"expired", stats.retained_expired}, {"error", stats.retained_error},
      {"sampled", stats.retained_sampled},
  };
  for (const auto& [reason, count] : reasons) {
    writer.Sample("pbfs_query_trace_retained_total", {{"reason", reason}},
                  static_cast<double>(count));
  }
  writer.BeginFamily("pbfs_query_trace_discarded_total",
                     "Queries finished fast and unsampled: nothing kept.",
                     "counter");
  writer.Sample("pbfs_query_trace_discarded_total", {},
                static_cast<double>(stats.discarded_total));
  writer.BeginFamily("pbfs_query_trace_slow_threshold_ms",
                     "Current effective slow-retention threshold (0 = "
                     "disabled).",
                     "gauge");
  writer.Sample("pbfs_query_trace_slow_threshold_ms", {},
                stats.effective_slow_ms);
}

}  // namespace obs
}  // namespace pbfs
