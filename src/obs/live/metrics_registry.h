// Live metric registry + Prometheus text exposition (format 0.0.4).
//
// Every family on /metrics comes from a collector: a scrape-time
// callback its owning subsystem registers (the query engine's rolling
// windows, the server's counters, worker heartbeats, the watchdog's
// report counts). The subsystem keeps its own state under its own
// synchronization and renders it on demand, so the registry holds no
// metric values of its own beyond the built-in pbfs_scrapes_total.
// ExpositionText() runs every collector and renders the text format
// Prometheus scrapes:
//
//   # HELP pbfs_engine_queue_depth Queries awaiting dispatch.
//   # TYPE pbfs_engine_queue_depth gauge
//   pbfs_engine_queue_depth 3
//
// Collectors run under the registry lock at scrape time and must not
// call back into the registry. A family name begun twice in one scrape
// (two collectors, or one collector twice) fails a check.
#ifndef PBFS_OBS_LIVE_METRICS_REGISTRY_H_
#define PBFS_OBS_LIVE_METRICS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace pbfs {
namespace obs {

// One name="value" pair on a sample line.
using MetricLabel = std::pair<std::string, std::string>;

// Serializer for the exposition text format. Families must be begun
// before their samples; the writer escapes help text and label values
// and formats doubles so integers stay integral (Prometheus parsers
// accept either, humans diff the output).
class ExpositionWriter {
 public:
  // Emits the # HELP / # TYPE header for a family. `type` is one of
  // "counter", "gauge", "histogram", "summary", "untyped". Checks that
  // `name` is valid and not yet begun on this writer.
  void BeginFamily(const std::string& name, const std::string& help,
                   const char* type);

  // Emits one sample line: name{labels} value. For histogram/summary
  // series pass the suffixed name ("..._bucket", "..._count").
  void Sample(const std::string& name, const std::vector<MetricLabel>& labels,
              double value);

  // Convenience: a full summary family (quantile series + _sum +
  // _count) under the given base labels.
  struct SummaryData {
    std::vector<std::pair<double, double>> quantiles;  // (q, value)
    double sum = 0;
    uint64_t count = 0;
  };
  void SummarySamples(const std::string& name,
                      const std::vector<MetricLabel>& labels,
                      const SummaryData& data);

  // Convenience: a full histogram family rendered from a log-bucketed
  // util/stats.h Histogram (cumulative buckets, closing with le="+Inf",
  // then _sum and _count).
  void HistogramSamples(const std::string& name,
                        const std::vector<MetricLabel>& labels,
                        const Histogram& hist);

  const std::string& text() const { return text_; }
  static std::string FormatValue(double value);

 private:
  std::string text_;
  std::unordered_set<std::string> families_;
};

// True iff `name` matches the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
bool IsValidMetricName(const std::string& name);

class MetricsRegistry {
 public:
  // Scrape-time callback appending whole families to the writer.
  using Collector = std::function<void(ExpositionWriter&)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Collectors are tagged with an owner so a subsystem with a shorter
  // lifetime than the registry can withdraw its families on teardown.
  void AddCollector(const void* owner, Collector fn);
  void RemoveCollectors(const void* owner);

  // Renders pbfs_scrapes_total and every collector. Thread-safe; bumps
  // pbfs_scrapes_total, so the count includes this exposition.
  std::string ExpositionText();

 private:
  struct OwnedCollector {
    const void* owner;
    Collector fn;
  };

  std::mutex mutex_;
  std::vector<OwnedCollector> collectors_;
  uint64_t scrapes_ = 0;
};

}  // namespace obs
}  // namespace pbfs

#endif  // PBFS_OBS_LIVE_METRICS_REGISTRY_H_
