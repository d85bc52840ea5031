// Live metric registry + Prometheus text exposition (format 0.0.4).
//
// Holds named counters, gauges, and log-bucketed histograms with
// process lifetime, plus pull-time collectors for subsystems whose
// state cannot be mirrored into a passive metric (the query engine's
// rolling-window quantiles, worker heartbeats). ExpositionText() walks
// everything and renders the text format Prometheus scrapes:
//
//   # HELP pbfs_engine_queue_depth Queries awaiting dispatch.
//   # TYPE pbfs_engine_queue_depth gauge
//   pbfs_engine_queue_depth 3
//
// Counters and gauges are single atomics so instrumented code can
// update them from any thread without taking the registry lock; the
// lock only guards registration and scrape-time iteration. Collectors
// run under the registry lock at scrape time and must not call back
// into the registry.
#ifndef PBFS_OBS_LIVE_METRICS_REGISTRY_H_
#define PBFS_OBS_LIVE_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
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
  // "counter", "gauge", "histogram", "summary", "untyped".
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
};

// True iff `name` matches the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
bool IsValidMetricName(const std::string& name);

class MetricsRegistry {
 public:
  // Monotonically increasing counter. Lock-free updates.
  class Counter {
   public:
    void Increment(uint64_t n = 1) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
    uint64_t value() const { return value_.load(std::memory_order_relaxed); }

   private:
    friend class MetricsRegistry;
    std::atomic<uint64_t> value_{0};
  };

  // Settable point-in-time value. Lock-free updates.
  class Gauge {
   public:
    void Set(double value) {
      value_.store(value, std::memory_order_relaxed);
    }
    double value() const { return value_.load(std::memory_order_relaxed); }

   private:
    friend class MetricsRegistry;
    std::atomic<double> value_{0};
  };

  // Log-bucketed histogram exposed in the Prometheus histogram format.
  // Observe() takes a mutex (scrape-path metric, not BFS-hot-path).
  class LiveHistogram {
   public:
    void Observe(double value) {
      std::lock_guard<std::mutex> lock(mutex_);
      hist_.Add(value);
    }
    Histogram Snapshot() const {
      std::lock_guard<std::mutex> lock(mutex_);
      return hist_;
    }

   private:
    friend class MetricsRegistry;
    explicit LiveHistogram(Histogram hist) : hist_(std::move(hist)) {}
    mutable std::mutex mutex_;
    Histogram hist_;
  };

  // Scrape-time callback appending whole families to the writer.
  using Collector = std::function<void(ExpositionWriter&)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration. Names must be unique and valid; handles stay owned
  // by the registry and valid for its lifetime.
  Counter* AddCounter(const std::string& name, const std::string& help);
  Gauge* AddGauge(const std::string& name, const std::string& help);
  // Gauge whose value is computed at scrape time.
  void AddCallbackGauge(const std::string& name, const std::string& help,
                        std::function<double()> fn);
  LiveHistogram* AddHistogram(const std::string& name, const std::string& help,
                              double min_bound = 1e-3, double growth = 2.0,
                              int num_log_buckets = 32);

  // Collectors are tagged with an owner so a subsystem with a shorter
  // lifetime than the registry can withdraw its families on teardown.
  void AddCollector(const void* owner, Collector fn);
  void RemoveCollectors(const void* owner);

  // Renders every registered metric and collector. Thread-safe; also
  // bumps the built-in pbfs_scrapes_total counter.
  std::string ExpositionText();

 private:
  struct NamedCounter {
    std::string name, help;
    Counter counter;
  };
  struct NamedGauge {
    std::string name, help;
    Gauge gauge;
  };
  struct CallbackGauge {
    std::string name, help;
    std::function<double()> fn;
  };
  struct NamedHistogram {
    std::string name, help;
    LiveHistogram hist;
    NamedHistogram(std::string n, std::string h, Histogram shape)
        : name(std::move(n)), help(std::move(h)), hist(std::move(shape)) {}
  };
  struct OwnedCollector {
    const void* owner;
    Collector fn;
  };

  void CheckNewNameLocked(const std::string& name) const;

  mutable std::mutex mutex_;
  // deques: handles handed out must never move on later registration.
  std::deque<NamedCounter> counters_;
  std::deque<NamedGauge> gauges_;
  std::deque<CallbackGauge> callback_gauges_;
  std::deque<NamedHistogram> histograms_;
  std::vector<OwnedCollector> collectors_;
  uint64_t scrapes_ = 0;
};

}  // namespace obs
}  // namespace pbfs

#endif  // PBFS_OBS_LIVE_METRICS_REGISTRY_H_
