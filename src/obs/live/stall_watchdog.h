// Stall watchdog: detects wedged workers and slow queries while they
// are happening, and captures a flight-recorder dump of the moments
// around the anomaly.
//
// Two feeds, both pull-based so the watchdog adds zero cost to the
// paths it observes:
//
//  * Worker heartbeats. WorkerPool publishes a relaxed per-worker
//    epoch counter bumped once per task fetch in the work-stealing
//    loop, plus a busy flag spanning each ParallelFor job. A worker
//    that is busy but whose epoch has not moved for worker_stall_ms is
//    stuck inside a task body — the straggler case the paper's Figure
//    9 skew analysis shows dominates BFS level time.
//  * Admission records. The query engine exposes every admitted but
//    not yet completed query with its submit timestamp. One older than
//    slow_query_ms is reported before it completes, with enough
//    identity (id, type, age) to find it in the trace.
//
// A report is one anomaly event: one stderr line, one count in Stats
// (exported as pbfs_watchdog_* counters), and one flight-recorder dump
// — the live Tracer rings snapshotted (Tracer::Snapshot(), the session
// keeps running) and written as a timestamped Chrome trace covering
// the window before the anomaly. When the sampling profiler is running, each report also
// writes an episode profile next to the trace dump: the poll loop
// keeps a rolling profile baseline about one second old, and the dump
// is the folded-stack delta since that baseline — roughly the last
// second of CPU samples, i.e. what the process was *doing* while the
// anomaly fired. Reports debounce: a stalled worker reports once per stall
// episode (epoch movement re-arms it), a slow query reports once per
// id, and each category holds a cooldown so one bad batch produces one
// report, not one per poll tick.
//
// The poll thread owns no locks shared with hot paths; sources are
// std::functions so the watchdog has no compile-time dependency on the
// scheduler or engine (the binaries wire them via ObsCli). Time is
// injectable for tests, and PollOnce() is public so tests drive ticks
// deterministically instead of sleeping.
#ifndef PBFS_OBS_LIVE_STALL_WATCHDOG_H_
#define PBFS_OBS_LIVE_STALL_WATCHDOG_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/live/metrics_registry.h"
#include "obs/profiler/sampling_profiler.h"

namespace pbfs {
namespace obs {

class StallWatchdog {
 public:
  struct Options {
    double poll_interval_ms = 100;
    // Busy worker whose heartbeat epoch is frozen this long => stall.
    double worker_stall_ms = 1000;
    // Admitted query in flight this long => slow-query report.
    double slow_query_ms = 1000;
    // Minimum spacing between reports of the same category, so one
    // anomaly episode (a stuck batch ages every query behind it past
    // the threshold) yields one report. Suppressed reports are
    // counted, and their subjects are still marked as reported.
    double report_cooldown_ms = 10000;
    // Where flight-recorder dumps land; empty disables dumping.
    std::string dump_dir = ".";
    // When set, the constructor registers a collector rendering the
    // pbfs_watchdog_* counters from stats(); Stop() withdraws it.
    MetricsRegistry* registry = nullptr;
    // Test clock; defaults to NowNanos().
    std::function<int64_t()> now_ns;
  };

  struct WorkerSample {
    int worker_id = -1;
    uint64_t epoch = 0;
    bool busy = false;
  };
  using WorkerSource = std::function<std::vector<WorkerSample>()>;

  struct AdmissionSample {
    uint64_t id = 0;
    int64_t submit_ns = 0;
    const char* type = "";  // process-lifetime name (query type)
  };
  using AdmissionSource = std::function<std::vector<AdmissionSample>()>;

  struct Stats {
    uint64_t polls = 0;
    uint64_t stall_reports = 0;
    uint64_t slow_query_reports = 0;
    uint64_t reports_suppressed = 0;  // anomalies inside a cooldown
    uint64_t dumps_written = 0;
    uint64_t profiles_written = 0;  // episode profiles alongside dumps
    std::string last_dump_path;
    std::string last_profile_path;
    std::string last_report;  // most recent report line, for tests/ops
  };

  explicit StallWatchdog(const Options& options);
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  // Sources may be added before or after Start(); each poll walks all
  // of them.
  void WatchWorkers(WorkerSource source);
  void WatchAdmissions(AdmissionSource source);

  // Starts / stops the polling thread. Start is idempotent; Stop joins
  // and is also run by the destructor. Stop also withdraws the
  // pbfs_watchdog_* families from the registry, first and outside
  // mutex_ (lock order: registry, then stats_mutex_), so the watchdog
  // can die while scrapes continue.
  void Start();
  void Stop();

  // One scan over every source at the injected clock's current time.
  // The poll thread calls this every poll_interval_ms; tests call it
  // directly.
  void PollOnce();

  Stats stats() const;

 private:
  struct WorkerState {
    uint64_t last_epoch = 0;
    int64_t frozen_since_ns = 0;  // first poll that saw this epoch
    bool reported = false;        // current stall episode reported
    bool seen = false;
  };

  void PollThread();
  // Emits one report (log + count + dump) unless the category is in
  // cooldown. Category: 0 = worker stall, 1 = slow query.
  void Report(int category, const std::string& line, int64_t now);
  void DumpFlightRecorder(int64_t now);
  // Folded-stack delta since the rolling baseline -> dump_dir.
  void DumpEpisodeProfile(int64_t now);
  // Refreshes the rolling baseline once it is about a second old.
  void RefreshProfileBaseline(int64_t now);

  const Options options_;
  std::function<int64_t()> clock_;

  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread thread_;

  std::vector<WorkerSource> worker_sources_;
  std::vector<AdmissionSource> admission_sources_;
  // Keyed by (source index, worker id): two pools may reuse ids.
  std::map<std::pair<size_t, int>, WorkerState> worker_states_;
  std::unordered_set<uint64_t> reported_query_ids_;
  int64_t last_report_ns_[2] = {0, 0};  // per category; 0 = never
  ProfileCounts profile_baseline_;
  int64_t profile_baseline_ns_ = 0;

  // A leaf lock held only to bump or copy stats_, never across a
  // dump or a source call: a scrape reads the counts through it, and
  // must not wait behind a flight-recorder dump written under mutex_.
  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace obs
}  // namespace pbfs

#endif  // PBFS_OBS_LIVE_STALL_WATCHDOG_H_
