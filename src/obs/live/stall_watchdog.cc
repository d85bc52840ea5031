#include "obs/live/stall_watchdog.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include <fstream>

#include "obs/chrome_trace.h"
#include "obs/profiler/phase_profile.h"
#include "obs/profiler/symbolize.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace pbfs {
namespace obs {

StallWatchdog::StallWatchdog(const Options& options) : options_(options) {
  PBFS_CHECK(options_.poll_interval_ms > 0);
  clock_ = options_.now_ns ? options_.now_ns : [] { return NowNanos(); };
  if (options_.registry == nullptr) return;
  options_.registry->AddCollector(this, [this](ExpositionWriter& writer) {
    const Stats s = stats();
    auto counter = [&writer](const char* name, const char* help,
                             uint64_t value) {
      writer.BeginFamily(name, help, "counter");
      writer.Sample(name, {}, static_cast<double>(value));
    };
    counter("pbfs_watchdog_stall_reports_total",
            "Worker-stall anomaly reports emitted by the watchdog.",
            s.stall_reports);
    counter("pbfs_watchdog_slow_query_reports_total",
            "Slow-query anomaly reports emitted by the watchdog.",
            s.slow_query_reports);
    counter("pbfs_watchdog_flightrec_dumps_total",
            "Flight-recorder trace dumps written on anomaly.",
            s.dumps_written);
  });
}

StallWatchdog::~StallWatchdog() { Stop(); }

void StallWatchdog::WatchWorkers(WorkerSource source) {
  std::lock_guard<std::mutex> lock(mutex_);
  worker_sources_.push_back(std::move(source));
}

void StallWatchdog::WatchAdmissions(AdmissionSource source) {
  std::lock_guard<std::mutex> lock(mutex_);
  admission_sources_.push_back(std::move(source));
}

void StallWatchdog::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { PollThread(); });
}

void StallWatchdog::Stop() {
  if (options_.registry != nullptr) options_.registry->RemoveCollectors(this);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  started_ = false;
}

void StallWatchdog::PollThread() {
  const auto interval = std::chrono::duration<double, std::milli>(
      options_.poll_interval_ms);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    if (stop_cv_.wait_for(lock, interval, [this] { return stopping_; })) {
      return;
    }
    lock.unlock();
    PollOnce();
    lock.lock();
  }
}

void StallWatchdog::PollOnce() {
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t now = clock_();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.polls;
  }
  RefreshProfileBaseline(now);
  const int64_t stall_ns =
      static_cast<int64_t>(options_.worker_stall_ms * 1e6);
  const int64_t slow_ns = static_cast<int64_t>(options_.slow_query_ms * 1e6);

  // --- Worker heartbeats ---
  for (auto& [key, state] : worker_states_) state.seen = false;
  std::vector<std::string> stalled;
  for (size_t s = 0; s < worker_sources_.size(); ++s) {
    for (const WorkerSample& sample : worker_sources_[s]()) {
      WorkerState& state = worker_states_[{s, sample.worker_id}];
      state.seen = true;
      if (!sample.busy || sample.epoch != state.last_epoch) {
        // Progress (or idle): re-arm the episode.
        state.last_epoch = sample.epoch;
        state.frozen_since_ns = now;
        state.reported = false;
        continue;
      }
      if (state.frozen_since_ns == 0) state.frozen_since_ns = now;
      const int64_t frozen_for = now - state.frozen_since_ns;
      if (frozen_for >= stall_ns && !state.reported) {
        state.reported = true;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "worker %d stalled: busy with no heartbeat for "
                      "%.0f ms (epoch %llu)",
                      sample.worker_id,
                      static_cast<double>(frozen_for) / 1e6,
                      static_cast<unsigned long long>(sample.epoch));
        stalled.push_back(line);
      }
    }
  }
  // A worker a source stopped reporting is not stalled, just gone.
  for (auto it = worker_states_.begin(); it != worker_states_.end();) {
    it = it->second.seen ? std::next(it) : worker_states_.erase(it);
  }
  if (!stalled.empty()) {
    std::string line = stalled[0];
    if (stalled.size() > 1) {
      line += " (+" + std::to_string(stalled.size() - 1) + " more workers)";
    }
    Report(/*category=*/0, line, now);
  }

  // --- Query admissions ---
  std::unordered_set<uint64_t> in_flight;
  uint64_t newly_slow = 0;
  AdmissionSample oldest{};
  int64_t oldest_age = -1;
  for (AdmissionSource& source : admission_sources_) {
    for (const AdmissionSample& sample : source()) {
      in_flight.insert(sample.id);
      const int64_t age = now - sample.submit_ns;
      if (age < slow_ns) continue;
      if (reported_query_ids_.count(sample.id) != 0) continue;
      reported_query_ids_.insert(sample.id);
      ++newly_slow;
      if (age > oldest_age) {
        oldest_age = age;
        oldest = sample;
      }
    }
  }
  // Completed queries can never re-report; drop their debounce entries.
  for (auto it = reported_query_ids_.begin();
       it != reported_query_ids_.end();) {
    it = in_flight.count(*it) != 0 ? std::next(it)
                                   : reported_query_ids_.erase(it);
  }
  if (newly_slow > 0) {
    char line[192];
    std::snprintf(line, sizeof(line),
                  "%llu slow quer%s: oldest id=%llu type=%s in flight "
                  "%.0f ms",
                  static_cast<unsigned long long>(newly_slow),
                  newly_slow == 1 ? "y" : "ies",
                  static_cast<unsigned long long>(oldest.id), oldest.type,
                  static_cast<double>(oldest_age) / 1e6);
    Report(/*category=*/1, line, now);
  }
}

void StallWatchdog::Report(int category, const std::string& line,
                           int64_t now) {
  const int64_t cooldown_ns =
      static_cast<int64_t>(options_.report_cooldown_ms * 1e6);
  const bool suppressed = last_report_ns_[category] != 0 &&
                          now - last_report_ns_[category] < cooldown_ns;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    if (suppressed) {
      ++stats_.reports_suppressed;
      return;
    }
    stats_.last_report = line;
    ++(category == 0 ? stats_.stall_reports : stats_.slow_query_reports);
  }
  last_report_ns_[category] = now;
  std::fprintf(stderr, "[watchdog] %s: %s\n",
               category == 0 ? "stall" : "slow-query", line.c_str());
  DumpFlightRecorder(now);
  DumpEpisodeProfile(now);
}

void StallWatchdog::DumpFlightRecorder(int64_t now) {
  if (options_.dump_dir.empty()) return;
  if (!Tracer::Get().enabled()) {
    std::fprintf(stderr,
                 "[watchdog] no trace session active; flight-recorder "
                 "dump skipped\n");
    return;
  }
  const TraceDump dump = Tracer::Get().Snapshot();
  const std::string path = options_.dump_dir + "/flightrec_" +
                           std::to_string(now) + ".trace.json";
  if (WriteChromeTraceFile(dump, path)) {
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.dumps_written;
      stats_.last_dump_path = path;
    }
    std::fprintf(stderr,
                 "[watchdog] flight recorder: %llu events from %zu threads "
                 "-> %s\n",
                 static_cast<unsigned long long>(dump.total_events()),
                 dump.threads.size(), path.c_str());
  }
}

void StallWatchdog::RefreshProfileBaseline(int64_t now) {
  if (!SamplingProfiler::Get().running()) return;
  // About one poll past a second old: the episode profile below then
  // covers roughly the last second before the anomaly.
  if (profile_baseline_ns_ != 0 && now - profile_baseline_ns_ < 1000000000) {
    return;
  }
  profile_baseline_ = SamplingProfiler::Get().Snapshot();
  profile_baseline_ns_ = now;
}

void StallWatchdog::DumpEpisodeProfile(int64_t now) {
  if (options_.dump_dir.empty()) return;
  if (!SamplingProfiler::Get().running()) return;
  const ProfileCounts delta =
      SubtractProfiles(SamplingProfiler::Get().Snapshot(), profile_baseline_);
  const std::string path =
      options_.dump_dir + "/profile_" + std::to_string(now) + ".folded";
  std::ofstream out(path);
  if (!out) return;
  Symbolizer symbolizer;
  out << FoldedProfileText(delta, &symbolizer);
  out.close();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.profiles_written;
    stats_.last_profile_path = path;
  }
  std::fprintf(stderr,
               "[watchdog] episode profile: %llu samples over ~%.1f s -> "
               "%s\n",
               static_cast<unsigned long long>(delta.SampleSum()),
               static_cast<double>(now - profile_baseline_ns_) / 1e9, path.c_str());
}

StallWatchdog::Stats StallWatchdog::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace obs
}  // namespace pbfs
