// Low-overhead tracing for the BFS kernels, the work-stealing
// scheduler, and the query engine.
//
// Design constraints (why this is not just a logger):
//  * Worker threads record events on the BFS hot path, so recording must
//    not allocate, lock, or share cache lines between workers: each
//    thread appends to its own cache-line-aligned ring of fixed-size
//    POD events, publishing with one release store of the head index.
//  * Traces are collected while other threads may still be running (the
//    engine's dispatcher outlives a session), so collection reads each
//    ring's head with an acquire load and copies only the published
//    prefix; buffers are never freed while the process lives, so a
//    straggler thread that raced a Stop() writes into memory nobody
//    reads. When the ring fills, new events are dropped (and counted) —
//    never overwritten — so the collected prefix is always internally
//    consistent.
//  * Event names are `const char*` with process lifetime: string
//    literals on the hot path, or strings interned once off the hot
//    path (Intern) for dynamic names like BFS variant names.
//
// The subsystem is always compiled in and gated at run time. With no
// session started, a span or instant costs one relaxed atomic load.
// Some instrumentation runs regardless of a session: the per-task
// worker heartbeat, the per-level phase tag, and the per-query
// QueryTraceStore::Finish (see docs/observability.md, "Always-on cost").
//
// See docs/observability.md for the event model and exporters.
#ifndef PBFS_OBS_TRACE_H_
#define PBFS_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/perf_counters.h"
#include "util/aligned_buffer.h"
#include "util/timer.h"

namespace pbfs {
namespace obs {

// One named numeric argument of an event. `name` must have process
// lifetime (literal or interned).
struct TraceArg {
  const char* name = nullptr;
  uint64_t value = 0;
};

enum class TraceEventType : uint8_t {
  kSpan,     // [ts_ns, ts_ns + dur_ns): Chrome "X" complete event
  kInstant,  // point event at ts_ns
  kCounter,  // sampled counter values at ts_ns
};

// Fixed-size POD record. Events are recorded *at their end*, so the
// per-thread sequence is ordered by end timestamp and nested spans
// appear before the span that contains them.
struct TraceEvent {
  // Sized for the widest emitter: a BFS level span carries 5 software
  // args plus up to kNumPerfCounters hardware deltas, with headroom.
  static constexpr int kMaxArgs = 14;

  int64_t ts_ns = 0;   // start (spans) or occurrence (instant/counter)
  int64_t dur_ns = 0;  // spans only
  const char* name = nullptr;
  TraceEventType type = TraceEventType::kInstant;
  uint8_t num_args = 0;
  TraceArg args[kMaxArgs];

  int64_t end_ns() const { return ts_ns + dur_ns; }

  void AddArg(const char* arg_name, uint64_t value) {
    if (num_args < kMaxArgs) args[num_args++] = {arg_name, value};
  }

  // Value of the named argument, or `fallback` when absent.
  uint64_t Arg(std::string_view arg_name, uint64_t fallback = 0) const {
    for (int i = 0; i < num_args; ++i) {
      if (args[i].name == arg_name) return args[i].value;
    }
    return fallback;
  }
};

// Single-producer ring for one thread. The owning thread appends; the
// collector reads the published prefix [0, head) after an acquire load
// of head. Drop-newest: once full, events are counted in dropped_ and
// discarded, so published events are never overwritten mid-read.
class alignas(kCacheLineSize) ThreadTrace {
 public:
  void Append(const TraceEvent& event) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    if (h >= events_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events_[h] = event;
    head_.store(h + 1, std::memory_order_release);
  }

 private:
  friend class Tracer;

  std::atomic<uint64_t> head_{0};
  std::atomic<uint64_t> dropped_{0};
  std::string label_;    // set at registration, e.g. "worker-3"
  int worker_id_ = -1;   // -1 for non-pool threads
  std::vector<TraceEvent> events_;  // capacity fixed for the session
};

// One thread's collected events, in record (= end-timestamp) order.
struct TraceThreadDump {
  uint64_t tid = 0;  // stable per-thread id, unique across sessions
  std::string label;
  int worker_id = -1;
  uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

// Everything collected by Tracer::Stop() or Tracer::Snapshot().
struct TraceDump {
  int64_t session_start_ns = 0;
  int64_t session_end_ns = 0;
  std::vector<TraceThreadDump> threads;

  uint64_t total_events() const {
    uint64_t n = 0;
    for (const TraceThreadDump& t : threads) n += t.events.size();
    return n;
  }
  uint64_t total_dropped() const {
    uint64_t n = 0;
    for (const TraceThreadDump& t : threads) n += t.dropped;
    return n;
  }
};

// Process-wide tracer. Start()/Stop() delimit a session; threads
// register lazily on their first Record() of a session. Thread labels
// ("worker-3", "engine-dispatcher") are sticky thread-local state set
// via SetThreadLabel at thread startup, captured at registration.
class Tracer {
 public:
  struct Options {
    // Ring capacity per thread, in events (~128 bytes each). Recording
    // beyond this drops (and counts) instead of overwriting.
    size_t events_per_thread = size_t{1} << 14;
  };

  static Tracer& Get();

  // Starts a session. Must not be called while a session is active.
  void Start(const Options& options);
  void Start() { Start(Options()); }

  // Ends the session and returns everything recorded. Threads that race
  // the stop lose at most their in-flight event.
  TraceDump Stop();

  // Flight-recorder read: copies the published prefix of every ring in
  // the live session WITHOUT stopping it — recording threads keep
  // appending past the snapshotted heads (drop-newest makes the prefix
  // immutable, so this is race-free by the same argument as Stop).
  // Returns an empty dump when no session is active. Takes the
  // registration mutex; not for hot paths.
  TraceDump Snapshot();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Hot path. One relaxed load when disabled; TLS lookup + ring append
  // when enabled (plus a one-time mutex-guarded registration per thread
  // per session).
  void Record(const TraceEvent& event) {
    if (!enabled()) return;
    ThreadTrace* buffer = CurrentThreadBuffer();
    if (buffer != nullptr) buffer->Append(event);
  }

  // Labels the calling thread for all future sessions. Safe (and cheap)
  // to call whether or not a session is active; typically called once at
  // thread startup. worker_id -1 means "not a pool worker".
  static void SetThreadLabel(const char* role, int worker_id);

  // Returns a process-lifetime copy of `s`, deduplicated. For dynamic
  // event names (BFS variant names, query kinds). Takes a lock; do not
  // call per-event on the hot path.
  static const char* Intern(std::string_view s);

 private:
  Tracer() = default;

  ThreadTrace* CurrentThreadBuffer();
  ThreadTrace* RegisterCurrentThread(uint64_t generation);
  // Copies the published prefix of every session buffer into `dump`.
  // Caller holds mutex_ and has filled the session timestamps.
  void CollectLocked(TraceDump* dump) const;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> generation_{0};

  std::mutex mutex_;
  // Buffers live for the process lifetime (one per thread that ever
  // recorded); session_buffers_ lists the ones registered in the
  // current session.
  std::vector<std::unique_ptr<ThreadTrace>> all_buffers_;
  std::vector<ThreadTrace*> session_buffers_;
  size_t events_per_thread_ = size_t{1} << 14;
  int64_t session_start_ns_ = 0;
  uint64_t next_tid_ = 1;
};

// RAII span recorded on the calling thread. Start time is taken at
// construction, the event is appended at destruction. Arguments added
// between are dropped silently when no session is active. When
// PerfCounters profiling is enabled, the span brackets the calling
// thread's counter group and appends hardware deltas (or the
// `counters_unavailable` marker) automatically at destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name) {
    active_ = Tracer::Get().enabled();
    if (active_) {
      start_ns_ = NowNanos();
      perf_begin_ = PerfCounters::ReadCurrentThread();
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddArg(const char* arg_name, uint64_t value) {
    if (active_) event_.AddArg(arg_name, value);
  }

  ~ScopedSpan() {
    if (!active_) return;
    AddPerfDeltaArgs(event_, perf_begin_, PerfCounters::ReadCurrentThread());
    event_.type = TraceEventType::kSpan;
    event_.name = name_;
    event_.ts_ns = start_ns_;
    event_.dur_ns = NowNanos() - start_ns_;
    Tracer::Get().Record(event_);
  }

 private:
  const char* name_;
  bool active_;
  int64_t start_ns_ = 0;
  PerfSample perf_begin_;
  TraceEvent event_;
};

// Records a completed span with an explicit start time (for spans whose
// bounds are measured by existing kernel timers).
inline TraceEvent MakeSpan(const char* name, int64_t start_ns,
                           int64_t end_ns) {
  TraceEvent event;
  event.type = TraceEventType::kSpan;
  event.name = name;
  event.ts_ns = start_ns;
  event.dur_ns = end_ns - start_ns;
  return event;
}

inline TraceEvent MakeInstant(const char* name, int64_t ts_ns) {
  TraceEvent event;
  event.type = TraceEventType::kInstant;
  event.name = name;
  event.ts_ns = ts_ns;
  return event;
}

inline TraceEvent MakeCounter(const char* name, int64_t ts_ns) {
  TraceEvent event;
  event.type = TraceEventType::kCounter;
  event.name = name;
  event.ts_ns = ts_ns;
  return event;
}

}  // namespace obs
}  // namespace pbfs

#endif  // PBFS_OBS_TRACE_H_
