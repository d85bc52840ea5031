// Always-on sampling profiler: CPU-time stack samples, tagged with the
// current BFS phase, aggregated into bounded folded-stack form.
//
// Two timing backends, probed in order at Start():
//
//  * kPerfRings — one perf_event_open(2) PERF_COUNT_SW_TASK_CLOCK event
//    per registered thread, sample_period = 1e9 / hz, delivering a
//    per-overflow signal to the owning thread via O_ASYNC + F_SETSIG +
//    F_SETOWN_EX(F_OWNER_TID). Each event carries a 1+1-page mmap ring;
//    the handler advances data_tail so the kernel never throttles the
//    event for a full buffer. Task-clock is a software event, so this
//    works without a PMU, but perf_event_paranoid >= 3 or seccomp can
//    still deny it — hence the fallback.
//  * kSigprofTimer — setitimer(ITIMER_PROF): one process-wide SIGPROF
//    per tick of *process* CPU time, delivered by the kernel to some
//    currently-running thread. Coarser (no per-thread pacing) but works
//    everywhere, including the perf-denied CI containers.
//
// Both backends share one async-signal-safe handler: read PC/FP from
// the ucontext, walk the frame-pointer chain (stack bounds captured at
// thread registration; requires -fno-omit-frame-pointer, which the
// build always adds), read the global phase word, and push
// the raw sample into the thread's SPSC ring. A background aggregator
// drains the rings every ~100 ms and folds samples into a hash table
// keyed by (stack, phase), capped at Options::max_unique_stacks — on
// overflow the sample collapses into a per-phase "[truncated]" bucket,
// so memory is bounded no matter how pathological the stack churn.
//
// Overhead is self-measured: the handler accumulates its own
// CLOCK_MONOTONIC nanoseconds, and stats() reports that against the
// CLOCK_PROCESS_CPUTIME_ID delta since Start(). CI gates this ratio
// < 2% on the engine throughput bench.
//
// Degradation contract (mirrors PerfCounters):
//  * PBFS_PERF_DISABLE=1   — skip the perf-ring backend, use SIGPROF
//    (parsed once for the counters and the sampler, obs/perf_event.h).
//  * PBFS_PROFILER_DISABLE=1 — no backend at all; Start() returns false
//    and unavailable_reason() sticks, so exporters emit an explicit
//    `profiler_unavailable` marker instead of silently thinning.
//
// Thread registration: RegisterCurrentThread() allocates the calling
// thread's sample ring and captures its stack bounds. Rings live for
// the process lifetime (like trace buffers), so a late signal can never
// race a free. Threads that never register are simply not sampled by
// the perf backend; under SIGPROF their ticks have nowhere to go and
// are counted into `dropped` instead of silently vanishing.
#ifndef PBFS_OBS_PROFILER_SAMPLING_PROFILER_H_
#define PBFS_OBS_PROFILER_SAMPLING_PROFILER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pbfs {
namespace obs {

// Aggregated (stack, phase) -> count table, snapshot form. Two
// snapshots subtract to a delta profile (the /debug/pprof?seconds=N
// path and the watchdog's episode profile).
struct ProfileCounts {
  struct Entry {
    std::vector<uintptr_t> pcs;  // leaf first; empty = truncated bucket
    uint64_t phase_word = 0;
    uint64_t count = 0;
    uint64_t key = 0;  // stable hash of (pcs, phase_word)
  };
  std::vector<Entry> entries;  // sorted by key
  uint64_t total_samples = 0;
  uint64_t dropped = 0;    // ring-full losses
  uint64_t truncated = 0;  // samples folded into truncated buckets

  uint64_t SampleSum() const;
};

// candidate - base, entry-wise by key. Counters clamp at zero (a
// restarted profiler may go backwards).
ProfileCounts SubtractProfiles(const ProfileCounts& candidate,
                               const ProfileCounts& base);

class SamplingProfiler {
 public:
  enum class Backend { kNone, kPerfRings, kSigprofTimer };

  struct Options {
    int sample_hz = 97;  // prime, to dodge lockstep with periodic work
    int max_frames = 48;           // unwind depth per sample (<= 64)
    size_t max_unique_stacks = 1u << 15;  // fold-table cap
  };

  struct Stats {
    const char* backend = "none";
    int sample_hz = 0;
    uint64_t samples = 0;
    uint64_t dropped = 0;
    uint64_t truncated = 0;
    uint64_t unique_stacks = 0;
    uint64_t handler_ns = 0;       // total time spent inside the handler
    uint64_t process_cpu_ns = 0;   // process CPU since Start()
    double overhead_frac = 0.0;    // handler_ns / process_cpu_ns
  };

  static SamplingProfiler& Get();

  // Starts sampling. Returns false when no backend is available (then
  // unavailable_reason() explains why, process-lifetime storage).
  // Re-reads the PBFS_PROFILER_DISABLE / PBFS_PERF_DISABLE environment
  // on every call, like PerfCounters::Enable. Idempotent while running.
  bool Start(const Options& options);
  bool Start() { return Start(Options()); }

  // Stops sampling and joins the aggregator. The fold table and stats
  // are retained for Snapshot()/stats() until the next Start().
  void Stop();

  bool running() const;
  Backend backend() const;
  static const char* BackendName(Backend backend);

  // "" while a backend is up; sticky explanation otherwise.
  const char* unavailable_reason() const;

  // Allocates the calling thread's sample ring and captures its stack
  // bounds. Cheap and idempotent; safe before or after Start().
  static void RegisterCurrentThread();

  // Drains all rings and returns a copy of the fold table. Safe from
  // any thread, running or stopped.
  ProfileCounts Snapshot();

  // Drains and reports counters, including the self-measured overhead.
  Stats stats();

  // Test hook: folds one synthetic sample (bypassing the signal path)
  // so aggregation properties are testable without a live backend.
  void IngestSampleForTest(const uintptr_t* pcs, int nframes,
                           uint64_t phase_word);

 private:
  SamplingProfiler() = default;
};

}  // namespace obs
}  // namespace pbfs

#endif  // PBFS_OBS_PROFILER_SAMPLING_PROFILER_H_
