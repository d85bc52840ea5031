#include "obs/perf_counters.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <mutex>
#include <string>

#ifdef __linux__
#include <sys/ioctl.h>
#include <unistd.h>
#endif

#include "obs/perf_event.h"

namespace pbfs {
namespace obs {

namespace {

const char* const kArgNames[kNumPerfCounters] = {
    "cycles",          "instructions", "llc_loads", "llc_misses",
    "stalled_backend", "node_loads",   "node_misses"};

std::mutex g_enable_mutex;
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_backend_available{false};
// Bumped by every Enable() so threads re-open their groups after the
// environment changed (tests toggle PBFS_PERF_DISABLE between runs).
std::atomic<uint64_t> g_enable_generation{0};
char g_reason[256] = "profiling not enabled";

void SetReason(const std::string& reason) {
  std::snprintf(g_reason, sizeof(g_reason), "%s", reason.c_str());
}

#ifdef __linux__

struct EventSpec {
  uint32_t type;
  uint64_t config;
};

constexpr uint64_t HwCache(uint64_t cache, uint64_t op, uint64_t result) {
  return cache | (op << 8) | (result << 16);
}

// Primary event per slot. LLC and NODE slots use the generalized cache
// events; which of them exist depends on the PMU, so each open is
// allowed to fail independently.
const EventSpec kPrimary[kNumPerfCounters] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HW_CACHE, HwCache(PERF_COUNT_HW_CACHE_LL,
                                 PERF_COUNT_HW_CACHE_OP_READ,
                                 PERF_COUNT_HW_CACHE_RESULT_ACCESS)},
    {PERF_TYPE_HW_CACHE, HwCache(PERF_COUNT_HW_CACHE_LL,
                                 PERF_COUNT_HW_CACHE_OP_READ,
                                 PERF_COUNT_HW_CACHE_RESULT_MISS)},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_BACKEND},
    {PERF_TYPE_HW_CACHE, HwCache(PERF_COUNT_HW_CACHE_NODE,
                                 PERF_COUNT_HW_CACHE_OP_READ,
                                 PERF_COUNT_HW_CACHE_RESULT_ACCESS)},
    {PERF_TYPE_HW_CACHE, HwCache(PERF_COUNT_HW_CACHE_NODE,
                                 PERF_COUNT_HW_CACHE_OP_READ,
                                 PERF_COUNT_HW_CACHE_RESULT_MISS)},
};

// Fallback when the generalized LL cache events are not wired up on
// this PMU: the coarse references/misses totals. No fallback for the
// NODE pair — when it is missing the slot is simply absent.
bool FallbackSpec(int id, EventSpec* spec) {
  switch (id) {
    case kPerfLlcLoads:
      *spec = {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES};
      return true;
    case kPerfLlcMisses:
      *spec = {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES};
      return true;
    default:
      return false;
  }
}

int OpenEvent(const EventSpec& spec, bool leader, int group_fd) {
  perf_event_attr attr{};
  attr.type = spec.type;
  attr.config = spec.config;
  // The leader starts disabled and the whole group is enabled with one
  // ioctl once every member has joined, so all counters cover the same
  // interval.
  attr.disabled = leader ? 1 : 0;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return PerfEventOpen(attr, /*tid=*/0, group_fd);
}

// One counter group per thread, opened lazily on the thread's first
// read of an enable generation and kept until the next generation (or
// thread exit). All counters share one group so a single read() yields
// a consistent snapshot and the kernel multiplexes them as a unit.
struct ThreadGroup {
  int fd[kNumPerfCounters];
  int order[kNumPerfCounters];  // position in the group read buffer
  int num_open = 0;
  uint64_t generation = 0;
  bool ok = false;

  ThreadGroup() {
    for (int i = 0; i < kNumPerfCounters; ++i) fd[i] = order[i] = -1;
  }
  ~ThreadGroup() { Close(); }

  void Close() {
    for (int i = 0; i < kNumPerfCounters; ++i) {
      if (fd[i] >= 0) close(fd[i]);
      fd[i] = -1;
      order[i] = -1;
    }
    num_open = 0;
    ok = false;
  }

  void Open() {
    Close();
    fd[kPerfCycles] = OpenEvent(kPrimary[kPerfCycles], /*leader=*/true,
                                /*group_fd=*/-1);
    if (fd[kPerfCycles] < 0) return;
    order[kPerfCycles] = num_open++;
    for (int id = 0; id < kNumPerfCounters; ++id) {
      if (id == kPerfCycles) continue;
      int f = OpenEvent(kPrimary[id], /*leader=*/false, fd[kPerfCycles]);
      EventSpec fallback;
      if (f < 0 && FallbackSpec(id, &fallback)) {
        f = OpenEvent(fallback, /*leader=*/false, fd[kPerfCycles]);
      }
      if (f < 0) continue;
      fd[id] = f;
      order[id] = num_open++;
    }
    ioctl(fd[kPerfCycles], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(fd[kPerfCycles], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    ok = true;
  }

  void Read(PerfSample* sample) const {
    // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running,
    // value[nr] (in join order).
    uint64_t buf[3 + kNumPerfCounters];
    const ssize_t want =
        static_cast<ssize_t>((3 + num_open) * sizeof(uint64_t));
    if (read(fd[kPerfCycles], buf, sizeof(buf)) < want) return;
    const uint64_t enabled_ns = buf[1];
    const uint64_t running_ns = buf[2];
    // Multiplex scaling: with more counters than PMU slots the kernel
    // rotates the group; scale raw counts up by enabled/running to
    // estimate full-interval values.
    const double scale =
        running_ns > 0
            ? static_cast<double>(enabled_ns) / static_cast<double>(running_ns)
            : 1.0;
    for (int id = 0; id < kNumPerfCounters; ++id) {
      if (order[id] < 0) continue;
      const double scaled = static_cast<double>(buf[3 + order[id]]) * scale;
      sample->value[id] = static_cast<uint64_t>(scaled + 0.5);
      sample->valid |= 1u << id;
    }
  }
};

thread_local ThreadGroup t_group;

// Probe: can this process open and read a plain cycles counter on the
// calling thread? Distinguishes "backend down" from "this PMU lacks
// event X" once, at Enable() time.
bool ProbeBackend() {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_CPU_CYCLES;
  const int fd = PerfEventOpen(attr, /*tid=*/0, /*group_fd=*/-1);
  if (fd < 0) {
    SetReason(PerfOpenErrorText(errno));
    return false;
  }
  uint64_t value = 0;
  const bool readable = read(fd, &value, sizeof(value)) ==
                        static_cast<ssize_t>(sizeof(value));
  close(fd);
  if (!readable) {
    SetReason("perf counter opened but could not be read");
    return false;
  }
  return true;
}

#endif  // __linux__

}  // namespace

const char* PerfCounterArgName(int id) { return kArgNames[id]; }

bool PerfCounters::Enable() {
  std::lock_guard<std::mutex> lock(g_enable_mutex);
  g_enable_generation.fetch_add(1, std::memory_order_relaxed);
  bool available = false;
  if (PerfDisabledByEnv()) {
    SetReason("disabled by PBFS_PERF_DISABLE");
  } else {
#ifdef __linux__
    available = ProbeBackend();
    if (available) g_reason[0] = '\0';
#else
    SetReason("perf_event_open is Linux-only");
#endif
  }
  g_backend_available.store(available, std::memory_order_release);
  // Order matters for racing readers: publish backend health before the
  // enabled flag that gates reads.
  g_enabled.store(true, std::memory_order_release);
  return available;
}

void PerfCounters::Disable() {
  std::lock_guard<std::mutex> lock(g_enable_mutex);
  g_enabled.store(false, std::memory_order_release);
  g_backend_available.store(false, std::memory_order_release);
  SetReason("profiling not enabled");
}

bool PerfCounters::enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

bool PerfCounters::backend_available() {
  return g_backend_available.load(std::memory_order_relaxed);
}

const char* PerfCounters::unavailable_reason() { return g_reason; }

PerfSample PerfCounters::ReadCurrentThread() {
  PerfSample sample;
  if (!enabled() || !backend_available()) return sample;
#ifdef __linux__
  const uint64_t generation =
      g_enable_generation.load(std::memory_order_relaxed);
  if (t_group.generation != generation) {
    t_group.Open();
    t_group.generation = generation;
  }
  if (t_group.ok) t_group.Read(&sample);
#endif
  return sample;
}

}  // namespace obs
}  // namespace pbfs
