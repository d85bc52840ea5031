#include "obs/profiler/sampling_profiler.h"

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/perf_event.h"
#include "obs/profiler/phase_tag.h"

namespace pbfs {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Raw sample plumbing (signal-handler side).

constexpr uint32_t kRingCapacity = 512;  // per thread; aggregator drains 10x/s
constexpr int kMaxFramesHard = 64;

struct RawSample {
  uint64_t phase_word;
  uint32_t nframes;
  uintptr_t pc[kMaxFramesHard];
};

// Per-thread SPSC ring: the signal handler (running on the owning
// thread) produces, the aggregator consumes. Process-lifetime — never
// freed, so a straggling signal can never touch a dead ring.
struct ThreadRing {
  std::atomic<uint32_t> head{0};
  std::atomic<uint32_t> tail{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> handler_ns{0};
  uintptr_t stack_lo = 0;
  uintptr_t stack_hi = 0;
  pid_t tid = 0;
  int perf_fd = -1;
  std::atomic<void*> perf_mmap{nullptr};
  void* stale_mmap = nullptr;  // unmapped lazily at the next arm
  RawSample slots[kRingCapacity];
};

thread_local ThreadRing* t_ring = nullptr;

std::mutex g_registry_mu;
std::vector<ThreadRing*>& Registry() {
  static std::vector<ThreadRing*>* v = new std::vector<ThreadRing*>();
  return *v;
}

std::atomic<bool> g_running{false};
std::atomic<int> g_max_frames{48};
// SIGPROF ticks landing on threads that never registered a ring.
std::atomic<uint64_t> g_unregistered{0};

int64_t TimespecNs(const timespec& ts) {
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Frame-pointer chain walk. Async-signal-safe: reads registers from the
// ucontext and follows saved-RBP links, validating every dereference
// against [max(sp, stack_lo), stack_hi). Returns the frame count
// (always >= 1: the interrupted PC itself).
int UnwindFromContext(void* uctx, uintptr_t stack_lo, uintptr_t stack_hi,
                      uintptr_t* pcs, int max_frames) {
  const ucontext_t* uc = static_cast<const ucontext_t*>(uctx);
  uintptr_t pc = 0;
  uintptr_t fp = 0;
  uintptr_t sp = 0;
#if defined(__x86_64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<uintptr_t>(uc->uc_mcontext.sp);
#else
  (void)uc;
#endif
  int n = 0;
  if (pc != 0 && n < max_frames) pcs[n++] = pc;
  if (stack_hi == 0) return n;  // no bounds -> no safe walk
  uintptr_t lo = sp > stack_lo ? sp : stack_lo;
  while (n < max_frames) {
    if (fp < lo || fp + 2 * sizeof(uintptr_t) > stack_hi ||
        (fp & (sizeof(uintptr_t) - 1)) != 0) {
      break;
    }
    const uintptr_t next_fp = *reinterpret_cast<const uintptr_t*>(fp);
    const uintptr_t ret =
        *reinterpret_cast<const uintptr_t*>(fp + sizeof(uintptr_t));
    if (ret < 4096) break;
    pcs[n++] = ret;
    if (next_fp <= fp) break;  // frames must move toward the stack base
    fp = next_fp;
  }
  return n;
}

// The shared SIGPROF handler for both backends. Everything it calls is
// async-signal-safe: clock_gettime, relaxed atomics, the FP walk.
void SampleHandler(int /*signo*/, siginfo_t* /*info*/, void* uctx) {
  const int saved_errno = errno;
  if (g_running.load(std::memory_order_relaxed)) {
    timespec t0;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    ThreadRing* ring = t_ring;
    if (ring == nullptr) {
      g_unregistered.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Consume the perf sample ring so the kernel keeps generating
      // wakeups; the records themselves are redundant with the ucontext.
      void* map = ring->perf_mmap.load(std::memory_order_relaxed);
      if (map != nullptr) {
        auto* page = static_cast<perf_event_mmap_page*>(map);
        const uint64_t head =
            __atomic_load_n(&page->data_head, __ATOMIC_ACQUIRE);
        __atomic_store_n(&page->data_tail, head, __ATOMIC_RELEASE);
      }
      const uint32_t head = ring->head.load(std::memory_order_relaxed);
      const uint32_t tail = ring->tail.load(std::memory_order_acquire);
      if (head - tail < kRingCapacity) {
        RawSample& slot = ring->slots[head % kRingCapacity];
        slot.phase_word = CurrentPhaseWord();
        slot.nframes = static_cast<uint32_t>(UnwindFromContext(
            uctx, ring->stack_lo, ring->stack_hi, slot.pc,
            g_max_frames.load(std::memory_order_relaxed)));
        ring->head.store(head + 1, std::memory_order_release);
      } else {
        ring->dropped.fetch_add(1, std::memory_order_relaxed);
      }
      timespec t1;
      clock_gettime(CLOCK_MONOTONIC, &t1);
      ring->handler_ns.fetch_add(TimespecNs(t1) - TimespecNs(t0),
                                 std::memory_order_relaxed);
    }
  }
  errno = saved_errno;
}

// ---------------------------------------------------------------------------
// Aggregation (normal-thread side).

struct FoldTable {
  std::mutex mu;
  std::unordered_map<uint64_t, ProfileCounts::Entry> entries;
  uint64_t total_samples = 0;
  uint64_t truncated = 0;
  size_t max_unique = 1u << 15;
};

FoldTable& Table() {
  static FoldTable* t = new FoldTable();
  return *t;
}

uint64_t Fnv64(uint64_t h, uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t StackKey(const uintptr_t* pcs, int nframes, uint64_t phase_word) {
  uint64_t h = Fnv64(14695981039346656037ull, phase_word);
  for (int i = 0; i < nframes; ++i) h = Fnv64(h, pcs[i]);
  return h;
}

// Folds one sample into the table. Caller holds Table().mu.
void FoldLocked(FoldTable& table, const uintptr_t* pcs, int nframes,
                uint64_t phase_word) {
  ++table.total_samples;
  const uint64_t key = StackKey(pcs, nframes, phase_word);
  auto it = table.entries.find(key);
  if (it != table.entries.end()) {
    ++it->second.count;
    return;
  }
  if (table.entries.size() >= table.max_unique) {
    // Table full: collapse into this phase's "[truncated]" bucket
    // (empty pcs) so memory stays bounded under stack-hash churn.
    ++table.truncated;
    const uint64_t tkey = Fnv64(0x7472756e63ull, phase_word);
    ProfileCounts::Entry& trunc = table.entries[tkey];  // may itself be new
    trunc.phase_word = phase_word;
    trunc.key = tkey;
    ++trunc.count;
    return;
  }
  ProfileCounts::Entry entry;
  entry.pcs.assign(pcs, pcs + nframes);
  entry.phase_word = phase_word;
  entry.count = 1;
  entry.key = key;
  table.entries.emplace(key, std::move(entry));
}

void DrainRings() {
  std::vector<ThreadRing*> rings;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    rings = Registry();
  }
  FoldTable& table = Table();
  std::lock_guard<std::mutex> lock(table.mu);
  for (ThreadRing* ring : rings) {
    uint32_t tail = ring->tail.load(std::memory_order_relaxed);
    const uint32_t head = ring->head.load(std::memory_order_acquire);
    while (tail != head) {
      const RawSample& slot = ring->slots[tail % kRingCapacity];
      FoldLocked(table, slot.pc, static_cast<int>(slot.nframes),
                 slot.phase_word);
      ++tail;
      ring->tail.store(tail, std::memory_order_release);
    }
  }
}

// ---------------------------------------------------------------------------
// Lifecycle.

std::mutex g_lifecycle_mu;
SamplingProfiler::Backend g_backend = SamplingProfiler::Backend::kNone;
SamplingProfiler::Options g_options;
int64_t g_start_cpu_ns = 0;
char g_reason[160] = "profiler never started";
bool g_handler_installed = false;

std::thread g_aggregator;
std::mutex g_agg_mu;
std::condition_variable g_agg_cv;
bool g_agg_stop = false;

void SetReason(const char* fmt, const char* detail) {
  std::snprintf(g_reason, sizeof(g_reason), fmt, detail);
}

int64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return TimespecNs(ts);
}

void InstallHandler() {
  if (g_handler_installed) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = SampleHandler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  g_handler_installed = true;
}

int OpenPerfSampler(pid_t tid, int sample_hz) {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_SOFTWARE;
  attr.config = PERF_COUNT_SW_TASK_CLOCK;  // ns of this thread's CPU time
  attr.sample_period = 1000000000ull / static_cast<uint64_t>(sample_hz);
  attr.sample_type = PERF_SAMPLE_IP;
  attr.disabled = 1;
  attr.wakeup_events = 1;
  return PerfEventOpen(attr, tid, /*group_fd=*/-1);
}

// Caller holds g_registry_mu (or is in Start with the lifecycle lock
// and the registry lock).
void ArmRing(ThreadRing* ring, int sample_hz) {
  if (ring->stale_mmap != nullptr) {
    munmap(ring->stale_mmap, 2 * static_cast<size_t>(getpagesize()));
    ring->stale_mmap = nullptr;
  }
  if (ring->perf_fd >= 0) return;
  const int fd = OpenPerfSampler(ring->tid, sample_hz);
  if (fd < 0) return;  // this thread stays unsampled; others may work
  void* map = mmap(nullptr, 2 * static_cast<size_t>(getpagesize()),
                   PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    close(fd);
    return;
  }
  // Route overflow signals to the owning thread, as SIGPROF.
  fcntl(fd, F_SETFL, O_ASYNC | O_NONBLOCK);
  fcntl(fd, F_SETSIG, SIGPROF);
  struct f_owner_ex owner;
  owner.type = F_OWNER_TID;
  owner.pid = ring->tid;
  fcntl(fd, F_SETOWN_EX, &owner);
  ring->perf_fd = fd;
  ring->perf_mmap.store(map, std::memory_order_release);
  ioctl(fd, PERF_EVENT_IOC_RESET, 0);
  ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);
}

void DisarmRing(ThreadRing* ring) {
  if (ring->perf_fd < 0) return;
  ioctl(ring->perf_fd, PERF_EVENT_IOC_DISABLE, 0);
  close(ring->perf_fd);
  ring->perf_fd = -1;
  // A signal raised before the close may still be in flight; keep the
  // mapping alive until the next arm instead of racing the handler.
  ring->stale_mmap = ring->perf_mmap.exchange(nullptr);
}

void StartAggregator() {
  {
    std::lock_guard<std::mutex> lock(g_agg_mu);
    g_agg_stop = false;
  }
  g_aggregator = std::thread([] {
    std::unique_lock<std::mutex> lock(g_agg_mu);
    while (!g_agg_stop) {
      g_agg_cv.wait_for(lock, std::chrono::milliseconds(100),
                        [] { return g_agg_stop; });
      lock.unlock();
      DrainRings();
      lock.lock();
    }
  });
}

void StopAggregator() {
  {
    std::lock_guard<std::mutex> lock(g_agg_mu);
    g_agg_stop = true;
  }
  g_agg_cv.notify_all();
  if (g_aggregator.joinable()) g_aggregator.join();
}

}  // namespace

// ---------------------------------------------------------------------------
// ProfileCounts.

uint64_t ProfileCounts::SampleSum() const {
  uint64_t sum = 0;
  for (const Entry& e : entries) sum += e.count;
  return sum;
}

ProfileCounts SubtractProfiles(const ProfileCounts& candidate,
                               const ProfileCounts& base) {
  ProfileCounts delta;
  delta.total_samples = candidate.total_samples >= base.total_samples
                            ? candidate.total_samples - base.total_samples
                            : 0;
  delta.dropped =
      candidate.dropped >= base.dropped ? candidate.dropped - base.dropped : 0;
  delta.truncated = candidate.truncated >= base.truncated
                        ? candidate.truncated - base.truncated
                        : 0;
  size_t bi = 0;
  for (const ProfileCounts::Entry& entry : candidate.entries) {
    while (bi < base.entries.size() && base.entries[bi].key < entry.key) ++bi;
    uint64_t before = 0;
    if (bi < base.entries.size() && base.entries[bi].key == entry.key) {
      before = base.entries[bi].count;
    }
    if (entry.count > before) {
      ProfileCounts::Entry out = entry;
      out.count = entry.count - before;
      delta.entries.push_back(std::move(out));
    }
  }
  return delta;
}

// ---------------------------------------------------------------------------
// SamplingProfiler.

SamplingProfiler& SamplingProfiler::Get() {
  static SamplingProfiler* instance = new SamplingProfiler();
  return *instance;
}

const char* SamplingProfiler::BackendName(Backend backend) {
  switch (backend) {
    case Backend::kPerfRings:
      return "perf_rings";
    case Backend::kSigprofTimer:
      return "sigprof";
    case Backend::kNone:
      break;
  }
  return "none";
}

bool SamplingProfiler::Start(const Options& options) {
  std::lock_guard<std::mutex> lifecycle(g_lifecycle_mu);
  // Record the options before any availability check so the fold-table
  // cap applies even when only IngestSampleForTest feeds the table.
  g_options = options;
  if (g_options.sample_hz <= 0) g_options.sample_hz = 97;
  if (g_options.max_frames < 1) g_options.max_frames = 1;
  if (g_options.max_frames > kMaxFramesHard) g_options.max_frames = kMaxFramesHard;
  if (g_options.max_unique_stacks < 16) g_options.max_unique_stacks = 16;
  {
    FoldTable& table = Table();
    std::lock_guard<std::mutex> lock(table.mu);
    table.max_unique = g_options.max_unique_stacks;
  }
  if (g_running.load(std::memory_order_relaxed)) return true;

  if (EnvFlagSet("PBFS_PROFILER_DISABLE")) {
    g_backend = Backend::kNone;
    SetReason("disabled by %s=1 in the environment", "PBFS_PROFILER_DISABLE");
    return false;
  }

  // Fresh session: reset the fold table and per-ring counters.
  {
    FoldTable& table = Table();
    std::lock_guard<std::mutex> lock(table.mu);
    table.entries.clear();
    table.total_samples = 0;
    table.truncated = 0;
  }
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (ThreadRing* ring : Registry()) {
      ring->dropped.store(0, std::memory_order_relaxed);
      ring->handler_ns.store(0, std::memory_order_relaxed);
    }
  }
  g_unregistered.store(0, std::memory_order_relaxed);
  g_max_frames.store(g_options.max_frames, std::memory_order_relaxed);

  InstallHandler();
  RegisterCurrentThread();

  g_backend = Backend::kNone;
  if (!PerfDisabledByEnv()) {
    // Probe: open a sampler for this thread; on success, arm every
    // registered ring (late registrants arm themselves). On failure the
    // SIGPROF fallback below either starts (no reason to report) or
    // sets its own reason.
    const int probe = OpenPerfSampler(/*tid=*/0, g_options.sample_hz);
    if (probe >= 0) {
      close(probe);
      g_backend = Backend::kPerfRings;
    }
  }
  if (g_backend == Backend::kPerfRings) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (ThreadRing* ring : Registry()) ArmRing(ring, g_options.sample_hz);
  } else {
    itimerval timer;
    timer.it_interval.tv_sec = 0;
    timer.it_interval.tv_usec =
        static_cast<suseconds_t>(1000000 / g_options.sample_hz);
    if (timer.it_interval.tv_usec <= 0) timer.it_interval.tv_usec = 1;
    timer.it_value = timer.it_interval;
    if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
      SetReason("no sampling backend: setitimer(ITIMER_PROF) failed (%s)",
                std::strerror(errno));
      return false;
    }
    g_backend = Backend::kSigprofTimer;
  }

  g_reason[0] = '\0';
  g_start_cpu_ns = ProcessCpuNs();
  g_running.store(true, std::memory_order_release);
  StartAggregator();
  return true;
}

void SamplingProfiler::Stop() {
  std::lock_guard<std::mutex> lifecycle(g_lifecycle_mu);
  if (!g_running.load(std::memory_order_relaxed)) return;
  g_running.store(false, std::memory_order_release);
  if (g_backend == Backend::kSigprofTimer) {
    itimerval off;
    std::memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, nullptr);
  } else if (g_backend == Backend::kPerfRings) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (ThreadRing* ring : Registry()) DisarmRing(ring);
  }
  StopAggregator();
  DrainRings();
}

bool SamplingProfiler::running() const {
  return g_running.load(std::memory_order_acquire);
}

SamplingProfiler::Backend SamplingProfiler::backend() const {
  std::lock_guard<std::mutex> lifecycle(g_lifecycle_mu);
  return g_backend;
}

const char* SamplingProfiler::unavailable_reason() const { return g_reason; }

void SamplingProfiler::RegisterCurrentThread() {
  if (t_ring != nullptr) return;
  ThreadRing* ring = new ThreadRing();  // process-lifetime, never freed
  ring->tid = static_cast<pid_t>(syscall(SYS_gettid));
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    size_t stack_size = 0;
    if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      ring->stack_lo = reinterpret_cast<uintptr_t>(stack_addr);
      ring->stack_hi = ring->stack_lo + stack_size;
    }
    pthread_attr_destroy(&attr);
  }
  t_ring = ring;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  Registry().push_back(ring);
  if (g_running.load(std::memory_order_relaxed) &&
      g_backend == Backend::kPerfRings) {
    ArmRing(ring, g_options.sample_hz);
  }
}

ProfileCounts SamplingProfiler::Snapshot() {
  DrainRings();
  ProfileCounts out;
  {
    FoldTable& table = Table();
    std::lock_guard<std::mutex> lock(table.mu);
    out.total_samples = table.total_samples;
    out.truncated = table.truncated;
    out.entries.reserve(table.entries.size());
    for (const auto& kv : table.entries) out.entries.push_back(kv.second);
  }
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (const ThreadRing* ring : Registry()) {
      out.dropped += ring->dropped.load(std::memory_order_relaxed);
    }
  }
  out.dropped += g_unregistered.load(std::memory_order_relaxed);
  std::sort(out.entries.begin(), out.entries.end(),
            [](const ProfileCounts::Entry& a, const ProfileCounts::Entry& b) {
              return a.key < b.key;
            });
  return out;
}

SamplingProfiler::Stats SamplingProfiler::stats() {
  DrainRings();
  Stats s;
  {
    std::lock_guard<std::mutex> lifecycle(g_lifecycle_mu);
    s.backend = BackendName(g_backend);
    s.sample_hz = g_options.sample_hz;
    if (g_start_cpu_ns > 0) {
      const int64_t cpu = ProcessCpuNs() - g_start_cpu_ns;
      s.process_cpu_ns = cpu > 0 ? static_cast<uint64_t>(cpu) : 0;
    }
  }
  {
    FoldTable& table = Table();
    std::lock_guard<std::mutex> lock(table.mu);
    s.samples = table.total_samples;
    s.truncated = table.truncated;
    s.unique_stacks = table.entries.size();
  }
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (const ThreadRing* ring : Registry()) {
      s.dropped += ring->dropped.load(std::memory_order_relaxed);
      s.handler_ns += ring->handler_ns.load(std::memory_order_relaxed);
    }
  }
  s.dropped += g_unregistered.load(std::memory_order_relaxed);
  if (s.process_cpu_ns > 0) {
    s.overhead_frac = static_cast<double>(s.handler_ns) /
                      static_cast<double>(s.process_cpu_ns);
  }
  return s;
}

void SamplingProfiler::IngestSampleForTest(const uintptr_t* pcs, int nframes,
                                           uint64_t phase_word) {
  FoldTable& table = Table();
  std::lock_guard<std::mutex> lock(table.mu);
  FoldLocked(table, pcs, nframes, phase_word);
}

}  // namespace obs
}  // namespace pbfs
