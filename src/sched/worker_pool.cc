#include "sched/worker_pool.h"

#include <optional>

#include "obs/profiler/sampling_profiler.h"
#include "obs/trace.h"
#include "platform/thread_pin.h"
#include "util/check.h"
#include "util/timer.h"

namespace pbfs {

namespace {
// Distinguishes concurrent loops in a trace: the coordinating
// "sched.parallel_for" span and each worker's "sched.worker_loop" span
// carry the same loop id, so per-loop task balance is checkable.
std::atomic<uint64_t> g_loop_counter{1};
}  // namespace

WorkerPool::WorkerPool(const Options& options)
    : num_workers_(options.num_workers), queues_(options.num_workers) {
  PBFS_CHECK(num_workers_ > 0);
  std::optional<Topology> detected;
  const Topology* topo = options.topology;
  if (topo == nullptr) {
    detected.emplace(Topology::Detect());
    topo = &*detected;
  }
  num_nodes_ = topo->num_nodes();
  std::vector<int> cpus;
  if (!options.cpus.empty()) {
    PBFS_CHECK(static_cast<int>(options.cpus.size()) >= num_workers_);
    cpus.assign(options.cpus.begin(), options.cpus.begin() + num_workers_);
    worker_nodes_.resize(num_workers_);
    for (int w = 0; w < num_workers_; ++w) {
      worker_nodes_[w] = topo->NodeOfCpu(cpus[w]);
    }
  } else {
    worker_nodes_ = topo->AssignWorkersToNodes(num_workers_);
    cpus = topo->AssignWorkersToCpus(num_workers_);
  }

  heartbeats_ = std::make_unique<Heartbeat[]>(num_workers_);
  threads_.reserve(num_workers_);
  for (int w = 0; w < num_workers_; ++w) {
    int cpu = options.pin_threads ? cpus[w] : -1;
    threads_.emplace_back([this, w, cpu] { WorkerMain(w, cpu); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    ++epoch_;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::WorkerMain(int worker_id, int cpu) {
  if (cpu >= 0) PinCurrentThreadToCpu(cpu);
  obs::Tracer::SetThreadLabel("worker", worker_id);
  // Give the sampling profiler a ring (and stack bounds) for this
  // worker; a no-op unless/until a profiling session starts.
  obs::SamplingProfiler::RegisterCurrentThread();
  uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock,
                     [&] { return stopping_ || epoch_ != seen_epoch; });
      if (stopping_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    // Job-start bump + busy flag: the watchdog's stall episode re-arms
    // between jobs, and an idle (not busy) frozen epoch is never a
    // stall.
    Heartbeat& heartbeat = heartbeats_[worker_id];
    heartbeat.epoch.fetch_add(1, std::memory_order_relaxed);
    heartbeat.busy.store(true, std::memory_order_relaxed);
    (*job)(worker_id);
    heartbeat.busy.store(false, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_ == 0) done_cv_.notify_one();
    }
  }
}

void WorkerPool::Dispatch(const std::function<void(int)>& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    active_ = num_workers_;
    ++epoch_;
  }
  start_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return active_ == 0; });
  job_ = nullptr;
}

void WorkerPool::ParallelFor(uint64_t total, uint32_t split_size,
                             const RangeBody& body) {
  // Reset even for the empty loop so no stale task count survives into a
  // later manual Fetch (e.g. benches driving queues via RunOnWorkers).
  queues_.Reset(total, split_size);
  if (total == 0) return;
  const uint64_t loop_id =
      g_loop_counter.fetch_add(1, std::memory_order_relaxed);
  obs::ScopedSpan loop_span("sched.parallel_for");
  loop_span.AddArg("loop", loop_id);
  loop_span.AddArg("total", total);
  loop_span.AddArg("split", split_size);
  loop_span.AddArg("tasks", (total + split_size - 1) / split_size);
  std::function<void(int)> job = [&](int worker_id) {
    if (const StealPolicy* policy = queues_.steal_policy()) {
      policy->OnLoopStart(worker_id, num_workers_);
    }
    const bool tracing = obs::Tracer::Get().enabled();
    const int64_t t0 = tracing ? NowNanos() : 0;
    obs::PerfSample perf0;
    if (tracing) perf0 = obs::PerfCounters::ReadCurrentThread();
    int steal_cursor = 0;
    uint64_t local = 0;
    uint64_t stolen = 0;
    for (;;) {
      TaskRange range = queues_.Fetch(worker_id, &steal_cursor);
      if (range.empty()) break;
      // Heartbeat: one relaxed add on a worker-private line per task.
      heartbeats_[worker_id].epoch.fetch_add(1, std::memory_order_relaxed);
      // steal_cursor stays 0 while fetching from the worker's own queue.
      if (steal_cursor == 0) {
        ++local;
      } else {
        ++stolen;
      }
      body(worker_id, range.begin, range.end);
    }
    if (local != 0) local_tasks_.fetch_add(local, std::memory_order_relaxed);
    if (stolen != 0) {
      stolen_tasks_.fetch_add(stolen, std::memory_order_relaxed);
    }
    if (tracing) {
      obs::TraceEvent event =
          obs::MakeSpan("sched.worker_loop", t0, NowNanos());
      event.AddArg("loop", loop_id);
      event.AddArg("local", local);
      event.AddArg("stolen", stolen);
      obs::AddPerfDeltaArgs(event, perf0,
                            obs::PerfCounters::ReadCurrentThread());
      obs::Tracer::Get().Record(event);
    }
  };
  Dispatch(job);
}

void WorkerPool::ParallelForStatic(uint64_t total, const RangeBody& body) {
  if (total == 0) return;
  const uint64_t loop_id =
      g_loop_counter.fetch_add(1, std::memory_order_relaxed);
  obs::ScopedSpan loop_span("sched.parallel_for_static");
  loop_span.AddArg("loop", loop_id);
  loop_span.AddArg("total", total);
  std::function<void(int)> job = [&, this, total](int worker_id) {
    const bool tracing = obs::Tracer::Get().enabled();
    const int64_t t0 = tracing ? NowNanos() : 0;
    obs::PerfSample perf0;
    if (tracing) perf0 = obs::PerfCounters::ReadCurrentThread();
    uint64_t w = static_cast<uint64_t>(worker_id);
    uint64_t workers = static_cast<uint64_t>(num_workers_);
    // Partition borders are rounded to multiples of 64 so kernels whose
    // state is bit-packed into 64-bit words never share a word across
    // workers.
    auto border = [total, workers](uint64_t k) -> uint64_t {
      if (k >= workers) return total;
      return total * k / workers / 64 * 64;
    };
    uint64_t begin = border(w);
    uint64_t end = border(w + 1);
    if (begin < end) body(worker_id, begin, end);
    // One span per worker per static loop, mirroring sched.worker_loop:
    // `elems` is the worker's contiguous share, so per-worker counter
    // deltas are attributable to a known slice of the iteration space
    // (the Figure 9 skew experiments read these).
    if (tracing) {
      obs::TraceEvent event =
          obs::MakeSpan("sched.worker_static", t0, NowNanos());
      event.AddArg("loop", loop_id);
      event.AddArg("elems", begin < end ? end - begin : 0);
      obs::AddPerfDeltaArgs(event, perf0,
                            obs::PerfCounters::ReadCurrentThread());
      obs::Tracer::Get().Record(event);
    }
  };
  Dispatch(job);
}

void WorkerPool::FirstTouchFor(uint64_t total, uint32_t split_size,
                               const RangeBody& body) {
  if (total == 0) return;
  PBFS_CHECK(split_size > 0);
  const uint64_t workers = static_cast<uint64_t>(num_workers_);
  const uint64_t num_tasks = (total + split_size - 1) / split_size;
  std::function<void(int)> job = [&](int worker_id) {
    for (uint64_t task = static_cast<uint64_t>(worker_id); task < num_tasks;
         task += workers) {
      uint64_t begin = task * split_size;
      uint64_t end = begin + split_size;
      if (end > total) end = total;
      body(worker_id, begin, end);
    }
  };
  Dispatch(job);
}

void WorkerPool::RunOnWorkers(const std::function<void(int)>& fn) {
  Dispatch(fn);
}

std::vector<WorkerPool::WorkerHeartbeat> WorkerPool::HeartbeatSamples()
    const {
  std::vector<WorkerHeartbeat> samples;
  samples.reserve(static_cast<size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    samples.push_back(WorkerHeartbeat{
        w, heartbeats_[w].epoch.load(std::memory_order_relaxed),
        heartbeats_[w].busy.load(std::memory_order_relaxed)});
  }
  return samples;
}

}  // namespace pbfs
