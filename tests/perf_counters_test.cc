// Tests for the perf-counter degradation contract (obs/perf_counters).
//
// The module's one promise is that call sites never need to care
// whether hardware counters work: when perf_event_open is denied (or
// PBFS_PERF_DISABLE forces the null backend) spans must still emit,
// carrying an explicit `counters_unavailable=1` marker and no hardware
// args; when counters do work the deltas must behave like counters
// (monotonic, cycles always in the valid mask). Perf is unavailable in
// most CI containers, so the live-backend tests GTEST_SKIP with the
// backend's own reason instead of failing. Labeled "obs" in CMake.

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "bfs/single_source.h"
#include "graph/generators.h"
#include "obs/perf_counters.h"
#include "obs/perf_event.h"
#include "obs/trace.h"
#include "sched/worker_pool.h"

namespace pbfs {
namespace {

using obs::AddPerfDeltaArgs;
using obs::kNumPerfCounters;
using obs::kPerfCycles;
using obs::PerfCounterArgName;
using obs::PerfCounters;
using obs::PerfSample;
using obs::TraceDump;
using obs::TraceEvent;
using obs::TraceThreadDump;
using obs::Tracer;

// Scoped PBFS_PERF_DISABLE so a failing assertion cannot leak the
// forced-null environment into later tests.
class ScopedPerfDisable {
 public:
  ScopedPerfDisable() { setenv("PBFS_PERF_DISABLE", "1", 1); }
  ~ScopedPerfDisable() {
    unsetenv("PBFS_PERF_DISABLE");
    PerfCounters::Disable();
  }
};

std::vector<TraceEvent> EventsNamed(const TraceDump& dump,
                                    std::string_view name) {
  std::vector<TraceEvent> out;
  for (const TraceThreadDump& thread : dump.threads) {
    for (const TraceEvent& event : thread.events) {
      if (event.name != nullptr && name == event.name) out.push_back(event);
    }
  }
  return out;
}

bool HasArg(const TraceEvent& event, std::string_view name) {
  for (int i = 0; i < event.num_args; ++i) {
    if (event.args[i].name == name) return true;
  }
  return false;
}

// The arg names are the keys metrics, BENCH_*.json, and
// bench_compare.py look up; renaming one silently breaks the toolchain
// downstream, so pin all of them.
TEST(PerfCountersTest, ArgNamesAreStableKeys) {
  const char* const expected[kNumPerfCounters] = {
      "cycles",      "instructions", "llc_loads", "llc_misses",
      "stalled_backend", "node_loads", "node_misses"};
  for (int id = 0; id < kNumPerfCounters; ++id) {
    EXPECT_STREQ(PerfCounterArgName(id), expected[id]) << "id " << id;
  }
}

TEST(PerfCountersTest, DisabledAddsNoArgsAtAll) {
  PerfCounters::Disable();
  TraceEvent event;
  PerfSample begin, end;
  AddPerfDeltaArgs(event, begin, end);
  EXPECT_EQ(event.num_args, 0);
}

// PBFS_PERF_DISABLE forces the null backend: Enable() reports failure
// but the request sticks, reads return empty samples, and traced BFS
// level spans carry the explicit marker instead of hardware args.
TEST(PerfCountersTest, ForcedNullBackendStillMarksSpans) {
  ScopedPerfDisable disable;
  EXPECT_FALSE(PerfCounters::Enable());
  EXPECT_TRUE(PerfCounters::enabled());
  EXPECT_FALSE(PerfCounters::backend_available());
  EXPECT_NE(std::string(PerfCounters::unavailable_reason())
                .find("PBFS_PERF_DISABLE"),
            std::string::npos)
      << PerfCounters::unavailable_reason();
  EXPECT_FALSE(PerfCounters::ReadCurrentThread().available());

  Graph graph = SocialNetwork({.num_vertices = 2048, .avg_degree = 8.0,
                               .seed = 11});
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  std::unique_ptr<SingleSourceBfsBase> bfs =
      MakeSmsPbfs(graph, SmsVariant::kByte, &pool);

  Tracer::Get().Start();
  std::vector<Level> levels(graph.num_vertices());
  bfs->Run(3, BfsOptions{}, levels.data());
  TraceDump dump = Tracer::Get().Stop();

  std::vector<TraceEvent> spans = EventsNamed(dump, "sms-pbfs-byte.level");
  ASSERT_FALSE(spans.empty());
  for (const TraceEvent& span : spans) {
    EXPECT_EQ(span.Arg("counters_unavailable"), 1u);
    for (int id = 0; id < kNumPerfCounters; ++id) {
      EXPECT_FALSE(HasArg(span, PerfCounterArgName(id)))
          << PerfCounterArgName(id);
    }
    // The software args are untouched by the degradation.
    EXPECT_TRUE(HasArg(span, "frontier"));
  }
}

// PBFS_PERF_DISABLE has one parse, shared by the counters and the
// sampler: unset, "" and "0" leave perf on; any other value ("1",
// "00") turns it off, and the counters then report the variable.
TEST(PerfCountersTest, PerfDisableEnvHasOneParse) {
  const char* saved = std::getenv("PBFS_PERF_DISABLE");
  const std::string restore = saved != nullptr ? saved : "";
  const bool was_set = saved != nullptr;
  unsetenv("PBFS_PERF_DISABLE");
  EXPECT_FALSE(obs::PerfDisabledByEnv());
  const struct {
    const char* value;
    bool disabled;
  } cases[] = {{"", false}, {"0", false}, {"1", true}, {"00", true}};
  for (const auto& c : cases) {
    setenv("PBFS_PERF_DISABLE", c.value, 1);
    EXPECT_EQ(obs::PerfDisabledByEnv(), c.disabled) << '"' << c.value << '"';
    if (c.disabled) {
      EXPECT_FALSE(PerfCounters::Enable()) << '"' << c.value << '"';
      EXPECT_NE(std::string(PerfCounters::unavailable_reason())
                    .find("PBFS_PERF_DISABLE"),
                std::string::npos)
          << PerfCounters::unavailable_reason();
      PerfCounters::Disable();
    }
  }
  if (was_set) {
    setenv("PBFS_PERF_DISABLE", restore.c_str(), 1);
  } else {
    unsetenv("PBFS_PERF_DISABLE");
  }
}

// Each Enable() re-reads the environment and re-probes, so a process
// can go disabled -> (maybe) live across sessions; Disable() must stop
// spans from carrying any perf args, marker included.
TEST(PerfCountersTest, EnableRereadsEnvironmentAndDisableStops) {
  {
    ScopedPerfDisable disable;
    EXPECT_FALSE(PerfCounters::Enable());
    PerfCounters::Disable();
  }
  const bool live = PerfCounters::Enable();
  EXPECT_EQ(live, PerfCounters::backend_available());
  EXPECT_EQ(live, PerfCounters::ReadCurrentThread().available());
  PerfCounters::Disable();
  EXPECT_FALSE(PerfCounters::enabled());

  Graph graph = SocialNetwork({.num_vertices = 1024, .avg_degree = 8.0,
                               .seed = 11});
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  std::unique_ptr<SingleSourceBfsBase> bfs =
      MakeSmsPbfs(graph, SmsVariant::kByte, &pool);
  Tracer::Get().Start();
  std::vector<Level> levels(graph.num_vertices());
  bfs->Run(1, BfsOptions{}, levels.data());
  TraceDump dump = Tracer::Get().Stop();
  for (const TraceEvent& span : EventsNamed(dump, "sms-pbfs-byte.level")) {
    EXPECT_FALSE(HasArg(span, "counters_unavailable"));
    EXPECT_FALSE(HasArg(span, "cycles"));
  }
}

// Live backend only (skips where perf_event_open is denied): samples
// must include the group leader, grow monotonically, and turn into
// per-counter delta args rather than the unavailable marker.
TEST(PerfCountersTest, LiveCountersAreMonotonicAndBecomeDeltaArgs) {
  unsetenv("PBFS_PERF_DISABLE");
  if (!PerfCounters::Enable()) {
    PerfCounters::Disable();
    GTEST_SKIP() << PerfCounters::unavailable_reason();
  }
  PerfSample before = PerfCounters::ReadCurrentThread();
  if (!before.available()) {
    PerfCounters::Disable();
    GTEST_SKIP() << "thread counter group failed to open";
  }
  ASSERT_TRUE(before.valid & (1u << kPerfCycles)) << "leader must be open";

  // Burn enough work that cycles visibly advance even under multiplex
  // scaling.
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < (uint64_t{1} << 22); ++i) sink = sink + i * i;
  PerfSample after = PerfCounters::ReadCurrentThread();
  ASSERT_TRUE(after.available());
  EXPECT_GT(after.value[kPerfCycles], before.value[kPerfCycles]);

  TraceEvent event;
  AddPerfDeltaArgs(event, before, after);
  EXPECT_FALSE(HasArg(event, "counters_unavailable"));
  EXPECT_TRUE(HasArg(event, "cycles"));
  EXPECT_GT(event.Arg("cycles"), 0u);
  PerfCounters::Disable();
}

}  // namespace
}  // namespace pbfs
