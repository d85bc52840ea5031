// Tests for the sampling profiler (obs/profiler): phase-word packing,
// the live-backend known-symbol self-test, bounded fold-table memory
// under stack churn, the degradation contract (mirrors
// perf_counters_test), and the sample/counter-span attribution join.
//
// The live-backend test GTEST_SKIPs with the profiler's own sticky
// reason when no backend comes up (e.g. a container that denies both
// perf_event_open and ITIMER_PROF); everything else runs without any
// signal delivery via IngestSampleForTest. Labeled "obs" in CMake.

#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/profiler/phase_profile.h"
#include "obs/profiler/phase_tag.h"
#include "obs/profiler/sampling_profiler.h"
#include "obs/profiler/symbolize.h"
#include "obs/trace.h"

namespace pbfs {
namespace {

using obs::BfsPhase;
using obs::ClearCurrentBfsPhase;
using obs::CurrentPhaseWord;
using obs::DecodePhaseWord;
using obs::FoldedProfileText;
using obs::PhaseAttribution;
using obs::PhaseLabel;
using obs::PhaseProfileStore;
using obs::ProfileCounts;
using obs::SamplingProfiler;
using obs::SetCurrentBfsPhase;
using obs::SubtractProfiles;
using obs::Symbolizer;
using obs::TraceDump;
using obs::TraceEvent;
using obs::TraceEventType;
using obs::TraceThreadDump;

// Scoped env var so a failing assertion cannot leak the forced
// environment into later tests (same pattern as perf_counters_test).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

TEST(PhaseTagTest, PackDecodeRoundTrips) {
  SetCurrentBfsPhase("queue-pbfs.level", 7, false);
  const uint64_t word = CurrentPhaseWord();
  EXPECT_NE(word, 0u);
  BfsPhase phase = DecodePhaseWord(word);
  ASSERT_TRUE(phase.active());
  EXPECT_STREQ(phase.variant, "queue-pbfs.level");
  EXPECT_EQ(phase.level, 7u);
  EXPECT_FALSE(phase.bottom_up);

  SetCurrentBfsPhase("ms-pbfs.level", 12, true);
  phase = DecodePhaseWord(CurrentPhaseWord());
  ASSERT_TRUE(phase.active());
  EXPECT_STREQ(phase.variant, "ms-pbfs.level");
  EXPECT_EQ(phase.level, 12u);
  EXPECT_TRUE(phase.bottom_up);

  ClearCurrentBfsPhase();
  EXPECT_EQ(CurrentPhaseWord(), 0u);
  EXPECT_FALSE(DecodePhaseWord(0).active());
}

TEST(PhaseTagTest, InterningIsIdempotentPerContent) {
  // Same content through a different pointer must land on the same
  // index — the handler stores the index, not the pointer.
  static const char kCopyA[] = "intern-test.level";
  std::string copy_b = "intern-test.level";
  const int a = obs::InternPhaseName(kCopyA);
  ASSERT_GE(a, 0);
  EXPECT_EQ(obs::InternPhaseName(copy_b.c_str()), a);
  EXPECT_STREQ(obs::PhaseNameByIndex(a), "intern-test.level");
  EXPECT_EQ(obs::PhaseNameByIndex(-1), nullptr);
}

TEST(ProfilerTest, SubtractProfilesClampsAndDiffsByKey) {
  ProfileCounts base, cand;
  ProfileCounts::Entry e;
  e.pcs = {0x100};
  e.phase_word = 0;
  e.key = 10;
  e.count = 3;
  base.entries.push_back(e);
  base.total_samples = 3;
  e.count = 8;
  cand.entries.push_back(e);  // grew by 5
  e.pcs = {0x200};
  e.key = 20;
  e.count = 2;
  cand.entries.push_back(e);  // new stack
  cand.total_samples = 10;

  const ProfileCounts delta = SubtractProfiles(cand, base);
  ASSERT_EQ(delta.entries.size(), 2u);
  EXPECT_EQ(delta.entries[0].count, 5u);
  EXPECT_EQ(delta.entries[1].count, 2u);
  EXPECT_EQ(delta.total_samples, 7u);
  // Reversed order clamps to zero instead of wrapping.
  const ProfileCounts reverse = SubtractProfiles(base, cand);
  EXPECT_EQ(reverse.total_samples, 0u);
  EXPECT_TRUE(reverse.entries.empty());
}

// Burns CPU in a frame the profiler must be able to name. extern "C"
// noinline so the symbol survives optimization with a predictable name.
extern "C" __attribute__((noinline)) uint64_t
pbfs_profiler_test_spin(int64_t budget_ns) {
  const int64_t start = ThreadCpuNs();
  volatile uint64_t sink = 0;
  while (ThreadCpuNs() - start < budget_ns) {
    for (int i = 0; i < 4096; ++i) sink = sink + i * i;
  }
  return sink;
}

// End-to-end: a live backend must catch the spin function red-handed,
// with the sample tagged by the phase that was current at signal time.
TEST(ProfilerTest, KnownSymbolAppearsInFoldedStacks) {
  SamplingProfiler& profiler = SamplingProfiler::Get();
  SamplingProfiler::RegisterCurrentThread();
  SamplingProfiler::Options options;
  options.sample_hz = 997;  // dense sampling keeps the spin short
  if (!profiler.Start(options)) {
    GTEST_SKIP() << profiler.unavailable_reason();
  }
  SetCurrentBfsPhase("test-variant.level", 3, true);
  pbfs_profiler_test_spin(400 * 1000 * 1000);  // ~400ms of CPU
  ClearCurrentBfsPhase();
  profiler.Stop();

  const SamplingProfiler::Stats stats = profiler.stats();
  EXPECT_STRNE(stats.backend, "none");
  ASSERT_GT(stats.samples, 0u) << "backend " << stats.backend
                               << " delivered no samples";

  const ProfileCounts counts = profiler.Snapshot();
  EXPECT_EQ(counts.SampleSum(), counts.total_samples);
  Symbolizer symbolizer;
  if (symbolizer.symbol_count() == 0) {
    GTEST_SKIP() << "no symbols loadable from /proc/self/maps";
  }
  const std::string folded = FoldedProfileText(counts, &symbolizer);
  EXPECT_NE(folded.find("pbfs_profiler_test_spin"), std::string::npos)
      << "spin frame missing from:\n"
      << folded.substr(0, 2000);
  EXPECT_NE(folded.find("test-variant/L3/bu;"), std::string::npos)
      << "phase tag missing from:\n"
      << folded.substr(0, 2000);
}

// The fold table must stay bounded no matter how many distinct stacks
// arrive: overflow collapses into per-phase "[truncated]" buckets and
// the sample totals are conserved.
TEST(ProfilerTest, FoldTableBoundedUnderStackChurn) {
  // Record a small cap without starting a backend (options are applied
  // before the availability check, and a failed Start does not clear
  // previously folded samples).
  ScopedEnv disable("PBFS_PROFILER_DISABLE", "1");
  SamplingProfiler& profiler = SamplingProfiler::Get();
  SamplingProfiler::Options options;
  options.max_unique_stacks = 64;
  EXPECT_FALSE(profiler.Start(options));

  const ProfileCounts base = profiler.Snapshot();
  SetCurrentBfsPhase("churn-test.level", 1, false);
  const uint64_t phase_word = CurrentPhaseWord();
  ClearCurrentBfsPhase();
  constexpr int kDistinctStacks = 1000;
  for (int i = 0; i < kDistinctStacks; ++i) {
    uintptr_t pcs[2] = {0x400000u + static_cast<uintptr_t>(i) * 16, 0x500000u};
    profiler.IngestSampleForTest(pcs, 2, phase_word);
  }
  const ProfileCounts end = profiler.Snapshot();

  // Growth is bounded by the cap (+1 for the truncated bucket), even
  // though 1000 distinct stacks arrived.
  EXPECT_LE(end.entries.size(),
            std::max(base.entries.size(), size_t{64}) + 1);
  EXPECT_GT(end.truncated, base.truncated);
  EXPECT_EQ(end.total_samples - base.total_samples,
            static_cast<uint64_t>(kDistinctStacks));
  // Conservation: every folded sample is accounted for in some bucket.
  EXPECT_EQ(end.SampleSum(), end.total_samples);
  // The truncated bucket renders as "[truncated]" instead of vanishing.
  const std::string folded = FoldedProfileText(end, nullptr);
  EXPECT_NE(folded.find("[truncated]"), std::string::npos);
}

// Degradation contract, mirroring PerfCounters: the kill switch makes
// Start() fail with a sticky, self-explanatory reason; PBFS_PERF_DISABLE
// only vetoes the perf-ring backend and sampling continues via SIGPROF.
TEST(ProfilerTest, DisableEnvironmentContract) {
  SamplingProfiler& profiler = SamplingProfiler::Get();
  {
    ScopedEnv disable("PBFS_PROFILER_DISABLE", "1");
    EXPECT_FALSE(profiler.Start());
    EXPECT_FALSE(profiler.running());
    EXPECT_EQ(profiler.backend(), SamplingProfiler::Backend::kNone);
    EXPECT_NE(std::string(profiler.unavailable_reason())
                  .find("PBFS_PROFILER_DISABLE"),
              std::string::npos)
        << profiler.unavailable_reason();
    // "0" means unset, like the other PBFS_* switches.
    setenv("PBFS_PROFILER_DISABLE", "0", 1);
    ScopedEnv perf_disable("PBFS_PERF_DISABLE", "1");
    if (!profiler.Start()) {
      GTEST_SKIP() << profiler.unavailable_reason();
    }
    EXPECT_TRUE(profiler.running());
    EXPECT_EQ(profiler.backend(), SamplingProfiler::Backend::kSigprofTimer);
    EXPECT_STREQ(SamplingProfiler::BackendName(profiler.backend()), "sigprof");
    EXPECT_STREQ(profiler.unavailable_reason(), "");
    profiler.Stop();
    EXPECT_FALSE(profiler.running());
  }
  // Each Start re-reads the environment, so the process can go
  // disabled -> live across sessions.
  if (profiler.Start()) {
    EXPECT_TRUE(profiler.running());
    profiler.Stop();
  }
}

// The attribution join: samples keyed by phase word meet counter spans
// keyed by (span name, level, bottom_up) args on the same row.
TEST(PhaseProfileTest, AttributionJoinsSamplesWithCounterSpans) {
  SetCurrentBfsPhase("ms-pbfs.level", 3, true);
  const uint64_t phase_word = CurrentPhaseWord();
  ClearCurrentBfsPhase();

  ProfileCounts counts;
  ProfileCounts::Entry entry;
  entry.pcs = {0x1234, 0x5678};  // leaf first
  entry.phase_word = phase_word;
  entry.count = 7;
  entry.key = 1;
  counts.entries.push_back(entry);
  counts.total_samples = 7;

  TraceDump dump;
  TraceThreadDump thread;
  TraceEvent span;
  span.name = "ms-pbfs.level";
  span.type = TraceEventType::kSpan;
  span.dur_ns = 5 * 1000 * 1000;
  span.AddArg("level", 3);
  span.AddArg("bottom_up", 1);
  span.AddArg("edges_scanned", 1000);
  span.AddArg("cycles", 2000);
  span.AddArg("instructions", 4000);
  span.AddArg("llc_loads", 100);
  span.AddArg("llc_misses", 50);
  thread.events.push_back(span);
  // A span with no `level` arg must not contaminate the table.
  TraceEvent not_a_level;
  not_a_level.name = "compact.level";
  not_a_level.type = TraceEventType::kSpan;
  thread.events.push_back(not_a_level);
  dump.threads.push_back(thread);

  PhaseProfileStore store;
  store.SetSamples(counts);
  store.MergeSpans(dump);
  const PhaseAttribution attribution = store.BuildAttribution(nullptr);

  ASSERT_EQ(attribution.rows.size(), 1u);
  const auto& row = attribution.rows[0];
  EXPECT_EQ(row.variant, "ms-pbfs");
  EXPECT_EQ(row.level, 3);
  EXPECT_TRUE(row.bottom_up);
  EXPECT_EQ(PhaseLabel(row.variant, row.level, row.bottom_up),
            "ms-pbfs/L3/bu");
  EXPECT_EQ(row.samples, 7u);
  EXPECT_DOUBLE_EQ(row.samples_pct, 100.0);
  EXPECT_EQ(row.span_count, 1u);
  EXPECT_DOUBLE_EQ(row.wall_ms, 5.0);
  EXPECT_TRUE(row.have_counters);
  EXPECT_EQ(row.cycles, 2000u);
  EXPECT_EQ(row.instructions, 4000u);
  EXPECT_EQ(row.edges_scanned, 1000u);
  ASSERT_FALSE(row.top_frames.empty());
  EXPECT_NE(row.top_frames[0].find("1234"), std::string::npos)
      << row.top_frames[0];

  const std::string json = obs::AttributionJsonArray(attribution);
  EXPECT_NE(json.find("\"variant\":\"ms-pbfs\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ipc\":2"), std::string::npos) << json;
  const std::string report = obs::AttributionReportText(attribution);
  EXPECT_NE(report.find("ms-pbfs/L3/bu"), std::string::npos) << report;
}

// Samples with no matching span (and spans with no samples) still get
// rows — degradation on either side must not hide the phase.
TEST(PhaseProfileTest, OneSidedPhasesStillGetRows) {
  SetCurrentBfsPhase("sample-only.level", 1, false);
  const uint64_t phase_word = CurrentPhaseWord();
  ClearCurrentBfsPhase();

  ProfileCounts counts;
  ProfileCounts::Entry entry;
  entry.pcs = {0xabc};
  entry.phase_word = phase_word;
  entry.count = 4;
  entry.key = 9;
  counts.entries.push_back(entry);
  // An untagged sample (phase word 0) lands on the unattributed row.
  entry.pcs = {0xdef};
  entry.phase_word = 0;
  entry.count = 1;
  entry.key = 11;
  counts.entries.push_back(entry);
  counts.total_samples = 5;

  TraceDump dump;
  TraceThreadDump thread;
  TraceEvent span;
  span.name = "span-only.level";
  span.type = TraceEventType::kSpan;
  span.dur_ns = 1000000;
  span.AddArg("level", 0);
  thread.events.push_back(span);
  dump.threads.push_back(thread);

  PhaseProfileStore store;
  store.SetSamples(counts);
  store.MergeSpans(dump);
  const PhaseAttribution attribution = store.BuildAttribution(nullptr);

  bool saw_sample_only = false, saw_span_only = false, saw_unattributed = false;
  for (const auto& row : attribution.rows) {
    if (row.variant == "sample-only") {
      saw_sample_only = true;
      EXPECT_EQ(row.samples, 4u);
      EXPECT_FALSE(row.have_counters);
    } else if (row.variant == "span-only") {
      saw_span_only = true;
      EXPECT_EQ(row.samples, 0u);
      EXPECT_EQ(row.span_count, 1u);
    } else if (row.variant == "unattributed") {
      saw_unattributed = true;
      EXPECT_EQ(row.level, -1);
      EXPECT_EQ(row.samples, 1u);
    }
  }
  EXPECT_TRUE(saw_sample_only);
  EXPECT_TRUE(saw_span_only);
  EXPECT_TRUE(saw_unattributed);
}

}  // namespace
}  // namespace pbfs
