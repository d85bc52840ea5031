// Per-phase attribution: merges the sampling profiler's folded stacks
// with the per-level hardware-counter span args the kernels already
// emit, producing the table the kernel campaign reads — for each
// (variant, level, direction): cycles%, IPC, LLC-bytes/edge, sample
// share, and the top frames where those samples landed.
//
// The two inputs arrive on different axes: samples are tagged with the
// packed phase word at signal time (phase_tag.h), while counter deltas
// ride on the "<kernel>.level" spans (bfs/level_driver.h) keyed by their
// `level` / `bottom_up` args. Both sides key by (variant, level,
// direction), so the merge is a join on that tuple; phases seen by only
// one side still get a row (samples with no counters on perf-denied
// hosts, counter spans with no samples for sub-millisecond levels).
//
// Exporters:
//  * FoldedProfileText — FlameGraph "collapsed" format, loadable by
//    speedscope and flamegraph.pl: `phase;root;...;leaf count` lines.
//  * ProfileJson — the /debug/pprof?format=json payload: sampler stats
//    plus raw stacks plus the attribution table.
//  * AttributionJsonArray — the `phases` array embedded in
//    BENCH_*.json, consumed by scripts/perf_attribution.py.
//  * AttributionReportText — the human "worst levels" table (watchdog
//    dumps, CLI).
#ifndef PBFS_OBS_PROFILER_PHASE_PROFILE_H_
#define PBFS_OBS_PROFILER_PHASE_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "obs/profiler/sampling_profiler.h"
#include "obs/profiler/symbolize.h"
#include "obs/trace.h"

namespace pbfs {
namespace obs {

// One (variant, level, direction) row of the attribution table.
struct PhaseRow {
  std::string variant;  // span name minus ".level"; "unattributed" row
  int level = -1;       // -1 on the unattributed row
  bool bottom_up = false;

  // Sample side.
  uint64_t samples = 0;
  double samples_pct = 0.0;  // of all samples in the profile

  // Counter-span side (all zero when no span matched).
  uint64_t span_count = 0;
  double wall_ms = 0.0;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t llc_loads = 0;
  uint64_t llc_misses = 0;
  uint64_t edges_scanned = 0;
  double cycles_pct = 0.0;  // of all cycles attributed across rows
  bool have_counters = false;

  // Leaf ("self") frames with the most samples in this phase.
  std::vector<std::string> top_frames;
};

struct PhaseAttribution {
  // Sorted by cycles desc, then samples desc, then wall_ms desc — the
  // "worst levels first" order the reports print.
  std::vector<PhaseRow> rows;
  uint64_t total_samples = 0;
  uint64_t dropped = 0;
  uint64_t truncated = 0;
};

// "ms-pbfs/L5/bu", "queue-pbfs/L2/td", "unattributed".
std::string PhaseLabel(const std::string& variant, int level, bool bottom_up);

// Accumulates the two input sides and joins them on demand.
class PhaseProfileStore {
 public:
  // Replaces the sample side (typically a delta of two snapshots).
  void SetSamples(ProfileCounts counts);

  // Folds every "<kernel>.level" span of `dump` into the counter side.
  // Callable repeatedly (e.g. once per trace session).
  void MergeSpans(const TraceDump& dump);

  const ProfileCounts& samples() const { return counts_; }

  // The join. `symbolizer` may be null (rows then carry hex frames).
  PhaseAttribution BuildAttribution(Symbolizer* symbolizer,
                                    int top_frames = 3) const;

 private:
  struct SpanAgg {
    uint64_t span_count = 0;
    int64_t wall_ns = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t llc_loads = 0;
    uint64_t llc_misses = 0;
    uint64_t edges_scanned = 0;
    bool have_counters = false;
  };
  using PhaseKey = std::tuple<std::string, int, bool>;

  ProfileCounts counts_;
  std::map<PhaseKey, SpanAgg> spans_;
};

// FlameGraph collapsed format, one line per unique (phase, stack):
//   <phase>;<root>;...;<leaf> <count>
// Lines are sorted for deterministic output; ';' inside demangled
// frame names is rewritten to ',' to keep the field separator unique.
std::string FoldedProfileText(const ProfileCounts& counts,
                              Symbolizer* symbolizer);

// {"backend":...,"sample_hz":...,"samples":...,...} — the sampler
// stats object shared by /debug/pprof and the BENCH_*.json `profiler`
// section.
std::string SamplerStatsJson(const ProfileCounts& counts,
                             const SamplingProfiler::Stats& stats);

// /debug/pprof JSON payload: sampler stats, the attribution table, and
// the folded stacks.
std::string ProfileJson(const ProfileCounts& counts,
                        const SamplingProfiler::Stats& stats,
                        const PhaseAttribution& attribution,
                        Symbolizer* symbolizer);

// Just the `phases` JSON array (embedded into BENCH_*.json).
std::string AttributionJsonArray(const PhaseAttribution& attribution);

// Human-readable "worst levels" table, top `max_rows` rows.
std::string AttributionReportText(const PhaseAttribution& attribution,
                                  size_t max_rows = 10);

}  // namespace obs
}  // namespace pbfs

#endif  // PBFS_OBS_PROFILER_PHASE_PROFILE_H_
