// The BFS level loop, shared by every traversal kernel.
//
// The paper's Listings 1-4 define the bodies of one BFS level: the
// top-down and bottom-up traversals. Everything around those bodies is
// the same for every kernel and lives here, once:
//  * the level budget: stop after BfsOptions::max_level levels, and
//    never run past kMaxLevel;
//  * the direction heuristic (see "Level loop" in docs/algorithms.md);
//  * per-worker reduction slots, cache-line padded, which the body's
//    tasks fill with discovered vertices, visits, and scout edges;
//  * TraversalStats bookkeeping: per-task timing and one snapshot per
//    level;
//  * result accounting: a level counts toward `iterations` (and
//    `bottom_up_iterations`) only if it discovered a vertex;
//  * observability: the sampling profiler's BFS phase tag and one
//    "<kernel>.level" span per level inside one "<kernel>.run" span.
//
// A kernel constructs a driver at the top of its Run, seeds its own
// state, and passes its level body as a callable:
//
//   LevelDriver driver(graph, options, executor->num_workers(), kSpans);
//   driver.RunArg("source", source);
//   ... seed seen/frontier ...
//   BfsResult result{.vertices_visited = 1};
//   driver.Run(/*frontier_vertices=*/1, graph.Degree(source), &result,
//              [&](Direction direction, Level depth) { ... });
//
// Every task of the body brackets its work with BeginTask/EndTask:
//
//   LevelTask local = driver.BeginTask(worker);
//   ... ++local.neighbors_visited; ++local.discovered; ...
//   driver.EndTask(local);
//
// The body is a template parameter and the task helpers are inline, so
// a level costs no indirect call beyond what the kernel already makes.
#ifndef PBFS_BFS_LEVEL_DRIVER_H_
#define PBFS_BFS_LEVEL_DRIVER_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "bfs/common.h"
#include "graph/graph.h"
#include "obs/perf_counters.h"
#include "obs/profiler/phase_tag.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace pbfs {

// Span names of one kernel; both must have process lifetime.
struct LevelSpanNames {
  const char* run;    // e.g. "ms-pbfs.run"
  const char* level;  // e.g. "ms-pbfs.level"; also the profiler phase tag
};

// Work counters of one task (or one sequential level).
struct LevelTask {
  uint64_t neighbors_visited = 0;
  uint64_t discovered = 0;   // vertices gaining a BFS this level
  uint64_t visits = 0;       // (vertex, BFS) pairs; multi-source only
  uint64_t scout_edges = 0;  // degree sum of the discovered vertices
  int worker = 0;
  int64_t start_ns = 0;
};

// Per-level trace emission: the phase tag every level publishes for
// the sampling profiler (two relaxed stores, with or without a trace
// session), and, while a session is active, one "<kernel>.level" span
// per level with the arguments
//   level          1-based BFS depth of the level
//   bottom_up      1 for a bottom-up level, 0 for top-down
//   frontier       distinct vertices in the frontier entering the level
//   edges_scanned  neighbor probes performed this level
//   states_updated vertices newly discovered this level
// plus hardware-counter deltas of the coordinating thread. The obs
// invariant tests check these against the sequential oracle.
class LevelTrace {
 public:
  explicit LevelTrace(LevelSpanNames names)
      : names_(names),
        tracing_(obs::Tracer::Get().enabled()),
        run_span_(names.run) {}

  bool tracing() const { return tracing_; }

  void RunArg(const char* name, uint64_t value) {
    run_span_.AddArg(name, value);
  }

  void BeginLevel(Level depth, Direction direction) {
    obs::SetCurrentBfsPhase(names_.level, depth,
                            direction == Direction::kBottomUp);
    if (tracing_) {
      start_ns_ = NowNanos();
      perf_begin_ = obs::PerfCounters::ReadCurrentThread();
    }
  }

  // `stats` holds the level's snapshot as its last iteration.
  void EndLevel(Level depth, Direction direction, uint64_t frontier,
                const TraversalStats* stats) {
    obs::Tracer& tracer = obs::Tracer::Get();
    if (tracing_ && stats != nullptr && tracer.enabled()) {
      const TraversalStats::Iteration& iter = stats->iterations().back();
      uint64_t edges = 0;
      uint64_t updated = 0;
      for (uint64_t x : iter.neighbors_visited) edges += x;
      for (uint64_t x : iter.states_updated) updated += x;
      obs::TraceEvent event =
          obs::MakeSpan(names_.level, start_ns_, NowNanos());
      event.AddArg("level", depth);
      event.AddArg("bottom_up", direction == Direction::kBottomUp ? 1 : 0);
      event.AddArg("frontier", frontier);
      event.AddArg("edges_scanned", edges);
      event.AddArg("states_updated", updated);
      obs::AddPerfDeltaArgs(event, perf_begin_,
                            obs::PerfCounters::ReadCurrentThread());
      tracer.Record(event);
    }
    obs::ClearCurrentBfsPhase();
  }

 private:
  LevelSpanNames names_;
  bool tracing_;
  obs::ScopedSpan run_span_;
  int64_t start_ns_ = 0;
  obs::PerfSample perf_begin_;
};

class LevelDriver {
 public:
  // `num_workers` sizes the reduction slots and the stats; sequential
  // kernels pass 1 and report each level as one task of worker 0.
  LevelDriver(const Graph& graph, const BfsOptions& options, int num_workers,
              LevelSpanNames names)
      : options_(options),
        num_vertices_(graph.num_vertices()),
        num_directed_edges_(graph.num_directed_edges()),
        trace_(names),
        slots_(num_workers),
        stats_(options.stats) {
    // A trace session needs per-level counters for its spans, so it
    // gets driver-local stats when the caller did not ask for any.
    if (stats_ == nullptr && trace_.tracing()) stats_ = &trace_stats_;
    if (stats_ != nullptr) stats_->Reset(num_workers);
  }

  LevelDriver(const LevelDriver&) = delete;
  LevelDriver& operator=(const LevelDriver&) = delete;

  // Adds an argument to the "<kernel>.run" span.
  void RunArg(const char* name, uint64_t value) { trace_.RunArg(name, value); }

  // Reads the clock only when statistics are collected.
  LevelTask BeginTask(int worker) const {
    LevelTask task;
    task.worker = worker;
    if (stats_ != nullptr) task.start_ns = NowNanos();
    return task;
  }

  // Folds a finished task into its worker's slot (no two concurrent
  // tasks share a worker) and into the statistics.
  void EndTask(const LevelTask& task) {
    Slot& slot = slots_[task.worker];
    slot.discovered += task.discovered;
    slot.visits += task.visits;
    slot.scout_edges += task.scout_edges;
    if (stats_ != nullptr) {
      stats_->Accumulate(task.worker, task.neighbors_visited, task.discovered,
                         NowNanos() - task.start_ns);
    }
  }

  // Runs levels until the frontier is empty or the level budget is
  // spent. `frontier_vertices` and `scout_edges` describe the seeded
  // frontier: its distinct vertices and their degree sum. `level` is
  // invoked as level(Direction, Level depth) and must run the whole
  // level, leaving the discovered vertices as the next frontier.
  // `result` arrives seeded with the sources' visits and accumulates
  // the rest (vertices_visited from discovered vertices, total_visits
  // from visits).
  template <typename Result, typename LevelFn>
  void Run(uint64_t frontier_vertices, uint64_t scout_edges, Result* result,
           LevelFn&& level) {
    static_assert(std::is_same_v<Result, BfsResult> ||
                  std::is_same_v<Result, MsBfsResult>);
    uint64_t edges_to_check = num_directed_edges_;
    bool bottom_up = false;
    Level depth = 0;
    while (frontier_vertices > 0) {
      PBFS_CHECK(depth < kMaxLevel);
      if (depth >= options_.max_level) break;  // bounded traversal
      ++depth;

      // Direction heuristic (Beamer et al.): go bottom-up once the
      // frontier's outgoing edges exceed the unexplored edge budget
      // divided by alpha; return to top-down once the frontier holds
      // fewer than n / beta vertices.
      if (options_.enable_bottom_up) {
        if (!bottom_up && static_cast<double>(scout_edges) >
                              static_cast<double>(edges_to_check) /
                                  options_.alpha) {
          bottom_up = true;
        } else if (bottom_up &&
                   static_cast<double>(frontier_vertices) <
                       static_cast<double>(num_vertices_) / options_.beta) {
          bottom_up = false;
        }
      }
      edges_to_check -= std::min<uint64_t>(edges_to_check, scout_edges);
      const Direction direction =
          bottom_up ? Direction::kBottomUp : Direction::kTopDown;

      for (Slot& slot : slots_) slot = Slot{};
      Timer level_timer;
      trace_.BeginLevel(depth, direction);
      level(direction, depth);

      Slot total;
      for (const Slot& slot : slots_) {
        total.discovered += slot.discovered;
        total.visits += slot.visits;
        total.scout_edges += slot.scout_edges;
      }
      if (stats_ != nullptr) {
        stats_->FinishIteration(direction, level_timer.ElapsedMillis(),
                                total.discovered);
      }
      trace_.EndLevel(depth, direction, frontier_vertices, stats_);

      if constexpr (std::is_same_v<Result, BfsResult>) {
        result->vertices_visited += total.discovered;
      } else {
        result->total_visits += total.visits;
      }
      if (total.discovered > 0) {
        ++result->iterations;
        if (bottom_up) ++result->bottom_up_iterations;
      }
      frontier_vertices = total.discovered;
      scout_edges = total.scout_edges;
    }
  }

 private:
  struct alignas(kCacheLineSize) Slot {
    uint64_t discovered = 0;
    uint64_t visits = 0;
    uint64_t scout_edges = 0;
  };

  const BfsOptions& options_;
  const Vertex num_vertices_;
  const uint64_t num_directed_edges_;
  LevelTrace trace_;
  std::vector<Slot> slots_;
  TraversalStats trace_stats_;
  TraversalStats* stats_;
};

}  // namespace pbfs

#endif  // PBFS_BFS_LEVEL_DRIVER_H_
