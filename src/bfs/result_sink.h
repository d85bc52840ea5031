// Result sinks: where a traversal delivers what it finds.
//
// Every traversal kernel the query engine runs is a template over a sink
// type with two members: the multi-source kernels (MS-BFS, JFQ-MS-BFS,
// MS-PBFS) and the single-source ones (SMS-PBFS bit and byte,
// queue-PBFS).
//
//   template <int W>
//   void Visit(int worker, Vertex v, const Bitset<W>& bits, Level depth);
//     Reports that the BFSs in `bits` (bit i = the batch's i-th source)
//     reach `v` at `depth`; the sources are reported at depth 0. Every
//     (vertex, BFS) pair is reported exactly once. `worker` is the
//     executor worker running the call; concurrent calls never share a
//     vertex. A single-source kernel is a batch of one: it reports
//     kSingleSourceBit, bit 0 of a width-64 set, the paper's derivation
//     of SMS-PBFS from MS-PBFS (Section 3.2) read backwards.
//   bool Done(Level depth);
//     Polled by LevelDriver on the coordinating thread after level
//     `depth` finished (depth 0 = the seeded sources) and before the
//     next one starts. True ends the traversal.
//
// The sink is a template parameter, so each kernel compiles one loop per
// sink and a sink's unused work costs nothing:
//  * NullSink discards everything (benches that time the traversal);
//  * FullLevelsSink writes one |V|-entry level row per source, the shape
//    of the kernels' Run(..., Level*), the registry and the tests;
//  * BatchSink holds the query engine's per-slot answers: target
//    distances, k-hop counts, and level rows only for the slots that
//    want a whole row. Its Done() ends the batch once every answer is
//    known, so point queries neither write |V|-entry rows nor traverse
//    the component's tail levels, whether they share a batch or run
//    alone.
#ifndef PBFS_BFS_RESULT_SINK_H_
#define PBFS_BFS_RESULT_SINK_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "bfs/common.h"
#include "graph/types.h"
#include "util/bitset.h"
#include "util/check.h"

namespace pbfs {

// The bits a single-source kernel reports with every Visit.
inline constexpr Bitset<64> kSingleSourceBit{{1}};

class NullSink {
 public:
  template <int W>
  void Visit(int, Vertex, const Bitset<W>&, Level) const {}
  static constexpr bool Done(Level) { return false; }
};

// levels[slot * n + v] = depth; every other entry kLevelUnreached.
class FullLevelsSink {
 public:
  FullLevelsSink(Level* levels, size_t slots, Vertex n)
      : levels_(levels), n_(n) {
    std::fill(levels, levels + slots * n, kLevelUnreached);
  }

  template <int W>
  void Visit(int, Vertex v, const Bitset<W>& bits, Level depth) const {
    bits.ForEachSetBit([&](int slot) {
      levels_[static_cast<size_t>(slot) * n_ + v] = depth;
    });
  }

  static constexpr bool Done(Level) { return false; }

 private:
  Level* levels_;
  size_t n_;
};

// Runs `run(sink)` with the sink a Level* entry point asks for: a
// FullLevelsSink over `levels` (`slots` rows of `n`), or a NullSink
// when `levels` is null.
template <typename RunFn>
auto RunWithLevels(Level* levels, size_t slots, Vertex n, RunFn&& run) {
  if (levels == nullptr) {
    NullSink sink;
    return run(sink);
  }
  FullLevelsSink sink(levels, slots, n);
  return run(sink);
}

// The query engine's sink for one batch. Each slot (bit position, i.e.
// the query at that index of the batch) asks for any mix of
//  * the distances of listed targets (AddTarget), kept in a table of
//    (target, slot) entries behind an n-byte target mask, and targets
//    the caller already knows unreachable (AddUnreachableTarget);
//  * per-depth discovery counts up to a radius (AddKHop), counted per
//    worker so no two threads write one counter;
//  * a whole level row (AddRow), written only for such slots.
// Done() is true once every target is resolved, the depth covers the
// largest k-hop radius, and no slot wants a row.
//
// Lifecycle: Reset, then Add* for each slot, then Seal, then one kernel
// run; the answers stay readable until the next Reset. The sink keeps
// its buffers across batches.
class BatchSink final {
 public:
  static constexpr int kMaxSlots = 1024;

  // Forgets the previous batch. `n` sizes the target mask; `num_workers`
  // bounds the worker ids Visit may see.
  void Reset(Vertex n, int num_workers);
  void AddTarget(int slot, Vertex target);
  // A target the caller knows slot's source cannot reach: answered
  // kLevelUnreached without holding the batch open for it.
  void AddUnreachableTarget(int slot, Vertex target);
  void AddKHop(int slot, Level radius);
  // `row` must hold n entries; it is filled with kLevelUnreached here.
  void AddRow(int slot, Level* row);
  // Ends configuration; call once before the run.
  void Seal();

  // Forced inline: GCC otherwise emits Visit out of line, and the call
  // per discovery made a lone SMS-PBFS run to one target on the
  // perfbench point_static graph (4 workers) about 0.15 ms (7%) slower.
  template <int W>
  [[gnu::always_inline]] void Visit(int worker, Vertex v,
                                    const Bitset<W>& bits, Level depth) {
    static_assert(W <= kMaxSlots);
    constexpr int kWords = W / 64;
    if (target_mask_[v] != 0) ResolveTargets(v, bits.word, kWords, depth);
    if (khop_active_) {
      uint32_t* counts = khop_counts_[worker].data() +
                         static_cast<size_t>(depth - 1) * slots_;
      ForEachMaskedBit(bits.word, khop_mask_, kWords,
                       [&](int slot) { ++counts[slot]; });
    }
    if (has_rows_) {
      ForEachMaskedBit(bits.word, row_mask_, kWords,
                       [&](int slot) { rows_[slot][v] = depth; });
    }
  }

  bool Done(Level depth);

  // Distance from slot's source to `target` (kLevelUnreached when the
  // traversal never reached it or it was added as unreachable);
  // `target` must have been added for `slot`.
  Level TargetLevel(int slot, Vertex target) const;
  // Cumulative neighborhood sizes for hops 0..max_hops (entry h = the
  // vertices within h hops, excluding the source), for a slot added
  // with AddKHop.
  std::vector<uint64_t> KHopSizes(int slot, Level max_hops) const;

 private:
  static constexpr int kMaskWords = kMaxSlots / 64;

  struct Target {
    Vertex vertex;
    int slot;
    Level level;
    bool awaited;  // false for AddUnreachableTarget entries
  };

  template <typename Fn>
  static void ForEachMaskedBit(const uint64_t* bits, const uint64_t* mask,
                               int words, Fn&& fn) {
    for (int i = 0; i < words; ++i) {
      uint64_t w = bits[i] & mask[i];
      while (w != 0) {
        fn(i * 64 + std::countr_zero(w));
        w &= w - 1;
      }
    }
  }

  void ResolveTargets(Vertex v, const uint64_t* bits, int words, Level depth);

  Vertex n_ = 0;
  int slots_ = 0;  // 1 + the largest configured slot

  std::vector<uint8_t> target_mask_;  // n bytes; 1 = some slot's target
  std::vector<Target> targets_;       // sorted by (vertex, slot) once sealed
  std::vector<uint32_t> unresolved_;  // awaited indices into targets_

  std::vector<std::pair<int, Level>> khops_;  // (slot, radius)
  Level khop_depth_ = 0;  // largest radius
  // Slots counting at the level about to run; set by Done().
  uint64_t khop_mask_[kMaskWords] = {};
  bool khop_active_ = false;
  int khop_levels_ = 0;  // depth rows allocated in khop_counts_
  // Per worker: counts[(depth - 1) * slots_ + slot].
  std::vector<std::vector<uint32_t>> khop_counts_;

  uint64_t row_mask_[kMaskWords] = {};
  bool has_rows_ = false;
  std::vector<Level*> rows_;  // by slot; null for slots without a row
};

}  // namespace pbfs

#endif  // PBFS_BFS_RESULT_SINK_H_
