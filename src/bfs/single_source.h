// SMS-PBFS — the paper's parallel single-source BFS (Section 3.2).
//
// Derived from MS-PBFS by degenerating the per-vertex bitsets to
// booleans: the compare-and-swap loop of the top-down phase becomes a
// single atomic store, and multi-BFS checks become constants. Two
// state representations are provided (the paper evaluates both):
//
// * kByte — one byte per vertex in `seen` / `frontier` / `next`. A
//   cache line holds the state of 64 vertices, trading cache efficiency
//   for fewer false-sharing conflicts between workers.
// * kBit  — one bit per vertex (512 vertices per cache line), maximal
//   cache density at the cost of more contended atomic word updates.
//
// Both use the 8-byte chunk-skipping optimization: consecutive ranges of
// inactive vertices are skipped 64 bits at a time without per-vertex
// branches (similar to Yasui et al.'s bitsets-and-summary, but without
// an explicit summary bit).
//
// Like the multi-source kernels, each kernel is a template over its
// result sink (bfs/result_sink.h) and reports every discovery with one
// constant bit: full level rows, nothing, or the query engine's answers
// for a lone query, which end the traversal once they are known.
#ifndef PBFS_BFS_SINGLE_SOURCE_H_
#define PBFS_BFS_SINGLE_SOURCE_H_

#include <memory>

#include "bfs/common.h"
#include "bfs/result_sink.h"
#include "graph/graph.h"
#include "sched/executor.h"

namespace pbfs {

enum class SmsVariant {
  kBit,
  kByte,
  // Queue-based parallel BFS (see MakeQueuePbfs below); not a SMS-PBFS
  // state representation, but shares the interface.
  kQueue,
};

const char* SmsVariantName(SmsVariant variant);

class SingleSourceBfsBase {
 public:
  virtual ~SingleSourceBfsBase() = default;

  // Runs one BFS from `source`. `levels` must hold num_vertices entries
  // or be null.
  virtual BfsResult Run(Vertex source, const BfsOptions& options,
                        Level* levels) = 0;

  // Runs one BFS from `source` into `sink` (configured for slot 0 and
  // sealed by the caller), stopping early once sink.Done() holds. Both
  // entry points run the same kernel template.
  virtual BfsResult Run(Vertex source, const BfsOptions& options,
                        BatchSink& sink) = 0;

  virtual SmsVariant variant() const = 0;

  // Dynamic state bytes (Figure 3 accounting).
  virtual uint64_t StateBytes() const = 0;
};

// Creates an SMS-PBFS instance running on `executor` (not owned). State
// is allocated once and reused across Run() calls. `variant` must be
// kBit or kByte.
std::unique_ptr<SingleSourceBfsBase> MakeSmsPbfs(const Graph& graph,
                                                 SmsVariant variant,
                                                 Executor* executor);

// Queue-based parallel direction-optimizing BFS — the design class the
// paper contrasts array-based BFS against (Sections 2.3 and 6): sparse
// frontier queues with a shared insertion point. The implementation
// uses the friendliest version of that design (worker-local buffers
// flushed into a global sliding queue with one atomic tail
// reservation), yet it still centralizes next-frontier construction,
// unlike the fixed-size arrays of (S)MS-PBFS. Implements the same
// interface so benches and tests can swap it in.
std::unique_ptr<SingleSourceBfsBase> MakeQueuePbfs(const Graph& graph,
                                                   Executor* executor);

}  // namespace pbfs

#endif  // PBFS_BFS_SINGLE_SOURCE_H_
