// Uniform enumeration of every BFS implementation in the library.
//
// The differential test harness (tests/differential/) and tools want to
// run "all variants" over a graph and diff their level output against
// the sequential oracle without knowing each variant's construction
// quirks (single- vs multi-source interface, bitset width, executor
// requirement). A BfsVariantRunner adapts one implementation to a
// single shape — compute full level arrays for an arbitrary list of
// sources — batching multi-source variants internally when the source
// count exceeds their bitset width.
#ifndef PBFS_BFS_REGISTRY_H_
#define PBFS_BFS_REGISTRY_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bfs/common.h"
#include "graph/graph.h"
#include "sched/executor.h"

namespace pbfs {

struct BfsVariantDesc {
  std::string name;
  // Runs its vertex loops on the bound Executor (parallel under a
  // WorkerPool, inline under a SerialExecutor).
  bool parallel = false;
  // Processes sources in batches of `width` concurrent traversals;
  // single-source variants have width 1.
  bool multi_source = false;
  int width = 1;
};

// One BFS implementation bound to a graph (and executor, when parallel).
// Instances own their BFS state and may be reused across calls.
class BfsVariantRunner {
 public:
  virtual ~BfsVariantRunner() = default;

  virtual const BfsVariantDesc& desc() const = 0;

  // Computes levels[i * num_vertices + v] = distance of v from
  // sources[i] (kLevelUnreached when unreachable) for every source.
  // `levels` must hold sources.size() * num_vertices entries. Any
  // number of sources is accepted — multi-source variants run
  // ceil(sources.size() / width) batches. An empty source list is a
  // no-op.
  virtual void ComputeLevels(std::span<const Vertex> sources,
                             const BfsOptions& options, Level* levels) = 0;
};

// Every registered variant bound to `graph`: the sequential oracle,
// the three Beamer baselines, queue-PBFS, SMS-PBFS (bit and byte),
// MS-BFS, JFQ-MS-BFS, and MS-PBFS. Multi-source variants use
// `ms_width` (must be one of kSupportedWidths). `executor` is used by
// the parallel variants; graph and executor must outlive the runners.
std::vector<std::unique_ptr<BfsVariantRunner>> MakeAllVariantRunners(
    const Graph& graph, Executor* executor, int ms_width = 64);

// The single variant named `name` (one of AllVariantNames) bound to
// `graph`, hiding the same construction quirks as MakeAllVariantRunners.
// Returns nullptr for an unknown name. Used by the query engine and
// tools to select a kernel from a config string.
std::unique_ptr<BfsVariantRunner> FindVariantRunner(const std::string& name,
                                                    const Graph& graph,
                                                    Executor* executor,
                                                    int ms_width = 64);

// Names of all registered variants in registry order (the order
// MakeAllVariantRunners returns them). "sequential" is first: it is the
// oracle the others are diffed against.
std::vector<std::string> AllVariantNames();

}  // namespace pbfs

#endif  // PBFS_BFS_REGISTRY_H_
