#include "algorithms/khop.h"

#include <algorithm>

#include "bfs/multi_source.h"
#include "util/check.h"

namespace pbfs {

KHopResult KHopNeighborhoods(const Graph& graph,
                             std::span<const Vertex> queries, Level max_hops,
                             Executor* executor, int width) {
  PBFS_CHECK(IsSupportedWidth(width));
  const Vertex n = graph.num_vertices();
  KHopResult result;
  result.size.assign(queries.size(),
                     std::vector<uint64_t>(max_hops + 1, 0));
  if (n == 0 || queries.empty()) return result;

  std::unique_ptr<MultiSourceBfsBase> bfs = MakeMsPbfs(graph, width, executor);
  // The sink counts discoveries per slot and depth and ends each batch
  // once the radius is covered, instead of finishing the component.
  BatchSink sink;
  for (size_t base = 0; base < queries.size(); base += width) {
    const size_t k = std::min<size_t>(width, queries.size() - base);
    sink.Reset(n, executor->num_workers());
    for (size_t i = 0; i < k; ++i) {
      sink.AddKHop(static_cast<int>(i), max_hops);
    }
    sink.Seal();
    bfs->Run({queries.data() + base, k}, BfsOptions{}, sink);
    for (size_t i = 0; i < k; ++i) {
      result.size[base + i] = sink.KHopSizes(static_cast<int>(i), max_hops);
    }
  }
  return result;
}

}  // namespace pbfs
