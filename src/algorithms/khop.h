// k-hop neighborhood enumeration — one of the BFS applications listed
// in the paper's introduction ("neighborhood enumerations"). MS-PBFS
// traverses from up to `width` query vertices in a single pass over the
// graph and counts each query's discoveries per hop in a result sink
// (bfs/result_sink.h), stopping at the radius; no level arrays are
// written.
#ifndef PBFS_ALGORITHMS_KHOP_H_
#define PBFS_ALGORITHMS_KHOP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bfs/common.h"
#include "graph/graph.h"
#include "sched/executor.h"

namespace pbfs {

struct KHopResult {
  // size[q][h] = number of vertices within h hops of query q (excluding
  // the query vertex itself), for h in [0, max_hops].
  std::vector<std::vector<uint64_t>> size;
};

// Computes cumulative neighborhood sizes up to `max_hops` for each
// query vertex. Queries are processed in MS-PBFS batches of `width`.
KHopResult KHopNeighborhoods(const Graph& graph,
                             std::span<const Vertex> queries, Level max_hops,
                             Executor* executor, int width = 64);

}  // namespace pbfs

#endif  // PBFS_ALGORITHMS_KHOP_H_
