// Shared helpers for the pbfs test suite.
#ifndef PBFS_TESTS_TEST_UTIL_H_
#define PBFS_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bfs/common.h"
#include "bfs/sequential.h"
#include "graph/graph.h"

namespace pbfs {
namespace testing_util {

// Reference distances from `source` computed by the textbook BFS.
inline std::vector<Level> ReferenceLevels(const Graph& graph, Vertex source) {
  std::vector<Level> levels(graph.num_vertices());
  SequentialBfs(graph, source, levels.data());
  return levels;
}

// Number of vertices reachable from `source` (including itself).
inline uint64_t ReachableCount(const Graph& graph, Vertex source) {
  uint64_t count = 0;
  for (Level l : ReferenceLevels(graph, source)) {
    if (l != kLevelUnreached) ++count;
  }
  return count;
}

// First index where two level arrays differ, or -1.
inline int64_t FirstLevelMismatch(const std::vector<Level>& a,
                                  const std::vector<Level>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) return static_cast<int64_t>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<int64_t>(a.size());
}

// Cumulative neighborhood sizes read off one level row: result[h] =
// number of vertices with 0 < level <= h, for h in [0, max_hops]. The
// oracle for k-hop answers, which the library counts in a result sink.
inline std::vector<uint64_t> KHopSizesFromLevels(std::span<const Level> levels,
                                                 Level max_hops) {
  std::vector<uint64_t> sizes(static_cast<size_t>(max_hops) + 1, 0);
  for (const Level l : levels) {
    if (l == kLevelUnreached || l == 0 || l > max_hops) continue;
    ++sizes[l];
  }
  for (Level h = 1; h <= max_hops; ++h) sizes[h] += sizes[h - 1];
  return sizes;
}

}  // namespace testing_util
}  // namespace pbfs

#endif  // PBFS_TESTS_TEST_UTIL_H_
