// Sequential direction-optimizing BFS after Beamer et al. — the
// single-source baselines of Figure 10.
//
// Three variants, matching Section 5.2 of the paper:
// * kSparse  — top-down frontier backed by a sparse vertex vector;
//   shares the chunk-skipping bottom-up used by SMS-PBFS (bit). The
//   sparse frontier is converted to a bitmap when switching direction.
// * kDense   — top-down frontier backed by a dense bit array; same
//   bottom-up.
// * kGapbs   — after the GAP Benchmark Suite reference: sparse queue
//   top-down, bitmap bottom-up without chunk skipping.
//
// All three switch direction with the one alpha/beta rule of the
// shared level loop (bfs/level_driver.h). GAPBS's own rule — stay
// bottom-up while the awake count grows, reset the scout count to 1
// after a bottom-up level — is not implemented.
#ifndef PBFS_BFS_BEAMER_H_
#define PBFS_BFS_BEAMER_H_

#include "bfs/common.h"
#include "graph/graph.h"

namespace pbfs {

enum class BeamerVariant { kSparse, kDense, kGapbs };

const char* BeamerVariantName(BeamerVariant variant);

// Runs a direction-optimizing BFS from `source`. `levels` must hold
// graph.num_vertices() entries or be null.
BfsResult BeamerBfs(const Graph& graph, Vertex source, BeamerVariant variant,
                    const BfsOptions& options, Level* levels);

}  // namespace pbfs

#endif  // PBFS_BFS_BEAMER_H_
