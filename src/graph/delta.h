// Mutation side of the dynamic graph substrate: the pure functions that
// freeze an edge-update batch into the immutable AdjacencyOverlay
// patches traversed via Graph::OverlayView (graph/graph.h).
//
// Update semantics match Graph::FromEdges normalization: the graph is a
// set of undirected edges, self loops are dropped, inserting a present
// edge and deleting an absent one are no-ops, and conflicting updates
// resolve last-wins in batch order.
#ifndef PBFS_GRAPH_DELTA_H_
#define PBFS_GRAPH_DELTA_H_

#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace pbfs {

class Executor;

// One requested edge mutation. Endpoints must lie in [0, num_vertices):
// the vertex set is fixed at engine construction, only edges churn.
struct EdgeUpdate {
  Vertex u = 0;
  Vertex v = 0;
  bool insert = true;  // false: delete
};

// Replays `updates`, in order, on top of `base` (an owning CSR, no
// overlay) already patched by `prev` (may be null), returning the frozen
// overlay for the resulting edge set. Returns null when the result is
// exactly the base CSR (every update was a no-op or got reverted).
// Patches that an update sequence returns to their base list — e.g.
// delete-then-reinsert — are dropped when the vertex was not patched in
// `prev`. Previously patched vertices keep their patch even when it
// equals the base list: a compaction pinned before this batch may fold
// the *old* patch into its fresh CSR, and RebaseOverlay can only undo
// that for vertices the overlay still mentions. Such base-equal patches
// are shed at the next compaction swap.
std::shared_ptr<const AdjacencyOverlay> ApplyUpdatesToOverlay(
    const Graph& base, const AdjacencyOverlay* prev,
    std::span<const EdgeUpdate> updates);

// Filters `prev` against a freshly compacted base: keeps only patches
// whose list still differs from `fresh_base`'s. Null when nothing
// survives — the common case, where compaction folded every patch in.
std::shared_ptr<const AdjacencyOverlay> RebaseOverlay(
    const Graph& fresh_base, const AdjacencyOverlay* prev);

// Flattens `view` (base + overlay) back into an undirected edge list
// with u < v per edge — the compactor's input to BuildGraphParallel.
// Runs the scan on `executor` when given, serially when null.
std::vector<Edge> MaterializeEdges(const Graph& view,
                                   Executor* executor = nullptr);

}  // namespace pbfs

#endif  // PBFS_GRAPH_DELTA_H_
