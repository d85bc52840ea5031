#include "graph/delta.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "sched/executor.h"
#include "util/check.h"

namespace pbfs {
namespace {

// Effective adjacency of `v` under base + prev overlay.
std::span<const Vertex> EffectiveNeighbors(const Graph& base,
                                           const AdjacencyOverlay* prev,
                                           Vertex v) {
  if (prev != nullptr) {
    const uint32_t s = prev->slot[v];
    if (s != AdjacencyOverlay::kNotPatched) {
      return {prev->targets.data() + prev->offsets[s],
              static_cast<size_t>(prev->offsets[s + 1] - prev->offsets[s])};
    }
  }
  return base.Neighbors(v);
}

bool SameList(std::span<const Vertex> a, std::span<const Vertex> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

// Packs an ordered vertex -> replacement-list map into the frozen
// overlay layout.
std::shared_ptr<const AdjacencyOverlay> FreezeOverlay(
    const Graph& base,
    const std::vector<std::pair<Vertex, std::vector<Vertex>>>& patches) {
  if (patches.empty()) return nullptr;
  auto overlay = std::make_shared<AdjacencyOverlay>();
  overlay->slot.assign(base.num_vertices(), AdjacencyOverlay::kNotPatched);
  overlay->patched.reserve(patches.size());
  overlay->offsets.reserve(patches.size() + 1);
  overlay->offsets.push_back(0);
  for (const auto& [v, list] : patches) {
    overlay->slot[v] = static_cast<uint32_t>(overlay->patched.size());
    overlay->patched.push_back(v);
    overlay->targets.insert(overlay->targets.end(), list.begin(), list.end());
    overlay->offsets.push_back(static_cast<EdgeIndex>(overlay->targets.size()));
    overlay->directed_edge_delta +=
        static_cast<int64_t>(list.size()) -
        static_cast<int64_t>(base.Degree(v));
  }
  PBFS_CHECK(overlay->directed_edge_delta % 2 == 0);
  return overlay;
}

}  // namespace

std::shared_ptr<const AdjacencyOverlay> ApplyUpdatesToOverlay(
    const Graph& base, const AdjacencyOverlay* prev,
    std::span<const EdgeUpdate> updates) {
  PBFS_CHECK(!base.has_overlay());
  const Vertex n = base.num_vertices();

  // Scatter the symmetric half-updates per endpoint; iterating the
  // batch in order keeps each per-vertex list in batch order.
  std::unordered_map<Vertex, std::vector<std::pair<Vertex, bool>>> ops;
  for (const EdgeUpdate& u : updates) {
    PBFS_CHECK(u.u < n && u.v < n);
    if (u.u == u.v) continue;
    ops[u.u].emplace_back(u.v, u.insert);
    ops[u.v].emplace_back(u.u, u.insert);
  }

  // Replay each touched vertex's ops over its effective list. A fresh
  // patch is dropped when it lands back on the base list, but a vertex
  // the previous overlay already patched keeps its (possibly
  // base-equal) patch: the compactor may hold a pin on an *older*
  // snapshot whose folded CSR disagrees with this base for exactly
  // those vertices, and RebaseOverlay can only override what the
  // overlay still mentions. Base-equal patches die at the next
  // compaction swap instead.
  std::vector<std::pair<Vertex, std::vector<Vertex>>> patches;
  for (auto& [v, vops] : ops) {
    std::span<const Vertex> effective = EffectiveNeighbors(base, prev, v);
    std::vector<Vertex> list(effective.begin(), effective.end());
    for (const auto& [t, insert] : vops) {
      auto it = std::lower_bound(list.begin(), list.end(), t);
      const bool present = it != list.end() && *it == t;
      if (insert && !present) {
        list.insert(it, t);
      } else if (!insert && present) {
        list.erase(it);
      }
    }
    const bool was_patched =
        prev != nullptr && prev->slot[v] != AdjacencyOverlay::kNotPatched;
    if (was_patched || !SameList(list, base.Neighbors(v))) {
      patches.emplace_back(v, std::move(list));
    }
  }

  // Untouched patches from the previous overlay carry forward verbatim.
  if (prev != nullptr) {
    for (size_t i = 0; i < prev->patched.size(); ++i) {
      const Vertex v = prev->patched[i];
      if (ops.find(v) != ops.end()) continue;
      const Vertex* begin = prev->targets.data() + prev->offsets[i];
      const Vertex* end = prev->targets.data() + prev->offsets[i + 1];
      patches.emplace_back(v, std::vector<Vertex>(begin, end));
    }
  }

  std::sort(patches.begin(), patches.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return FreezeOverlay(base, patches);
}

std::shared_ptr<const AdjacencyOverlay> RebaseOverlay(
    const Graph& fresh_base, const AdjacencyOverlay* prev) {
  if (prev == nullptr) return nullptr;
  PBFS_CHECK(!fresh_base.has_overlay());
  std::vector<std::pair<Vertex, std::vector<Vertex>>> patches;
  for (size_t i = 0; i < prev->patched.size(); ++i) {
    const Vertex v = prev->patched[i];
    const Vertex* begin = prev->targets.data() + prev->offsets[i];
    const Vertex* end = prev->targets.data() + prev->offsets[i + 1];
    std::span<const Vertex> list(begin, end);
    if (SameList(list, fresh_base.Neighbors(v))) continue;
    patches.emplace_back(v, std::vector<Vertex>(begin, end));
  }
  return FreezeOverlay(fresh_base, patches);
}

std::vector<Edge> MaterializeEdges(const Graph& view, Executor* executor) {
  const Vertex n = view.num_vertices();
  // Each undirected edge is emitted once by its lower endpoint, so the
  // per-vertex counting pass is embarrassingly parallel.
  std::vector<uint64_t> count(n, 0);
  auto count_body = [&](int, uint64_t begin, uint64_t end) {
    for (uint64_t v = begin; v < end; ++v) {
      uint64_t c = 0;
      for (Vertex t : view.Neighbors(static_cast<Vertex>(v))) {
        c += t > v ? 1 : 0;
      }
      count[v] = c;
    }
  };
  std::vector<uint64_t> offset(n + 1, 0);
  std::vector<Edge> edges;
  auto fill_body = [&](int, uint64_t begin, uint64_t end) {
    for (uint64_t v = begin; v < end; ++v) {
      uint64_t out = offset[v];
      for (Vertex t : view.Neighbors(static_cast<Vertex>(v))) {
        if (t > v) edges[out++] = Edge{static_cast<Vertex>(v), t};
      }
    }
  };
  constexpr uint32_t kSplit = 4096;
  if (executor != nullptr) {
    executor->ParallelFor(n, kSplit, count_body);
  } else {
    count_body(0, 0, n);
  }
  for (Vertex v = 0; v < n; ++v) offset[v + 1] = offset[v] + count[v];
  edges.resize(offset[n]);
  if (executor != nullptr) {
    executor->ParallelFor(n, kSplit, fill_body);
  } else {
    fill_body(0, 0, n);
  }
  return edges;
}

}  // namespace pbfs
