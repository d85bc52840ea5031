// MS-PBFS — the paper's parallel multi-source BFS (Section 3.1).
//
// Both top-down phases and the bottom-up loop are vertex-parallel on an
// Executor. Synchronization analysis from the paper:
//  * Top-down phase 1 is the only loop with write-write conflicts
//    (multiple workers OR different frontiers into the same neighbor's
//    `next` bitset); resolved with per-word atomic ORs that skip words
//    that would not change, avoiding cache-line invalidations.
//  * Top-down phase 2 and bottom-up have a bijective mapping between
//    vertices and updated entries, so within the disjoint task ranges no
//    synchronization is needed; the ParallelFor barrier separates phases.
//
// MS-PBFS-specific optimizations over the MS-BFS baseline:
//  * frontier entries are cleared inside the traversal loop, so the
//    frontier buffer is handed over as the next iteration's `next`
//    without a separate clearing pass (top-down);
//  * the bottom-up neighbor scan stops once every concurrent BFS has
//    accounted for the vertex;
//  * state is first-touch initialized with stealing disabled so pages
//    live on the NUMA node of the owning worker (Section 4.4).

#include <algorithm>
#include <cstring>

#include "bfs/level_driver.h"
#include "bfs/multi_source.h"
#include "sched/numa_layout.h"
#include "util/aligned_buffer.h"
#include "util/bitset.h"
#include "util/check.h"

namespace pbfs {
namespace {

template <int kBits>
class MsPbfs final : public MultiSourceBfsBase {
 public:
  MsPbfs(const Graph& graph, Executor* executor)
      : graph_(graph), executor_(executor) {
    const Vertex n = graph.num_vertices();
    seen_.Reset(n);
    frontier_.Reset(n);
    next_.Reset(n);
    // First touch with stealing disabled: pages of all three state
    // arrays are placed on the NUMA node of the worker that owns the
    // corresponding task range (Section 4.4). Uses the same split size
    // as the traversal loops below.
    split_size_ = PageAlignedSplitSize(kDesiredSplitSize, sizeof(Bitset<kBits>));
    executor_->FirstTouchFor(n, split_size_, [this](int, uint64_t b,
                                                    uint64_t e) {
      std::memset(seen_.data() + b, 0, (e - b) * sizeof(Bitset<kBits>));
      std::memset(frontier_.data() + b, 0, (e - b) * sizeof(Bitset<kBits>));
      std::memset(next_.data() + b, 0, (e - b) * sizeof(Bitset<kBits>));
    });
  }

  int width() const override { return kBits; }

  uint64_t StateBytes() const override {
    return seen_.size_bytes() + frontier_.size_bytes() + next_.size_bytes();
  }

  MsBfsResult Run(std::span<const Vertex> sources, const BfsOptions& options,
                  Level* levels) override {
    const Vertex n = graph_.num_vertices();
    const int k = static_cast<int>(sources.size());
    PBFS_CHECK(k > 0 && k <= kBits);
    const uint32_t split =
        PageAlignedSplitSize(options.split_size, sizeof(Bitset<kBits>));
    LevelDriver driver(graph_, options, executor_->num_workers(),
                       {"ms-pbfs.run", "ms-pbfs.level"});
    driver.RunArg("width", kBits);
    driver.RunArg("sources", k);

    // State may be dirty from a previous batch; clear in parallel with
    // owner-only tasks to keep page placement intact.
    executor_->FirstTouchFor(n, split, [this](int, uint64_t b, uint64_t e) {
      std::memset(seen_.data() + b, 0, (e - b) * sizeof(Bitset<kBits>));
      std::memset(frontier_.data() + b, 0, (e - b) * sizeof(Bitset<kBits>));
      std::memset(next_.data() + b, 0, (e - b) * sizeof(Bitset<kBits>));
    });
    if (levels != nullptr) {
      std::fill(levels, levels + static_cast<size_t>(k) * n, kLevelUnreached);
    }

    uint64_t frontier_vertices = 0;
    uint64_t scout_edges = 0;
    for (int i = 0; i < k; ++i) {
      PBFS_CHECK(sources[i] < n);
      if (frontier_[sources[i]].None()) ++frontier_vertices;
      seen_[sources[i]].Set(i);
      frontier_[sources[i]].Set(i);
      scout_edges += graph_.Degree(sources[i]);
      if (levels != nullptr) levels[static_cast<size_t>(i) * n + sources[i]] = 0;
    }

    const Bitset<kBits> active = Bitset<kBits>::LowBits(k);
    MsBfsResult result{.total_visits = static_cast<uint64_t>(k)};
    driver.Run(frontier_vertices, scout_edges, &result,
               [&](Direction direction, Level depth) {
                 if (direction == Direction::kTopDown) {
                   RunTopDown(driver, n, split, depth, levels);
                 } else {
                   RunBottomUp(driver, n, split, depth, levels, active);
                 }
               });
    return result;
  }

 private:
  static constexpr uint32_t kDesiredSplitSize = 1024;

  void RunTopDown(LevelDriver& driver, Vertex n, uint32_t split, Level depth,
                  Level* levels) {
    // Phase 1: aggregate reachability. `frontier` and the graph are
    // read-only except for the owner's in-loop clear of frontier[v]
    // (only the task owner ever reads frontier[v] in top-down, so the
    // clear needs no synchronization and saves the separate clearing
    // pass). Writes to next[nb] race across workers -> atomic OR.
    executor_->ParallelFor(n, split, [&](int w, uint64_t b, uint64_t e) {
      LevelTask local = driver.BeginTask(w);
      for (uint64_t v = b; v < e; ++v) {
        if (frontier_[v].None()) continue;
        const Bitset<kBits> f = frontier_[v];
        for (Vertex nb : graph_.Neighbors(v)) {
          next_[nb].AtomicOr(f);
          ++local.neighbors_visited;
        }
        frontier_[v].Clear();
      }
      driver.EndTask(local);
    });

    // Phase 2: identify newly discovered vertices. Bijective
    // vertex-to-entry mapping -> no synchronization. Also normalizes
    // next[v] (stale bits from an earlier iteration are subsets of seen
    // and get stripped / overwritten here).
    executor_->ParallelFor(n, split, [&](int w, uint64_t b, uint64_t e) {
      LevelTask local = driver.BeginTask(w);
      for (uint64_t v = b; v < e; ++v) {
        if (next_[v].None()) continue;
        const Bitset<kBits> nf = next_[v] & ~seen_[v];
        if (nf != next_[v]) next_[v] = nf;  // write only on change
        if (nf.None()) continue;
        seen_[v] |= nf;
        Visit(static_cast<Vertex>(v), nf, depth, levels);
        ++local.discovered;
        local.visits += nf.Count();
        local.scout_edges += graph_.Degree(static_cast<Vertex>(v));
      }
      driver.EndTask(local);
    });

    // The frontier buffer was cleared in phase 1; reuse it as next.
    std::swap(frontier_, next_);
  }

  void RunBottomUp(LevelDriver& driver, Vertex n, uint32_t split, Level depth,
                   Level* levels, const Bitset<kBits>& active) {
    executor_->ParallelFor(n, split, [&](int w, uint64_t b, uint64_t e) {
      LevelTask local = driver.BeginTask(w);
      for (uint64_t u = b; u < e; ++u) {
        if (seen_[u] == active) {
          // Fully discovered; next[u] may hold stale bits from an older
          // frontier, which must not leak into the next frontier.
          if (next_[u].Any()) next_[u].Clear();
          continue;
        }
        Bitset<kBits> acc = next_[u];
        const std::span<const Vertex> neighbors = graph_.Neighbors(u);
        const size_t deg = neighbors.size();
        // Early exit: stop scanning once every active BFS has either
        // seen u or will discover it now. The check runs once per
        // 4-neighbor chunk rather than per neighbor: the frontier
        // gathers are independent loads the core can overlap, and
        // checking per neighbor would chain them behind a branch.
        // Over-scanning a chunk is harmless — every gathered frontier
        // bit belongs to this level, so any superset of the minimal
        // scan produces the same `nf`.
        const Bitset<kBits> done = active & ~seen_[u];
        size_t j = 0;
        for (; j + 4 <= deg; j += 4) {
          acc |= frontier_[neighbors[j]] | frontier_[neighbors[j + 1]] |
                 frontier_[neighbors[j + 2]] | frontier_[neighbors[j + 3]];
          if ((acc & done) == done) {
            j += 4;
            break;
          }
        }
        if ((acc & done) != done) {
          for (; j < deg; ++j) acc |= frontier_[neighbors[j]];
        }
        local.neighbors_visited += j;
        const Bitset<kBits> nf = acc & ~seen_[u];
        next_[u] = nf;
        if (nf.None()) continue;
        seen_[u] |= nf;
        Visit(static_cast<Vertex>(u), nf, depth, levels);
        ++local.discovered;
        local.visits += nf.Count();
        local.scout_edges += graph_.Degree(static_cast<Vertex>(u));
      }
      driver.EndTask(local);
    });

    // Bottom-up reads frontier[*] for arbitrary neighbors, so it cannot
    // be cleared in-loop; clear it now so the buffer can serve as next.
    executor_->ParallelFor(n, split, [&](int, uint64_t b, uint64_t e) {
      for (uint64_t v = b; v < e; ++v) {
        if (frontier_[v].Any()) frontier_[v].Clear();
      }
    });
    std::swap(frontier_, next_);
  }

  void Visit(Vertex v, const Bitset<kBits>& bfs_bits, Level depth,
             Level* levels) {
    if (levels == nullptr) return;
    const size_t n = graph_.num_vertices();
    bfs_bits.ForEachSetBit([&](int bfs) {
      levels[static_cast<size_t>(bfs) * n + v] = depth;
    });
  }

  const Graph& graph_;
  Executor* executor_;
  uint32_t split_size_ = kDesiredSplitSize;
  AlignedBuffer<Bitset<kBits>> seen_;
  AlignedBuffer<Bitset<kBits>> frontier_;
  AlignedBuffer<Bitset<kBits>> next_;
};

}  // namespace

std::unique_ptr<MultiSourceBfsBase> MakeMsPbfs(const Graph& graph, int width,
                                               Executor* executor) {
  switch (width) {
    case 64:
      return std::make_unique<MsPbfs<64>>(graph, executor);
    case 128:
      return std::make_unique<MsPbfs<128>>(graph, executor);
    case 256:
      return std::make_unique<MsPbfs<256>>(graph, executor);
    case 512:
      return std::make_unique<MsPbfs<512>>(graph, executor);
    case 1024:
      return std::make_unique<MsPbfs<1024>>(graph, executor);
    default:
      PBFS_CHECK(false && "unsupported bitset width");
  }
  return nullptr;
}

}  // namespace pbfs
