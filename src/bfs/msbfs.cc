// Sequential MS-BFS baseline after Then et al. (VLDB 2015), following
// Listings 1 (two-phase top-down) and 2 (bottom-up) of the paper
// verbatim: no early exit in the bottom-up neighbor scan, and buffers
// are cleared with a separate pass at the end of every iteration.

#include <algorithm>

#include "bfs/level_driver.h"
#include "bfs/multi_source.h"
#include "util/aligned_buffer.h"
#include "util/bitset.h"
#include "util/check.h"

namespace pbfs {
namespace {

template <int kBits>
class MsBfs final : public MultiSourceBfsBase {
 public:
  explicit MsBfs(const Graph& graph)
      : graph_(graph),
        seen_(graph.num_vertices()),
        frontier_(graph.num_vertices()),
        next_(graph.num_vertices()) {}

  int width() const override { return kBits; }

  uint64_t StateBytes() const override {
    return seen_.size_bytes() + frontier_.size_bytes() + next_.size_bytes();
  }

  MsBfsResult Run(std::span<const Vertex> sources, const BfsOptions& options,
                  Level* levels) override {
    return RunWithLevels(levels, sources.size(), graph_.num_vertices(),
                         [&](auto& sink) {
                           return Traverse(sources, options, sink);
                         });
  }

  MsBfsResult Run(std::span<const Vertex> sources, const BfsOptions& options,
                  BatchSink& sink) override {
    return Traverse(sources, options, sink);
  }

 private:
  template <typename Sink>
  MsBfsResult Traverse(std::span<const Vertex> sources,
                       const BfsOptions& options, Sink& sink) {
    const Vertex n = graph_.num_vertices();
    const int k = static_cast<int>(sources.size());
    PBFS_CHECK(k > 0 && k <= kBits);

    LevelDriver driver(graph_, options, 1, {"ms-bfs.run", "ms-bfs.level"});
    driver.RunArg("width", kBits);
    driver.RunArg("sources", k);

    seen_.FillZero();
    frontier_.FillZero();
    next_.FillZero();
    for (int i = 0; i < k; ++i) {
      PBFS_CHECK(sources[i] < n);
      seen_[sources[i]].Set(i);
      frontier_[sources[i]].Set(i);
      Bitset<kBits> bit{};
      bit.Set(i);
      sink.Visit(0, sources[i], bit, 0);
    }

    uint64_t frontier_vertices = 0;  // distinct initial frontier vertices
    uint64_t scout_edges = 0;
    for (int i = 0; i < k; ++i) {
      scout_edges += graph_.Degree(sources[i]);
      bool first = true;
      for (int j = 0; j < i; ++j) {
        if (sources[j] == sources[i]) {
          first = false;
          break;
        }
      }
      if (first) ++frontier_vertices;
    }

    MsBfsResult result{.total_visits = static_cast<uint64_t>(k)};
    driver.Run(frontier_vertices, scout_edges, &result,
               [&](Direction direction, Level depth) {
      LevelTask local = driver.BeginTask(0);
      if (direction == Direction::kTopDown) {
        // Listing 1, first phase: aggregate reachability into next.
        for (Vertex v = 0; v < n; ++v) {
          if (frontier_[v].None()) continue;
          local.neighbors_visited += graph_.Degree(v);
          for (Vertex nb : graph_.Neighbors(v)) {
            next_[nb] |= frontier_[v];
          }
        }
        // Listing 1, second phase: identify the newly discovered.
        for (Vertex v = 0; v < n; ++v) {
          if (next_[v].None()) continue;
          next_[v] &= ~seen_[v];
          seen_[v] |= next_[v];
          if (next_[v].Any()) {
            sink.Visit(0, v, next_[v], depth);
            ++local.discovered;
            local.visits += next_[v].Count();
            local.scout_edges += graph_.Degree(v);
          }
        }
      } else {
        // Listing 2: bottom-up without early exit.
        const Bitset<kBits> all = Bitset<kBits>::LowBits(k);
        for (Vertex u = 0; u < n; ++u) {
          if (seen_[u] == all) continue;
          local.neighbors_visited += graph_.Degree(u);
          for (Vertex v : graph_.Neighbors(u)) {
            next_[u] |= frontier_[v];
          }
          next_[u] &= ~seen_[u];
          seen_[u] |= next_[u];
          if (next_[u].Any()) {
            sink.Visit(0, u, next_[u], depth);
            ++local.discovered;
            local.visits += next_[u].Count();
            local.scout_edges += graph_.Degree(u);
          }
        }
      }

      // Original MS-BFS epilogue: frontier <- next, then clear next with
      // a separate pass (the memory traffic MS-PBFS avoids in top-down).
      std::swap(frontier_, next_);
      next_.FillZero();
      driver.EndTask(local);
    }, [&](Level depth) { return sink.Done(depth); });
    return result;
  }

  const Graph& graph_;
  AlignedBuffer<Bitset<kBits>> seen_;
  AlignedBuffer<Bitset<kBits>> frontier_;
  AlignedBuffer<Bitset<kBits>> next_;
};

}  // namespace

std::unique_ptr<MultiSourceBfsBase> MakeMsBfs(const Graph& graph, int width) {
  switch (width) {
    case 64:
      return std::make_unique<MsBfs<64>>(graph);
    case 128:
      return std::make_unique<MsBfs<128>>(graph);
    case 256:
      return std::make_unique<MsBfs<256>>(graph);
    case 512:
      return std::make_unique<MsBfs<512>>(graph);
    case 1024:
      return std::make_unique<MsBfs<1024>>(graph);
    default:
      PBFS_CHECK(false && "unsupported bitset width");
  }
  return nullptr;
}

}  // namespace pbfs
