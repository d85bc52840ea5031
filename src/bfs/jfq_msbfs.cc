// Joint-frontier-queue multi-source BFS (see MakeJfqMsBfs in
// multi_source.h): iBFS-style sparse traversal with bitset-encoded BFS
// membership.

#include <algorithm>
#include <vector>

#include "bfs/level_driver.h"
#include "bfs/multi_source.h"
#include "util/aligned_buffer.h"
#include "util/bitset.h"
#include "util/check.h"

namespace pbfs {
namespace {

template <int kBits>
class JfqMsBfs final : public MultiSourceBfsBase {
 public:
  explicit JfqMsBfs(const Graph& graph)
      : graph_(graph),
        seen_(graph.num_vertices()),
        frontier_(graph.num_vertices()),
        next_(graph.num_vertices()),
        in_next_queue_(graph.num_vertices()) {
    queue_.reserve(graph.num_vertices());
    next_queue_.reserve(graph.num_vertices());
  }

  int width() const override { return kBits; }

  uint64_t StateBytes() const override {
    return seen_.size_bytes() + frontier_.size_bytes() + next_.size_bytes() +
           in_next_queue_.size_bytes() +
           2ull * graph_.num_vertices() * sizeof(Vertex);  // the queues
  }

  MsBfsResult Run(std::span<const Vertex> sources, const BfsOptions& options,
                  Level* levels) override {
    const Vertex n = graph_.num_vertices();
    const int k = static_cast<int>(sources.size());
    PBFS_CHECK(k > 0 && k <= kBits);
    // Purely top-down: the driver sees bottom-up disabled.
    BfsOptions top_down = options;
    top_down.enable_bottom_up = false;
    LevelDriver driver(graph_, top_down, 1,
                       {"jfq-ms-bfs.run", "jfq-ms-bfs.level"});
    driver.RunArg("width", kBits);
    driver.RunArg("sources", k);

    seen_.FillZero();
    frontier_.FillZero();
    next_.FillZero();
    in_next_queue_.FillZero();
    queue_.clear();
    next_queue_.clear();
    if (levels != nullptr) {
      std::fill(levels, levels + static_cast<size_t>(k) * n, kLevelUnreached);
    }

    for (int i = 0; i < k; ++i) {
      PBFS_CHECK(sources[i] < n);
      if (frontier_[sources[i]].None()) queue_.push_back(sources[i]);
      seen_[sources[i]].Set(i);
      frontier_[sources[i]].Set(i);
      if (levels != nullptr) levels[static_cast<size_t>(i) * n + sources[i]] = 0;
    }

    MsBfsResult result{.total_visits = static_cast<uint64_t>(k)};
    // Scout edges only steer the bottom-up switch, which is disabled.
    driver.Run(queue_.size(), 0, &result, [&](Direction, Level depth) {
      LevelTask local = driver.BeginTask(0);
      for (Vertex v : queue_) {
        const Bitset<kBits> f = frontier_[v];
        local.neighbors_visited += graph_.Degree(v);
        for (Vertex nb : graph_.Neighbors(v)) {
          Bitset<kBits> fresh = f & ~seen_[nb];
          if (fresh.None()) continue;
          seen_[nb] |= fresh;
          next_[nb] |= fresh;
          local.visits += fresh.Count();
          if (!in_next_queue_[nb]) {
            in_next_queue_[nb] = 1;
            next_queue_.push_back(nb);
            ++local.discovered;
          }
          if (levels != nullptr) {
            fresh.ForEachSetBit([&](int bfs) {
              levels[static_cast<size_t>(bfs) * n + nb] = depth;
            });
          }
        }
        frontier_[v].Clear();
      }

      std::swap(frontier_, next_);
      queue_.swap(next_queue_);
      next_queue_.clear();
      for (Vertex v : queue_) in_next_queue_[v] = 0;
      driver.EndTask(local);
    });
    return result;
  }

 private:
  const Graph& graph_;
  AlignedBuffer<Bitset<kBits>> seen_;
  AlignedBuffer<Bitset<kBits>> frontier_;
  AlignedBuffer<Bitset<kBits>> next_;
  AlignedBuffer<uint8_t> in_next_queue_;
  std::vector<Vertex> queue_;
  std::vector<Vertex> next_queue_;
};

}  // namespace

std::unique_ptr<MultiSourceBfsBase> MakeJfqMsBfs(const Graph& graph,
                                                 int width) {
  switch (width) {
    case 64:
      return std::make_unique<JfqMsBfs<64>>(graph);
    case 128:
      return std::make_unique<JfqMsBfs<128>>(graph);
    case 256:
      return std::make_unique<JfqMsBfs<256>>(graph);
    case 512:
      return std::make_unique<JfqMsBfs<512>>(graph);
    case 1024:
      return std::make_unique<JfqMsBfs<1024>>(graph);
    default:
      PBFS_CHECK(false && "unsupported bitset width");
  }
  return nullptr;
}

}  // namespace pbfs
