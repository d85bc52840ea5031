// Queue-based parallel direction-optimizing BFS (see MakeQueuePbfs in
// single_source.h).
//
// Top-down iterations parallelize over the sparse frontier queue.
// Discovery claims use an atomic fetch-or on the seen bitmap (the
// returned previous word tells the claiming worker apart), and newly
// discovered vertices are appended to a global "sliding queue": workers
// gather into a local buffer and reserve a slot range with a single
// atomic fetch-add per flush. Bottom-up iterations convert the queue to
// a bitmap, run the dense bottom-up, and convert back.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <vector>

#include "bfs/level_driver.h"
#include "bfs/single_source.h"
#include "util/aligned_buffer.h"
#include "util/bitset.h"
#include "util/check.h"

namespace pbfs {
namespace {

class QueuePbfs final : public SingleSourceBfsBase {
 public:
  QueuePbfs(const Graph& graph, Executor* executor)
      : graph_(graph), executor_(executor) {
    const Vertex n = graph.num_vertices();
    num_words_ = (static_cast<uint64_t>(n) + 63) / 64;
    seen_.Reset(num_words_);
    front_bits_.Reset(num_words_);
    next_bits_.Reset(num_words_);
    frontier_.Reset(n > 0 ? n : 1);
    next_.Reset(n > 0 ? n : 1);
  }

  SmsVariant variant() const override { return SmsVariant::kQueue; }

  uint64_t StateBytes() const override {
    return seen_.size_bytes() + front_bits_.size_bytes() +
           next_bits_.size_bytes() + frontier_.size_bytes() +
           next_.size_bytes();
  }

  BfsResult Run(Vertex source, const BfsOptions& options,
                Level* levels) override {
    return RunWithLevels(levels, 1, graph_.num_vertices(), [&](auto& sink) {
      return Traverse(source, options, sink);
    });
  }

  BfsResult Run(Vertex source, const BfsOptions& options,
                BatchSink& sink) override {
    return Traverse(source, options, sink);
  }

 private:
  template <typename Sink>
  BfsResult Traverse(Vertex source, const BfsOptions& options, Sink& sink) {
    const Vertex n = graph_.num_vertices();
    PBFS_CHECK(source < n);
    LevelDriver driver(graph_, options, executor_->num_workers(),
                       {"queue-pbfs.run", "queue-pbfs.level"});
    driver.RunArg("source", source);

    std::memset(seen_.data(), 0, seen_.size_bytes());
    std::memset(front_bits_.data(), 0, front_bits_.size_bytes());
    std::memset(next_bits_.data(), 0, next_bits_.size_bytes());

    SetSeen(source);
    sink.Visit(0, source, kSingleSourceBit, 0);
    frontier_[0] = source;
    uint64_t frontier_size = 1;
    bool frontier_is_queue = true;

    BfsResult result{.vertices_visited = 1};
    driver.Run(
        1, graph_.Degree(source), &result,
        [&](Direction direction, Level depth) {
          if (direction == Direction::kBottomUp) {
            if (frontier_is_queue) {
              QueueToBitmap(frontier_size);
              frontier_is_queue = false;
            }
            frontier_size = BottomUpStep(driver, n, depth, sink, options);
            std::swap(front_bits_, next_bits_);
            // next_bits_ now holds the old frontier bitmap; clear for
            // reuse.
            std::memset(next_bits_.data(), 0, next_bits_.size_bytes());
          } else {
            if (!frontier_is_queue) {
              frontier_size = BitmapToQueue(frontier_size);
              frontier_is_queue = true;
            }
            frontier_size =
                TopDownStep(driver, frontier_size, depth, sink, options);
            std::swap(frontier_, next_);
          }
        },
        [&](Level depth) { return sink.Done(depth); });
    return result;
  }

  bool TestSeen(Vertex v) {
    // Atomic load: other workers concurrently fetch-OR into these words
    // during the top-down phase.
    std::atomic_ref<uint64_t> word(seen_[v >> 6]);
    return (word.load(std::memory_order_relaxed) >> (v & 63)) & 1;
  }
  void SetSeen(Vertex v) { seen_[v >> 6] |= uint64_t{1} << (v & 63); }

  // Atomically claims `v`; returns true for exactly one claiming worker.
  bool ClaimSeen(Vertex v) {
    std::atomic_ref<uint64_t> word(seen_[v >> 6]);
    const uint64_t bit = uint64_t{1} << (v & 63);
    uint64_t prev = word.fetch_or(bit, std::memory_order_relaxed);
    return (prev & bit) == 0;
  }

  template <typename Sink>
  uint64_t TopDownStep(LevelDriver& driver, uint64_t frontier_size,
                       Level depth, Sink& sink, const BfsOptions& options) {
    std::atomic<uint64_t> tail{0};
    const uint32_t split =
        std::max<uint32_t>(1, std::min<uint64_t>(options.split_size,
                                                 frontier_size / 4 + 1));
    executor_->ParallelFor(frontier_size, split, [&](int w, uint64_t b,
                                                     uint64_t e) {
      LevelTask local = driver.BeginTask(w);
      std::vector<Vertex> buffer;
      buffer.reserve(1024);
      auto flush = [&] {
        if (buffer.empty()) return;
        uint64_t pos = tail.fetch_add(buffer.size(),
                                      std::memory_order_relaxed);
        std::memcpy(next_.data() + pos, buffer.data(),
                    buffer.size() * sizeof(Vertex));
        buffer.clear();
      };
      for (uint64_t i = b; i < e; ++i) {
        Vertex v = frontier_[i];
        for (Vertex nb : graph_.Neighbors(v)) {
          ++local.neighbors_visited;
          if (TestSeen(nb)) continue;  // cheap pre-check before the RMW
          if (ClaimSeen(nb)) {
            sink.Visit(w, nb, kSingleSourceBit, depth);
            buffer.push_back(nb);
            if (buffer.size() == buffer.capacity()) flush();
            ++local.discovered;
            local.scout_edges += graph_.Degree(nb);
          }
        }
      }
      flush();
      driver.EndTask(local);
    });
    return tail.load(std::memory_order_relaxed);
  }

  template <typename Sink>
  uint64_t BottomUpStep(LevelDriver& driver, Vertex n, Level depth,
                        Sink& sink, const BfsOptions& options) {
    std::atomic<uint64_t> awake{0};
    const uint32_t split = std::max<uint32_t>(64, options.split_size) / 64 *
                           64;
    executor_->ParallelFor(n, split, [&](int w, uint64_t b, uint64_t e) {
      LevelTask local = driver.BeginTask(w);
      uint64_t found_total = 0;
      for (uint64_t i = b >> 6; i < (e + 63) >> 6; ++i) {
        uint64_t candidates = ~seen_[i];
        if ((i + 1) * 64 > n) {
          candidates &= (uint64_t{1} << (n & 63)) - 1;
        }
        if (candidates == 0) continue;
        uint64_t found = 0;
        uint64_t bits = candidates;
        while (bits != 0) {
          int bit = std::countr_zero(bits);
          bits &= bits - 1;
          Vertex u = static_cast<Vertex>(i * 64 + bit);
          for (Vertex nb : graph_.Neighbors(u)) {
            ++local.neighbors_visited;
            if ((front_bits_[nb >> 6] >> (nb & 63)) & 1) {
              found |= uint64_t{1} << bit;
              sink.Visit(w, u, kSingleSourceBit, depth);
              ++found_total;
              local.scout_edges += graph_.Degree(u);
              break;
            }
          }
        }
        seen_[i] |= found;
        next_bits_[i] |= found;
      }
      awake.fetch_add(found_total, std::memory_order_relaxed);
      local.discovered = found_total;
      driver.EndTask(local);
    });
    return awake.load(std::memory_order_relaxed);
  }

  void QueueToBitmap(uint64_t frontier_size) {
    std::memset(front_bits_.data(), 0, front_bits_.size_bytes());
    for (uint64_t i = 0; i < frontier_size; ++i) {
      Vertex v = frontier_[i];
      front_bits_[v >> 6] |= uint64_t{1} << (v & 63);
    }
  }

  uint64_t BitmapToQueue(uint64_t expected) {
    uint64_t out = 0;
    for (uint64_t w = 0; w < num_words_; ++w) {
      uint64_t bits = front_bits_[w];
      while (bits != 0) {
        int bit = std::countr_zero(bits);
        bits &= bits - 1;
        frontier_[out++] = static_cast<Vertex>(w * 64 + bit);
      }
    }
    std::memset(front_bits_.data(), 0, front_bits_.size_bytes());
    PBFS_DCHECK(out == expected);
    (void)expected;
    return out;
  }

  const Graph& graph_;
  Executor* executor_;
  uint64_t num_words_;
  AlignedBuffer<uint64_t> seen_;
  AlignedBuffer<uint64_t> front_bits_;
  AlignedBuffer<uint64_t> next_bits_;
  AlignedBuffer<Vertex> frontier_;
  AlignedBuffer<Vertex> next_;
};

}  // namespace

std::unique_ptr<SingleSourceBfsBase> MakeQueuePbfs(const Graph& graph,
                                                   Executor* executor) {
  return std::make_unique<QueuePbfs>(graph, executor);
}

}  // namespace pbfs
