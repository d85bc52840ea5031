// SMS-PBFS implementations (Listings 3 and 4 of the paper) in the byte
// and bit state representations.
//
// Buffer hygiene (why there is no clearing pass anywhere): the top-down
// phase clears frontier entries in-loop after processing them, and every
// vertex that was ever in a frontier is by definition `seen`. Therefore,
// after swapping buffers, stale entries in the incoming `next` buffer
// only exist at seen vertices; the top-down second phase writes
// next[v] = !seen[v] and the bottom-up loop writes next[u] = false for
// seen u (Listing 4 line 3), so stale values are normalized exactly
// where they could be observed.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "bfs/level_driver.h"
#include "bfs/single_source.h"
#include "sched/numa_layout.h"
#include "util/aligned_buffer.h"
#include "util/bitset.h"
#include "util/check.h"

namespace pbfs {
namespace {

// ---------------------------------------------------------------------
// Byte variant.
// ---------------------------------------------------------------------

class SmsPbfsByte final : public SingleSourceBfsBase {
 public:
  SmsPbfsByte(const Graph& graph, Executor* executor)
      : graph_(graph), executor_(executor) {
    const Vertex n = graph.num_vertices();
    seen_.Reset(n);
    frontier_.Reset(n);
    next_.Reset(n);
    split_size_ = PageAlignedSplitSize(1024, 1);
    ClearState(split_size_);
  }

  SmsVariant variant() const override { return SmsVariant::kByte; }

  uint64_t StateBytes() const override {
    return seen_.size_bytes() + frontier_.size_bytes() + next_.size_bytes();
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
    const uint32_t split = PageAlignedSplitSize(options.split_size, 1);
    LevelDriver driver(graph_, options, executor_->num_workers(),
                       {"sms-pbfs-byte.run", "sms-pbfs-byte.level"});
    driver.RunArg("source", source);

    ClearState(split);
    seen_[source] = 1;
    frontier_[source] = 1;
    sink.Visit(0, source, kSingleSourceBit, 0);

    BfsResult result{.vertices_visited = 1};
    driver.Run(
        1, graph_.Degree(source), &result,
        [&](Direction direction, Level depth) {
          if (direction == Direction::kTopDown) {
            TopDown(driver, n, split, depth, sink);
          } else {
            BottomUp(driver, n, split, depth, sink);
          }
          std::swap(frontier_, next_);
        },
        [&](Level depth) { return sink.Done(depth); });
    return result;
  }

  void ClearState(uint32_t split) {
    executor_->FirstTouchFor(
        graph_.num_vertices(), split, [this](int, uint64_t b, uint64_t e) {
          std::memset(seen_.data() + b, 0, e - b);
          std::memset(frontier_.data() + b, 0, e - b);
          std::memset(next_.data() + b, 0, e - b);
        });
  }

  // Iterates the nonzero bytes of `array` in [b, e), skipping all-zero
  // 8-byte chunks.
  template <typename Fn>
  static void ForEachActiveByte(const uint8_t* array, uint64_t b, uint64_t e,
                                Fn&& fn) {
    uint64_t v8 = b;
    for (; v8 + 8 <= e; v8 += 8) {
      uint64_t chunk;
      std::memcpy(&chunk, array + v8, 8);
      if (chunk == 0) continue;
      for (uint64_t v = v8; v < v8 + 8; ++v) {
        if (array[v] != 0) fn(v);
      }
    }
    for (uint64_t v = v8; v < e; ++v) {
      if (array[v] != 0) fn(v);
    }
  }

  template <typename Sink>
  void TopDown(LevelDriver& driver, Vertex n, uint32_t split, Level depth,
               Sink& sink) {
    // Listing 3, first loop. The only cross-worker writes are the
    // benign stores of `1` into next[nb]; a plain atomic store replaces
    // MS-PBFS's CAS loop.
    executor_->ParallelFor(n, split, [&](int w, uint64_t b, uint64_t e) {
      LevelTask local = driver.BeginTask(w);
      ForEachActiveByte(frontier_.data(), b, e, [&](uint64_t v) {
        for (Vertex nb : graph_.Neighbors(static_cast<Vertex>(v))) {
          std::atomic_ref<uint8_t> cell(next_[nb]);
          if (cell.load(std::memory_order_relaxed) == 0) {
            cell.store(1, std::memory_order_relaxed);
          }
          ++local.neighbors_visited;
        }
        frontier_[v] = 0;
      });
      driver.EndTask(local);
    });

    // Listing 3, second loop: next[v] <- !seen[v]; newly seen vertices
    // are the discoveries. Bijective mapping, no synchronization.
    executor_->ParallelFor(n, split, [&](int w, uint64_t b, uint64_t e) {
      LevelTask local = driver.BeginTask(w);
      ForEachActiveByte(next_.data(), b, e, [&](uint64_t v) {
        if (seen_[v] != 0) {
          next_[v] = 0;  // rediscovery or stale entry
          return;
        }
        seen_[v] = 1;
        sink.Visit(w, static_cast<Vertex>(v), kSingleSourceBit, depth);
        ++local.discovered;
        local.scout_edges += graph_.Degree(static_cast<Vertex>(v));
      });
      driver.EndTask(local);
    });
  }

  template <typename Sink>
  void BottomUp(LevelDriver& driver, Vertex n, uint32_t split, Level depth,
                Sink& sink) {
    // Listing 4. Vertices are examined 8 at a time through the seen
    // array: a chunk where every byte is nonzero can be skipped after
    // clearing any stale next entries.
    executor_->ParallelFor(n, split, [&](int w, uint64_t b, uint64_t e) {
      LevelTask local = driver.BeginTask(w);
      for (uint64_t v = b; v < e; ++v) {
        if (seen_[v] != 0) {
          if (next_[v] != 0) next_[v] = 0;  // stale old-frontier entry
          continue;
        }
        for (Vertex nb : graph_.Neighbors(static_cast<Vertex>(v))) {
          ++local.neighbors_visited;
          if (frontier_[nb] != 0) {
            next_[v] = 1;
            break;
          }
        }
        if (next_[v] != 0) {
          seen_[v] = 1;
          sink.Visit(w, static_cast<Vertex>(v), kSingleSourceBit, depth);
          ++local.discovered;
          local.scout_edges += graph_.Degree(static_cast<Vertex>(v));
        }
      }
      driver.EndTask(local);
    });
  }

  const Graph& graph_;
  Executor* executor_;
  uint32_t split_size_;
  AlignedBuffer<uint8_t> seen_;
  AlignedBuffer<uint8_t> frontier_;
  AlignedBuffer<uint8_t> next_;
};

// ---------------------------------------------------------------------
// Bit variant.
// ---------------------------------------------------------------------

class SmsPbfsBit final : public SingleSourceBfsBase {
 public:
  SmsPbfsBit(const Graph& graph, Executor* executor)
      : graph_(graph), executor_(executor) {
    const Vertex n = graph.num_vertices();
    num_words_ = (static_cast<uint64_t>(n) + 63) / 64;
    seen_.Reset(num_words_);
    frontier_.Reset(num_words_);
    next_.Reset(num_words_);
    ClearState();
  }

  SmsVariant variant() const override { return SmsVariant::kBit; }

  uint64_t StateBytes() const override {
    return seen_.size_bytes() + frontier_.size_bytes() + next_.size_bytes();
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
    // Tasks must not straddle 64-bit words of the state arrays.
    const uint32_t split = (std::max<uint32_t>(options.split_size, 64) + 63) /
                           64 * 64;
    LevelDriver driver(graph_, options, executor_->num_workers(),
                       {"sms-pbfs-bit.run", "sms-pbfs-bit.level"});
    driver.RunArg("source", source);

    ClearState();
    SetBit(seen_.data(), source);
    SetBit(frontier_.data(), source);
    sink.Visit(0, source, kSingleSourceBit, 0);

    BfsResult result{.vertices_visited = 1};
    driver.Run(
        1, graph_.Degree(source), &result,
        [&](Direction direction, Level depth) {
          if (direction == Direction::kTopDown) {
            TopDown(driver, n, split, depth, sink);
          } else {
            BottomUp(driver, n, split, depth, sink);
          }
          std::swap(frontier_, next_);
        },
        [&](Level depth) { return sink.Done(depth); });
    return result;
  }

  static bool TestBit(const uint64_t* words, Vertex v) {
    return (words[v >> 6] >> (v & 63)) & 1;
  }
  static void SetBit(uint64_t* words, Vertex v) {
    words[v >> 6] |= uint64_t{1} << (v & 63);
  }

  void ClearState() {
    // Word-granular state: first-touch in units of whole words.
    executor_->FirstTouchFor(
        num_words_, kPageSize / 8, [this](int, uint64_t b, uint64_t e) {
          std::memset(seen_.data() + b, 0, (e - b) * 8);
          std::memset(frontier_.data() + b, 0, (e - b) * 8);
          std::memset(next_.data() + b, 0, (e - b) * 8);
        });
  }

  // Valid-bit mask for word `w` (handles the tail word past n).
  uint64_t ValidMask(uint64_t w, Vertex n) const {
    if ((w + 1) * 64 <= n) return ~uint64_t{0};
    int valid = static_cast<int>(n - w * 64);
    return valid <= 0 ? 0 : (uint64_t{1} << valid) - 1;
  }

  template <typename Sink>
  void TopDown(LevelDriver& driver, Vertex n, uint32_t split, Level depth,
               Sink& sink) {
    // First loop over frontier words; zero words are skipped (the
    // chunk-skipping optimization: one check covers 64 vertices).
    executor_->ParallelFor(n, split, [&](int w, uint64_t b, uint64_t e) {
      LevelTask local = driver.BeginTask(w);
      uint64_t word_begin = b >> 6;
      uint64_t word_end = (e + 63) >> 6;
      for (uint64_t i = word_begin; i < word_end; ++i) {
        uint64_t bits = frontier_[i];
        if (bits == 0) continue;
        frontier_[i] = 0;  // in-loop clear; only this task reads word i
        while (bits != 0) {
          int bit = std::countr_zero(bits);
          bits &= bits - 1;
          Vertex v = static_cast<Vertex>(i * 64 + bit);
          for (Vertex nb : graph_.Neighbors(v)) {
            AtomicFetchOrIfChanged(&next_[nb >> 6], uint64_t{1} << (nb & 63));
            ++local.neighbors_visited;
          }
        }
      }
      driver.EndTask(local);
    });

    // Second loop: word-wise discovery. nf = next & ~seen, then
    // normalize next to nf (strips rediscoveries and stale entries).
    executor_->ParallelFor(n, split, [&](int w, uint64_t b, uint64_t e) {
      LevelTask local = driver.BeginTask(w);
      uint64_t word_begin = b >> 6;
      uint64_t word_end = (e + 63) >> 6;
      for (uint64_t i = word_begin; i < word_end; ++i) {
        uint64_t nw = next_[i];
        if (nw == 0) continue;
        uint64_t nf = nw & ~seen_[i];
        if (nf != nw) next_[i] = nf;
        if (nf == 0) continue;
        seen_[i] |= nf;
        uint64_t bits = nf;
        while (bits != 0) {
          int bit = std::countr_zero(bits);
          bits &= bits - 1;
          Vertex v = static_cast<Vertex>(i * 64 + bit);
          sink.Visit(w, v, kSingleSourceBit, depth);
          ++local.discovered;
          local.scout_edges += graph_.Degree(v);
        }
      }
      driver.EndTask(local);
    });
  }

  template <typename Sink>
  void BottomUp(LevelDriver& driver, Vertex n, uint32_t split, Level depth,
                Sink& sink) {
    executor_->ParallelFor(n, split, [&](int w, uint64_t b, uint64_t e) {
      LevelTask local = driver.BeginTask(w);
      uint64_t word_begin = b >> 6;
      uint64_t word_end = (e + 63) >> 6;
      for (uint64_t i = word_begin; i < word_end; ++i) {
        uint64_t candidates = ~seen_[i] & ValidMask(i, n);
        if (candidates == 0) {
          // All 64 vertices seen; only stale next entries to clear.
          if (next_[i] != 0) next_[i] = 0;
          continue;
        }
        uint64_t found = 0;
        uint64_t bits = candidates;
        while (bits != 0) {
          int bit = std::countr_zero(bits);
          bits &= bits - 1;
          Vertex u = static_cast<Vertex>(i * 64 + bit);
          for (Vertex nb : graph_.Neighbors(u)) {
            ++local.neighbors_visited;
            if (TestBit(frontier_.data(), nb)) {
              found |= uint64_t{1} << bit;
              sink.Visit(w, u, kSingleSourceBit, depth);
              ++local.discovered;
              local.scout_edges += graph_.Degree(u);
              break;
            }
          }
        }
        seen_[i] |= found;
        next_[i] = found;  // overwrites any stale old-frontier bits
      }
      driver.EndTask(local);
    });
  }

  const Graph& graph_;
  Executor* executor_;
  uint64_t num_words_;
  AlignedBuffer<uint64_t> seen_;
  AlignedBuffer<uint64_t> frontier_;
  AlignedBuffer<uint64_t> next_;
};

}  // namespace

const char* SmsVariantName(SmsVariant variant) {
  switch (variant) {
    case SmsVariant::kBit:
      return "sms-pbfs-bit";
    case SmsVariant::kByte:
      return "sms-pbfs-byte";
    case SmsVariant::kQueue:
      return "queue-pbfs";
  }
  return "unknown";
}

std::unique_ptr<SingleSourceBfsBase> MakeSmsPbfs(const Graph& graph,
                                                 SmsVariant variant,
                                                 Executor* executor) {
  if (variant == SmsVariant::kQueue) return MakeQueuePbfs(graph, executor);
  if (variant == SmsVariant::kBit) {
    return std::make_unique<SmsPbfsBit>(graph, executor);
  }
  return std::make_unique<SmsPbfsByte>(graph, executor);
}

}  // namespace pbfs
