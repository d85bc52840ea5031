#include "bfs/beamer.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "bfs/level_driver.h"
#include "util/aligned_buffer.h"

namespace pbfs {
namespace {

inline bool TestBit(const uint64_t* words, Vertex v) {
  return (words[v >> 6] >> (v & 63)) & 1;
}

inline void SetBit(uint64_t* words, Vertex v) {
  words[v >> 6] |= uint64_t{1} << (v & 63);
}

// Top-down step over a sparse frontier. Returns the degree sum of the
// newly discovered vertices (the "scout count" steering the direction
// heuristic) and fills `next`.
uint64_t TopDownSparse(const Graph& graph, const std::vector<Vertex>& frontier,
                       uint64_t* seen, Level* levels, Level depth,
                       std::vector<Vertex>* next, uint64_t* discovered) {
  uint64_t scout = 0;
  for (Vertex v : frontier) {
    for (Vertex nb : graph.Neighbors(v)) {
      if (!TestBit(seen, nb)) {
        SetBit(seen, nb);
        if (levels != nullptr) levels[nb] = depth;
        next->push_back(nb);
        scout += graph.Degree(nb);
        ++*discovered;
      }
    }
  }
  return scout;
}

// Top-down step over a dense bit frontier, with 64-vertex chunk skipping.
uint64_t TopDownDense(const Graph& graph, const uint64_t* frontier,
                      uint64_t* next, uint64_t* seen, Level* levels,
                      Level depth, size_t num_words, uint64_t* discovered) {
  uint64_t scout = 0;
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t bits = frontier[w];
    while (bits != 0) {
      int bit = std::countr_zero(bits);
      bits &= bits - 1;
      Vertex v = static_cast<Vertex>(w * 64 + bit);
      for (Vertex nb : graph.Neighbors(v)) {
        if (!TestBit(seen, nb)) {
          SetBit(seen, nb);
          SetBit(next, nb);
          if (levels != nullptr) levels[nb] = depth;
          scout += graph.Degree(nb);
          ++*discovered;
        }
      }
    }
  }
  return scout;
}

// Bottom-up step. With `chunk_skip`, whole 64-vertex ranges that are
// already fully seen are skipped (the SMS-PBFS (bit) optimization);
// without it every unseen vertex is checked individually, as in the
// GAPBS reference. Returns the number of awakened vertices; adds the
// neighbor probes performed to *edges_scanned.
uint64_t BottomUp(const Graph& graph, const uint64_t* frontier, uint64_t* next,
                  uint64_t* seen, Level* levels, Level depth, Vertex n,
                  bool chunk_skip, uint64_t* scout_out,
                  uint64_t* edges_scanned) {
  uint64_t awake = 0;
  uint64_t scout = 0;
  uint64_t edges = 0;
  const size_t num_words = (static_cast<size_t>(n) + 63) / 64;
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t candidates = ~seen[w];
    if (w == num_words - 1 && (n & 63) != 0) {
      candidates &= (uint64_t{1} << (n & 63)) - 1;
    }
    if (chunk_skip && candidates == 0) continue;
    uint64_t found = 0;
    while (candidates != 0) {
      int bit = std::countr_zero(candidates);
      candidates &= candidates - 1;
      Vertex u = static_cast<Vertex>(w * 64 + bit);
      for (Vertex nb : graph.Neighbors(u)) {
        ++edges;
        if (TestBit(frontier, nb)) {
          found |= uint64_t{1} << bit;
          if (levels != nullptr) levels[u] = depth;
          scout += graph.Degree(u);
          ++awake;
          break;
        }
      }
    }
    if (found != 0) {
      seen[w] |= found;
      next[w] |= found;
    }
  }
  *scout_out = scout;
  *edges_scanned += edges;
  return awake;
}

// Indexed by BeamerVariant.
constexpr struct {
  const char* name;
  LevelSpanNames spans;
} kBeamerNames[] = {
    {"beamer-sparse", {"beamer-sparse.run", "beamer-sparse.level"}},
    {"beamer-dense", {"beamer-dense.run", "beamer-dense.level"}},
    {"beamer-gapbs", {"beamer-gapbs.run", "beamer-gapbs.level"}},
};

}  // namespace

const char* BeamerVariantName(BeamerVariant variant) {
  return kBeamerNames[static_cast<int>(variant)].name;
}

BfsResult BeamerBfs(const Graph& graph, Vertex source, BeamerVariant variant,
                    const BfsOptions& options, Level* levels) {
  const Vertex n = graph.num_vertices();
  PBFS_CHECK(source < n);
  const size_t num_words = (static_cast<size_t>(n) + 63) / 64;
  const bool chunk_skip = variant != BeamerVariant::kGapbs;
  const bool dense_top_down = variant == BeamerVariant::kDense;
  LevelDriver driver(graph, options, 1,
                     kBeamerNames[static_cast<int>(variant)].spans);
  driver.RunArg("source", source);

  if (levels != nullptr) std::fill(levels, levels + n, kLevelUnreached);

  AlignedBuffer<uint64_t> seen(num_words);
  AlignedBuffer<uint64_t> front_bits(num_words);
  AlignedBuffer<uint64_t> next_bits(num_words);
  seen.FillZero();
  front_bits.FillZero();
  next_bits.FillZero();

  std::vector<Vertex> frontier;
  std::vector<Vertex> next;

  SetBit(seen.data(), source);
  if (levels != nullptr) levels[source] = 0;
  if (dense_top_down) {
    SetBit(front_bits.data(), source);
  } else {
    frontier.push_back(source);
  }
  bool frontier_is_dense = dense_top_down;
  // Degree sum of the frontier: exactly the edges a top-down level scans.
  uint64_t frontier_edges = graph.Degree(source);

  BfsResult result{.vertices_visited = 1};
  driver.Run(1, frontier_edges, &result, [&](Direction direction,
                                             Level depth) {
    const bool bottom_up = direction == Direction::kBottomUp;
    if (bottom_up && !frontier_is_dense) {
      // Sparse -> dense conversion at the direction switch.
      std::fill(front_bits.begin(), front_bits.end(), 0);
      for (Vertex v : frontier) SetBit(front_bits.data(), v);
      frontier.clear();
      frontier_is_dense = true;
    } else if (!bottom_up && frontier_is_dense && !dense_top_down) {
      // Dense -> sparse conversion.
      frontier.clear();
      for (size_t w = 0; w < num_words; ++w) {
        uint64_t bits = front_bits[w];
        while (bits != 0) {
          int bit = std::countr_zero(bits);
          bits &= bits - 1;
          frontier.push_back(static_cast<Vertex>(w * 64 + bit));
        }
      }
      std::fill(front_bits.begin(), front_bits.end(), 0);
      frontier_is_dense = false;
    }

    LevelTask local = driver.BeginTask(0);
    if (bottom_up) {
      local.discovered = BottomUp(graph, front_bits.data(), next_bits.data(),
                                  seen.data(), levels, depth, n, chunk_skip,
                                  &local.scout_edges,
                                  &local.neighbors_visited);
      std::swap(front_bits, next_bits);
      std::fill(next_bits.begin(), next_bits.end(), 0);
    } else if (frontier_is_dense) {
      local.neighbors_visited = frontier_edges;
      local.scout_edges =
          TopDownDense(graph, front_bits.data(), next_bits.data(), seen.data(),
                       levels, depth, num_words, &local.discovered);
      std::swap(front_bits, next_bits);
      std::fill(next_bits.begin(), next_bits.end(), 0);
    } else {
      local.neighbors_visited = frontier_edges;
      local.scout_edges = TopDownSparse(graph, frontier, seen.data(), levels,
                                        depth, &next, &local.discovered);
      frontier.swap(next);
      next.clear();
    }
    frontier_edges = local.scout_edges;
    driver.EndTask(local);
  });
  return result;
}

}  // namespace pbfs
