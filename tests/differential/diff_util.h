// Shared infrastructure for the differential BFS oracle harness.
//
// The harness runs every registered BFS variant over a corpus of
// randomized graphs and diffs full level arrays against the sequential
// oracle. Everything is a deterministic function of one 64-bit seed:
// rerunning a test binary with PBFS_DIFF_SEED=<printed seed> (and the
// gtest filter of the failing test) reproduces a failure exactly.
//
//   PBFS_DIFF_SEED    base seed (default 0xD1FFBF5)
//   PBFS_DIFF_TRIALS  randomized corpus instances per test (default 3)
#ifndef PBFS_TESTS_DIFFERENTIAL_DIFF_UTIL_H_
#define PBFS_TESTS_DIFFERENTIAL_DIFF_UTIL_H_

#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bfs/beamer.h"
#include "bfs/multi_source.h"
#include "bfs/registry.h"
#include "bfs/sequential.h"
#include "bfs/single_source.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace pbfs {
namespace diff {

inline uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 0);
}

inline uint64_t BaseSeed() { return EnvOr("PBFS_DIFF_SEED", 0xD1FFBF5ull); }

// At least one trial always runs, so a typo'd PBFS_DIFF_TRIALS can
// never make the harness pass vacuously.
inline int NumTrials() {
  uint64_t trials = EnvOr("PBFS_DIFF_TRIALS", 3);
  return trials == 0 ? 1 : static_cast<int>(trials);
}

// Seed for trial `trial` of the suite; printed in every failure message.
inline uint64_t TrialSeed(uint64_t trial) {
  return SplitMix64(BaseSeed() ^ (trial * 0x9e3779b97f4a7c15ull));
}

// The reproduction banner attached to every assertion in a trial.
inline std::string ReproNote(uint64_t trial_seed) {
  std::ostringstream os;
  os << "[reproduce with --seed: PBFS_DIFF_SEED=0x" << std::hex << trial_seed
     << " PBFS_DIFF_TRIALS=1 plus this test's --gtest_filter]";
  return os.str();
}

struct CorpusGraph {
  std::string name;
  Graph graph;
};

// Random forest: `components` trees over a shuffled vertex set, leaving
// some vertices isolated. Exercises multi-component frontiers and
// unreached-level handling.
inline Graph RandomForest(Vertex n, int components, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vertex> perm(n);
  for (Vertex v = 0; v < n; ++v) perm[v] = v;
  for (Vertex v = n; v > 1; --v) {
    std::swap(perm[v - 1], perm[rng.NextBounded(v)]);
  }
  // Leave ~1/8 of the vertices isolated.
  Vertex in_trees = n - n / 8;
  std::vector<Edge> edges;
  for (Vertex i = static_cast<Vertex>(components); i < in_trees; ++i) {
    // Parent chosen among earlier in-tree vertices of the same residue
    // class mod `components`, so each class forms one tree.
    Vertex cls = i % static_cast<Vertex>(components);
    Vertex choices = (i - cls) / static_cast<Vertex>(components);
    Vertex parent = cls + static_cast<Vertex>(components) *
                              static_cast<Vertex>(rng.NextBounded(choices));
    edges.push_back({perm[i], perm[parent]});
  }
  return Graph::FromEdges(n, edges);
}

// Random edge list deliberately containing self loops, duplicate edges
// (both orders), and isolated vertices — the inputs Graph::FromEdges
// must normalize away before any variant sees them.
inline Graph MessyEdgeCaseGraph(Vertex n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  EdgeIndex num_edges = 2 * static_cast<EdgeIndex>(n);
  for (EdgeIndex e = 0; e < num_edges; ++e) {
    Vertex u = static_cast<Vertex>(rng.NextBounded(n));
    Vertex v = static_cast<Vertex>(rng.NextBounded(n));
    edges.push_back({u, v});
    switch (rng.NextBounded(4)) {
      case 0:  // self loop
        edges.push_back({u, u});
        break;
      case 1:  // exact duplicate
        edges.push_back({u, v});
        break;
      case 2:  // duplicate, reversed
        edges.push_back({v, u});
        break;
      default:
        break;
    }
  }
  return Graph::FromEdges(n, edges);
}

// One randomized corpus instance: >= 5 graph families (Erdős–Rényi,
// RMAT/Kronecker, stars, chains, disconnected forests, messy edge
// cases), sizes and densities drawn from `seed`.
inline std::vector<CorpusGraph> MakeCorpus(uint64_t seed) {
  Rng rng(seed);
  std::vector<CorpusGraph> corpus;

  Vertex er_n = 64 + static_cast<Vertex>(rng.NextBounded(1500));
  EdgeIndex er_m = er_n + static_cast<EdgeIndex>(rng.NextBounded(4 * er_n));
  corpus.push_back(
      {"erdos_renyi", ErdosRenyi(er_n, er_m, rng.Next())});

  int scale = 8 + static_cast<int>(rng.NextBounded(3));
  int edge_factor = 4 + static_cast<int>(rng.NextBounded(13));
  corpus.push_back(
      {"rmat", Kronecker({.scale = scale, .edge_factor = edge_factor,
                          .seed = rng.Next()})});

  corpus.push_back(
      {"star", Star(2 + static_cast<Vertex>(rng.NextBounded(700)))});

  corpus.push_back(
      {"chain", Path(2 + static_cast<Vertex>(rng.NextBounded(900)))});

  Vertex forest_n = 32 + static_cast<Vertex>(rng.NextBounded(1000));
  int components = 2 + static_cast<int>(rng.NextBounded(6));
  corpus.push_back(
      {"forest", RandomForest(forest_n, components, rng.Next())});

  corpus.push_back(
      {"messy", MessyEdgeCaseGraph(
                    16 + static_cast<Vertex>(rng.NextBounded(500)),
                    rng.Next())});
  return corpus;
}

// Source list for one graph: boundary vertices plus random picks, with
// one deliberate duplicate when it fits.
inline std::vector<Vertex> CorpusSources(const Graph& graph, int count,
                                         uint64_t seed) {
  Rng rng(seed);
  const Vertex n = graph.num_vertices();
  std::vector<Vertex> sources;
  if (n == 0) return sources;
  sources.push_back(0);
  if (n > 1) sources.push_back(n - 1);
  while (static_cast<int>(sources.size()) < count) {
    sources.push_back(static_cast<Vertex>(rng.NextBounded(n)));
  }
  if (sources.size() >= 2) sources.back() = sources.front();  // duplicate
  return sources;
}

// Reference levels for every source, laid out like
// BfsVariantRunner::ComputeLevels output.
inline std::vector<Level> OracleLevels(const Graph& graph,
                                       const std::vector<Vertex>& sources) {
  const Vertex n = graph.num_vertices();
  std::vector<Level> levels(sources.size() * n);
  for (size_t i = 0; i < sources.size(); ++i) {
    SequentialBfs(graph, sources[i], levels.data() + i * n);
  }
  return levels;
}

// First (source index, vertex) where `got` differs from the oracle, as
// a human-readable diff; empty string when the arrays agree.
inline std::string DiffAgainstOracle(const std::vector<Level>& oracle,
                                     const std::vector<Level>& got,
                                     Vertex num_vertices) {
  if (oracle.size() != got.size()) {
    return "level array size mismatch";
  }
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (oracle[i] != got[i]) {
      std::ostringstream os;
      os << "first mismatch at source_index=" << i / num_vertices
         << " vertex=" << i % num_vertices << ": oracle=" << oracle[i]
         << " got=" << got[i];
      return os.str();
    }
  }
  return {};
}

// Registry names of every kernel except the sequential oracle.
inline std::vector<std::string> NonOracleVariants() {
  std::vector<std::string> names = AllVariantNames();
  names.erase(names.begin());  // "sequential"
  return names;
}

// One registry kernel called directly rather than through
// BfsVariantRunner, so its result fields are visible. `name` is one of
// AllVariantNames() except the oracle; the kernel instance is reused
// across Run calls.
class KernelUnderTest {
 public:
  KernelUnderTest(const std::string& name, const Graph& graph,
                  Executor* executor, int width = 64)
      : graph_(graph) {
    for (BeamerVariant variant : {BeamerVariant::kSparse,
                                  BeamerVariant::kDense,
                                  BeamerVariant::kGapbs}) {
      if (name == BeamerVariantName(variant)) beamer_ = variant;
    }
    if (name == "queue_pbfs") single_ = MakeQueuePbfs(graph, executor);
    if (name == "smspbfs_bit") {
      single_ = MakeSmsPbfs(graph, SmsVariant::kBit, executor);
    }
    if (name == "smspbfs_byte") {
      single_ = MakeSmsPbfs(graph, SmsVariant::kByte, executor);
    }
    if (name == "msbfs") multi_ = MakeMsBfs(graph, width);
    if (name == "jfq_msbfs") multi_ = MakeJfqMsBfs(graph, width);
    if (name == "mspbfs") multi_ = MakeMsPbfs(graph, width, executor);
  }

  bool known() const {
    return beamer_.has_value() || single_ != nullptr || multi_ != nullptr;
  }
  bool multi_source() const { return multi_ != nullptr; }

  // Runs `sources` as one batch (multi-source kernels) or the single
  // source sources[0]. A multi-source result reports total_visits as
  // vertices_visited.
  BfsResult Run(std::span<const Vertex> sources, const BfsOptions& options) {
    if (multi_ != nullptr) {
      MsBfsResult r = multi_->Run(sources, options, nullptr);
      return {.vertices_visited = r.total_visits,
              .iterations = r.iterations,
              .bottom_up_iterations = r.bottom_up_iterations};
    }
    if (beamer_.has_value()) {
      return BeamerBfs(graph_, sources[0], *beamer_, options, nullptr);
    }
    return single_->Run(sources[0], options, nullptr);
  }

 private:
  const Graph& graph_;
  std::optional<BeamerVariant> beamer_;
  std::unique_ptr<SingleSourceBfsBase> single_;
  std::unique_ptr<MultiSourceBfsBase> multi_;
};

}  // namespace diff
}  // namespace pbfs

#endif  // PBFS_TESTS_DIFFERENTIAL_DIFF_UTIL_H_
