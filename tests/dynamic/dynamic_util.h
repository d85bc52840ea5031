// Shared infrastructure for the dynamic-graph differential replay
// harness.
//
// A ReplaySchedule is one randomized interleaving of edge-update
// batches and typed queries over one randomized initial graph, fully
// determined by a 64-bit seed (the diff_util PBFS_DIFF_SEED machinery
// is reused, so failures print the same reproduction banner as the
// static differential suite). The oracle is deliberately naive: apply
// the update batches to a std::set of normalized undirected edges,
// rebuild the CSR from scratch with Graph::FromEdges, and run the
// sequential BFS — any divergence between that and the snapshot/overlay
// machinery under the query engine is a bug in the substrate.
#ifndef PBFS_TESTS_DYNAMIC_DYNAMIC_UTIL_H_
#define PBFS_TESTS_DYNAMIC_DYNAMIC_UTIL_H_

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bfs/sequential.h"
#include "differential/diff_util.h"
#include "engine/query.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "test_util.h"
#include "util/rng.h"

namespace pbfs {
namespace dyn {

// Normalized undirected edge key: (min, max), never a self loop.
using EdgeKey = std::pair<Vertex, Vertex>;
using EdgeSet = std::set<EdgeKey>;

inline EdgeKey KeyOf(Vertex u, Vertex v) {
  return u < v ? EdgeKey{u, v} : EdgeKey{v, u};
}

// Applies one update batch to the reference edge set with the
// substrate's documented semantics: self loops dropped, duplicate
// insert and missing delete are no-ops, later ops win.
inline void ApplyToSet(EdgeSet& set, const std::vector<EdgeUpdate>& batch) {
  for (const EdgeUpdate& op : batch) {
    if (op.u == op.v) continue;
    if (op.insert) {
      set.insert(KeyOf(op.u, op.v));
    } else {
      set.erase(KeyOf(op.u, op.v));
    }
  }
}

inline std::vector<Edge> SetToEdges(const EdgeSet& set) {
  std::vector<Edge> edges;
  edges.reserve(set.size());
  for (const EdgeKey& key : set) edges.push_back(Edge{key.first, key.second});
  return edges;
}

// Extracts the normalized edge set of any graph (including overlay
// views) from its adjacency lists.
inline EdgeSet GraphToSet(const Graph& graph) {
  EdgeSet set;
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    for (Vertex t : graph.Neighbors(v)) {
      if (t > v) set.insert({v, t});
    }
  }
  return set;
}

// One typed query in a schedule; `after_batches` is the prefix of
// update batches the serial replay applies before submitting it.
struct QuerySpec {
  QueryType type = QueryType::kLevels;
  Vertex source = 0;
  std::vector<Vertex> targets;
  Level max_hops = kMaxLevel;
  int after_batches = 0;
};

// One randomized interleaving: an initial graph, a sequence of update
// batches, and a set of queries scattered across the batch sequence.
struct ReplaySchedule {
  Vertex n = 0;
  std::vector<Edge> initial_edges;
  std::vector<std::vector<EdgeUpdate>> batches;
  std::vector<QuerySpec> queries;
};

// Derives one schedule from `seed`. Initial graphs cycle through the
// corpus families (ER, RMAT, star, chain); update batches mix inserts
// of new edges, duplicate inserts, deletes of present and absent edges,
// delete-then-reinsert pairs, and the occasional self loop. A "hot"
// vertex subset biases endpoints so deletes actually hit on sparse
// graphs.
inline ReplaySchedule MakeSchedule(uint64_t seed) {
  Rng rng(seed);
  ReplaySchedule sched;
  sched.n = 16 + static_cast<Vertex>(rng.NextBounded(384));

  Graph initial = [&]() -> Graph {
    switch (rng.NextBounded(4)) {
      case 0:
        return ErdosRenyi(sched.n, sched.n + rng.NextBounded(3 * sched.n),
                          rng.Next());
      case 1: {
        int scale = 4 + static_cast<int>(rng.NextBounded(4));
        Graph g = Kronecker({.scale = scale,
                             .edge_factor = 4 + static_cast<int>(
                                                    rng.NextBounded(6)),
                             .seed = rng.Next()});
        sched.n = std::max(sched.n, g.num_vertices());
        return g;
      }
      case 2:
        return Star(2 + sched.n / 2);
      default:
        return Path(2 + sched.n / 2);
    }
  }();
  sched.n = std::max(sched.n, initial.num_vertices());
  sched.initial_edges = SetToEdges(GraphToSet(initial));

  const Vertex n = sched.n;
  // Hot subset: most ops draw endpoints here, so inserts collide and
  // deletes find prey.
  std::vector<Vertex> hot;
  const size_t hot_size = 2 + rng.NextBounded(std::min<uint64_t>(n, 24));
  for (size_t i = 0; i < hot_size; ++i) {
    hot.push_back(static_cast<Vertex>(rng.NextBounded(n)));
  }
  auto pick = [&]() -> Vertex {
    if (rng.NextBounded(100) < 70) return hot[rng.NextBounded(hot.size())];
    return static_cast<Vertex>(rng.NextBounded(n));
  };

  const int num_batches = 1 + static_cast<int>(rng.NextBounded(10));
  for (int b = 0; b < num_batches; ++b) {
    std::vector<EdgeUpdate> batch;
    const int ops = 1 + static_cast<int>(rng.NextBounded(30));
    for (int i = 0; i < ops; ++i) {
      Vertex u = pick();
      Vertex v = pick();
      const uint64_t kind = rng.NextBounded(100);
      if (kind < 8 && i > 0) {
        // Self loop: must normalize away.
        batch.push_back(EdgeUpdate{u, u, kind % 2 == 0});
        continue;
      }
      if (u == v) v = (v + 1) % n;
      const bool insert = kind < 55;
      batch.push_back(EdgeUpdate{u, v, insert});
      if (kind >= 90) {
        // Delete-then-reinsert (or the reverse) of the same edge, back
        // to back inside the batch: last op must win.
        batch.push_back(EdgeUpdate{u, v, !insert});
      }
    }
    sched.batches.push_back(std::move(batch));
  }

  const int num_queries = 8 + static_cast<int>(rng.NextBounded(32));
  for (int q = 0; q < num_queries; ++q) {
    QuerySpec spec;
    spec.type = static_cast<QueryType>(rng.NextBounded(4));
    spec.source = static_cast<Vertex>(rng.NextBounded(n));
    const int targets = static_cast<int>(rng.NextBounded(5));
    for (int t = 0; t < targets; ++t) {
      spec.targets.push_back(static_cast<Vertex>(rng.NextBounded(n)));
    }
    if (spec.type == QueryType::kKHop) {
      spec.max_hops = static_cast<Level>(rng.NextBounded(5));
    }
    spec.after_batches =
        static_cast<int>(rng.NextBounded(sched.batches.size() + 1));
    sched.queries.push_back(std::move(spec));
  }
  return sched;
}

// Rebuild-CSR-then-BFS oracle: caches, per update-batch prefix, the
// edge set and the sequentially rebuilt Graph.
class ReplayOracle {
 public:
  explicit ReplayOracle(const ReplaySchedule& sched) : sched_(sched) {
    EdgeSet set(ApplyPrefixZero());
    sets_.push_back(set);
    for (const auto& batch : sched.batches) {
      ApplyToSet(set, batch);
      sets_.push_back(set);
    }
    graphs_.resize(sets_.size());
  }

  int num_prefixes() const { return static_cast<int>(sets_.size()); }

  // Graph state after the first `k` batches (k == 0: initial graph).
  const Graph& GraphAfter(int k) {
    auto& slot = graphs_.at(static_cast<size_t>(k));
    if (!slot.has_value()) {
      slot.emplace(Graph::FromEdges(sched_.n, SetToEdges(sets_[k])));
    }
    return *slot;
  }

  const EdgeSet& SetAfter(int k) const { return sets_.at(k); }

 private:
  EdgeSet ApplyPrefixZero() const {
    EdgeSet set;
    for (const Edge& e : sched_.initial_edges) set.insert(KeyOf(e.u, e.v));
    return set;
  }

  const ReplaySchedule& sched_;
  std::vector<EdgeSet> sets_;
  std::vector<std::optional<Graph>> graphs_;
};

// Diffs one engine QueryResult against the oracle graph the query's
// snapshot stamp maps to. Empty string when they agree.
inline std::string DiffResult(const Graph& oracle_graph, const QuerySpec& spec,
                              const QueryResult& got) {
  if (got.status != QueryStatus::kOk) {
    return std::string("status ") + QueryStatusName(got.status);
  }
  const Vertex n = oracle_graph.num_vertices();
  std::vector<Level> levels(n);
  SequentialBfs(oracle_graph, spec.source, levels.data());
  std::ostringstream os;
  switch (spec.type) {
    case QueryType::kLevels: {
      if (got.levels.size() != n) return "levels size mismatch";
      uint64_t reached = 0;
      for (Vertex v = 0; v < n; ++v) {
        if (levels[v] != kLevelUnreached) ++reached;
        if (got.levels[v] != levels[v]) {
          os << "levels[" << v << "]: oracle=" << levels[v]
             << " got=" << got.levels[v];
          return os.str();
        }
      }
      if (got.vertices_reached != reached) {
        os << "vertices_reached: oracle=" << reached
           << " got=" << got.vertices_reached;
        return os.str();
      }
      break;
    }
    case QueryType::kDistances: {
      if (got.levels.size() != spec.targets.size()) {
        return "distances size mismatch";
      }
      for (size_t i = 0; i < spec.targets.size(); ++i) {
        if (got.levels[i] != levels[spec.targets[i]]) {
          os << "distance to " << spec.targets[i]
             << ": oracle=" << levels[spec.targets[i]]
             << " got=" << got.levels[i];
          return os.str();
        }
      }
      break;
    }
    case QueryType::kReachability: {
      if (got.reachable.size() != spec.targets.size()) {
        return "reachability size mismatch";
      }
      for (size_t i = 0; i < spec.targets.size(); ++i) {
        const uint8_t expected =
            levels[spec.targets[i]] != kLevelUnreached ? 1 : 0;
        if (got.reachable[i] != expected) {
          os << "reachable[" << spec.targets[i] << "]: oracle="
             << static_cast<int>(expected)
             << " got=" << static_cast<int>(got.reachable[i]);
          return os.str();
        }
      }
      break;
    }
    case QueryType::kKHop: {
      const std::vector<uint64_t> expected = testing_util::KHopSizesFromLevels(
          {levels.data(), levels.size()}, spec.max_hops);
      if (got.khop_sizes != expected) return "khop_sizes mismatch";
      break;
    }
    case QueryType::kPointToPointDistance: {
      // Sketch-resolved answers are bounded, not exact: check the
      // bracket. Exact-path answers must match the oracle.
      if (spec.targets.size() != 1) return "p2p target count mismatch";
      const Level exact = levels[spec.targets[0]];
      if (got.sketch_resolved) {
        if (got.distance_bounds.lower > exact ||
            (exact != kLevelUnreached &&
             got.distance_bounds.upper < exact)) {
          os << "p2p bounds [" << got.distance_bounds.lower << ", "
             << got.distance_bounds.upper << "] exclude oracle=" << exact;
          return os.str();
        }
      } else if (got.distance != exact) {
        os << "p2p distance: oracle=" << exact << " got=" << got.distance;
        return os.str();
      }
      break;
    }
  }
  return {};
}

inline Query ToQuery(const QuerySpec& spec) {
  Query query;
  query.type = spec.type;
  query.source = spec.source;
  query.targets = spec.targets;
  query.max_hops = spec.max_hops;
  return query;
}

}  // namespace dyn
}  // namespace pbfs

#endif  // PBFS_TESTS_DYNAMIC_DYNAMIC_UTIL_H_
