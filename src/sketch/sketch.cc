#include "sketch/sketch.h"

#include <algorithm>

#include "bfs/multi_source.h"
#include "obs/trace.h"
#include "util/check.h"

namespace pbfs {

DistanceBounds ClusterSketch::Query(Vertex s, Vertex t) const {
  PBFS_CHECK(s < num_vertices_ && t < num_vertices_);
  DistanceBounds bounds;
  if (s == t) {
    bounds.lower = 0;
    bounds.upper = 0;
    return bounds;
  }
  const size_t k = clusters_.size();
  const Level* ds = dist_.data() + static_cast<size_t>(s) * k;
  const Level* dt = dist_.data() + static_cast<size_t>(t) * k;
  const uint64_t* sb0 = bits0_.data() + static_cast<size_t>(s) * k;
  const uint64_t* tb0 = bits0_.data() + static_cast<size_t>(t) * k;
  const uint64_t* sb1 = bits1_.data() + static_cast<size_t>(s) * k;
  const uint64_t* tb1 = bits1_.data() + static_cast<size_t>(t) * k;
  for (size_t c = 0; c < k; ++c) {
    if (ds[c] == kLevelUnreached || dt[c] == kLevelUnreached) continue;
    // Within-cluster detour between the member nearest s and the member
    // nearest t: exact via the offset bitsets when they overlap at
    // distance 0/1/2, else bounded by the cluster diameter.
    uint32_t slack;
    if ((sb0[c] & tb0[c]) != 0) {
      slack = 0;
    } else if (((sb0[c] & tb1[c]) | (sb1[c] & tb0[c])) != 0) {
      slack = 1;
    } else if ((sb1[c] & tb1[c]) != 0) {
      slack = 2;
    } else {
      slack = clusters_[c].diameter;
    }
    TightenBounds(bounds, ds[c], dt[c], slack);
    // Pinched bounds are exact; later clusters cannot improve them.
    if (bounds.exact()) break;
  }
  ClampDistinctPair(bounds);
  return bounds;
}

std::shared_ptr<const ClusterSketch> BuildSketch(const Graph& graph,
                                                 uint64_t content_version,
                                                 Executor* executor,
                                                 const SketchOptions& options) {
  PBFS_CHECK(executor != nullptr);
  PBFS_CHECK(options.num_clusters > 0);
  PBFS_CHECK(options.cluster_size > 0 && options.cluster_size <= 64);
  obs::ScopedSpan span("sketch.build");
  span.AddArg("clusters", static_cast<uint64_t>(options.num_clusters));
  span.AddArg("content_version", content_version);
  const Vertex n = graph.num_vertices();
  auto sketch = std::shared_ptr<ClusterSketch>(new ClusterSketch());
  sketch->num_vertices_ = n;
  sketch->content_version_ = content_version;
  if (n == 0) return sketch;

  const std::vector<Vertex> seeds =
      SelectSeeds(graph, options.num_clusters, options.strategy, options.seed);
  const size_t k = seeds.size();
  sketch->clusters_.reserve(k);
  sketch->dist_.assign(static_cast<size_t>(n) * k, kLevelUnreached);
  sketch->bits0_.assign(static_cast<size_t>(n) * k, 0);
  sketch->bits1_.assign(static_cast<size_t>(n) * k, 0);
  if (k == 0) return sketch;

  std::unique_ptr<MultiSourceBfsBase> bfs = MakeMsPbfs(graph, 64, executor);
  std::vector<Level> levels(static_cast<size_t>(options.cluster_size) * n);
  for (size_t c = 0; c < k; ++c) {
    ClusterSketch::Cluster cluster;
    cluster.center = seeds[c];
    cluster.members.push_back(seeds[c]);
    for (Vertex neighbor : graph.Neighbors(seeds[c])) {
      if (cluster.members.size() >=
          static_cast<size_t>(options.cluster_size)) {
        break;
      }
      cluster.members.push_back(neighbor);
    }
    const size_t members = cluster.members.size();
    bfs->Run(cluster.members, BfsOptions{}, levels.data());

    // Members are mutually reachable (center + its neighbors), so every
    // pairwise distance below is finite and the diameter is <= 2.
    Level diameter = 0;
    for (size_t i = 0; i < members; ++i) {
      const Level* row = levels.data() + i * n;
      for (size_t j = 0; j < members; ++j) {
        diameter = std::max(diameter, row[cluster.members[j]]);
      }
    }
    cluster.diameter = diameter;
    sketch->clusters_.push_back(std::move(cluster));

    // Fold the member-major level rows into this cluster's column of
    // the vertex-major store.
    Level* dist = sketch->dist_.data();
    uint64_t* bits0 = sketch->bits0_.data();
    uint64_t* bits1 = sketch->bits1_.data();
    const Level* member_levels = levels.data();
    executor->ParallelFor(n, /*split_size=*/4096, [&](int /*worker*/,
                                                      uint64_t begin,
                                                      uint64_t end) {
      for (uint64_t v = begin; v < end; ++v) {
        Level dmin = kLevelUnreached;
        for (size_t i = 0; i < members; ++i) {
          dmin = std::min(dmin, member_levels[i * n + v]);
        }
        const size_t slot = v * k + c;
        dist[slot] = dmin;
        if (dmin == kLevelUnreached) continue;
        uint64_t b0 = 0;
        uint64_t b1 = 0;
        // dmin + 1 stays a valid level here: dmin <= kMaxLevel, and the
        // == comparison against an unreached member is only a concern
        // when dmin itself is kMaxLevel, in which case dmin + 1 ==
        // kLevelUnreached would mistakenly count unreached members.
        const bool track_next = dmin < kMaxLevel;
        for (size_t i = 0; i < members; ++i) {
          const Level d = member_levels[i * n + v];
          if (d == dmin) {
            b0 |= uint64_t{1} << i;
          } else if (track_next && d == dmin + 1) {
            b1 |= uint64_t{1} << i;
          }
        }
        bits0[slot] = b0;
        bits1[slot] = b1;
      }
    });
  }
  span.AddArg("bytes", sketch->SketchBytes());
  return sketch;
}

}  // namespace pbfs
