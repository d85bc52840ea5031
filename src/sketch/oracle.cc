#include "sketch/oracle.h"

#include "obs/trace.h"
#include "util/check.h"

namespace pbfs {

DistanceOracle::DistanceOracle(std::shared_ptr<const ClusterSketch> sketch)
    : sketch_(std::move(sketch)) {
  PBFS_CHECK(sketch_ != nullptr);
}

DistanceOracle::DistanceOracle(std::shared_ptr<const ClusterSketch> sketch,
                               const Graph& graph, Executor* executor)
    : sketch_(std::move(sketch)) {
  PBFS_CHECK(sketch_ != nullptr);
  PBFS_CHECK(graph.num_vertices() == sketch_->num_vertices());
  exact_ = FindVariantRunner("smspbfs_bit", graph, executor);
  PBFS_CHECK(exact_ != nullptr);
  levels_.resize(graph.num_vertices());
}

DistanceOracle::Result DistanceOracle::Resolve(Vertex s, Vertex t,
                                               Level tolerance) const {
  Result result;
  result.bounds = sketch_->Query(s, t);
  if (result.bounds.upper != kLevelUnreached &&
      result.bounds.upper - result.bounds.lower <= tolerance) {
    result.sketch_resolved = true;
    result.distance = result.bounds.upper;
  }
  return result;
}

DistanceOracle::Result DistanceOracle::Distance(Vertex s, Vertex t,
                                                Level tolerance) {
  Result result = Resolve(s, t, tolerance);
  if (result.sketch_resolved) {
    ++stats_.sketch_hits;
    return result;
  }
  PBFS_CHECK(exact_ != nullptr);  // sketch-only oracle cannot fall back
  obs::ScopedSpan span("sketch.exact_fallback");
  ++stats_.exact_fallbacks;
  // The sketch upper bound caps the traversal radius: the true distance
  // cannot exceed it, so levels beyond it are irrelevant.
  BfsOptions options;
  if (result.bounds.upper != kLevelUnreached) {
    options.max_level = result.bounds.upper;
  }
  const Vertex source = s;
  exact_->ComputeLevels({&source, 1}, options, levels_.data());
  result.distance = levels_[t];
  result.bounds.lower = result.distance;
  result.bounds.upper = result.distance;
  return result;
}

}  // namespace pbfs
