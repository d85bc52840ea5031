#include "graph/compactor.h"

#include <memory>
#include <utility>
#include <vector>

#include "graph/parallel_build.h"
#include "obs/trace.h"
#include "util/check.h"

namespace pbfs {
namespace {

// Workers in the compactor's private pool.
constexpr int kCompactorWorkers = 2;

}  // namespace

Compactor::Compactor(SnapshotManager* snapshots, double debug_delay_ms)
    : snapshots_(snapshots),
      loop_("compactor", kCompactorWorkers, debug_delay_ms,
            [this](Executor* executor) { return Compact(executor); }) {
  PBFS_CHECK(snapshots_ != nullptr);
}

Compactor::Stats Compactor::GetStats() const {
  const MaintenanceLoop::Stats loop = loop_.GetStats();
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{.compactions = loop.runs,
               .last_duration_ms = loop.last_ms,
               .total_duration_ms = loop.total_ms,
               .last_edges = last_edges_};
}

bool Compactor::Compact(Executor* executor) {
  SnapshotManager::Ref snap = snapshots_->Pin();
  if (!snap->has_overlay()) return false;
  const uint64_t from_version = snap->version();
  obs::ScopedSpan span("compactor.compact");
  span.AddArg("version", from_version);
  span.AddArg("patched_vertices",
              static_cast<uint64_t>(snap->patched_vertices()));
  loop_.DebugDelay();
  const std::vector<Edge> edges = MaterializeEdges(snap->graph(), executor);
  auto fresh = std::make_shared<Graph>(
      BuildGraphParallel(snap->graph().num_vertices(), edges, executor));
  snapshots_->InstallCompacted(from_version, std::move(fresh));
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_edges_ = edges.size();
  }
  // Dropping `snap` here frees the pre-compaction CSR when no reader
  // (typically the engine's runner pin has moved on already) holds it.
  return true;
}

}  // namespace pbfs
