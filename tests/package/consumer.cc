// Package-boundary check: a downstream program that includes the public
// headers with no -D flags and links libpbfs.a must agree with the
// library about every class layout. It submits distance queries to a
// QueryEngine on a WorkerPool, diffs each answer against SequentialBfs,
// and prints "ok <n>/<total>"; it exits 0 only if every answer matched.
//
//   g++ -std=c++20 -O2 -I src tests/package/consumer.cc
//       build/src/libpbfs.a -lpthread -o consumer && ./consumer
#include <cstdio>
#include <vector>

#include "bfs/sequential.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "sched/worker_pool.h"

int main() {
  using namespace pbfs;
  const Graph graph = ErdosRenyi(2000, 8000, /*seed=*/3);
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  QueryEngine engine(graph, &pool);
  const std::vector<Vertex> targets = {0, 17, 999, 1999};
  constexpr int kQueries = 16;
  std::vector<QueryEngine::Submission> subs;
  for (int i = 0; i < kQueries; ++i) {
    Query q;
    q.type = QueryType::kDistances;
    q.source = static_cast<Vertex>(i * 97);
    q.targets = targets;
    subs.push_back(engine.Submit(std::move(q)));
  }
  engine.Drain();
  std::vector<Level> oracle(graph.num_vertices());
  int ok = 0;
  for (int i = 0; i < kQueries; ++i) {
    const QueryResult r = subs[i].result.get();
    SequentialBfs(graph, static_cast<Vertex>(i * 97), oracle.data());
    bool match = r.status == QueryStatus::kOk &&
                 r.levels.size() == targets.size();
    for (size_t t = 0; match && t < targets.size(); ++t) {
      match = r.levels[t] == oracle[targets[t]];
    }
    ok += match ? 1 : 0;
  }
  std::printf("ok %d/%d\n", ok, kQueries);
  return ok == kQueries ? 0 : 1;
}
