// Golden work counts for every non-oracle BFS kernel.
//
// Level arrays only prove that a kernel is correct; they say nothing
// about how much work it did to get there. This suite pins the work:
// on a fixed corpus (MakeCorpus with a pinned seed, independent of
// PBFS_DIFF_SEED) every registered kernel runs under three option sets
// and its per-level sequence — direction, Σ neighbors_visited,
// Σ states_updated, vertices_discovered — plus its result fields is
// rendered as text and reduced to one 64-bit FNV-1a digest per
// (variant, graph). A mismatch prints the whole sequence, so the first
// differing level can be read off directly.
//
// The digests were recorded from the kernels' own level loops before
// they moved onto the shared LevelDriver (bfs/level_driver.h). The
// only recorded change since is Beamer's bottom_up_iterations, which
// used to count a final bottom-up level that discovered nothing; every
// kernel now counts a level only if it discovered a vertex. MS-BFS and
// JFQ-MS-BFS contribute result fields only (they kept no per-level
// statistics when the digests were recorded). The six single-source
// kernels share one digest per graph: they follow the same direction
// rule and do the same work per level. A change that alters a kernel's
// work on purpose copies the printed digests into the table and says
// why in its change log.

#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "diff_util.h"
#include "sched/worker_pool.h"

namespace pbfs {
namespace {

constexpr uint64_t kGoldenCorpusSeed = 0x90A1DC0DEull;
constexpr int kSourcesPerGraph = 6;
constexpr int kMultiSourceWidth = 64;

struct NamedOptions {
  const char* name;
  BfsOptions options;
};

std::vector<NamedOptions> OptionSets() {
  BfsOptions bounded;
  bounded.max_level = 2;
  BfsOptions eager;  // switches to bottom-up early and back late
  eager.alpha = 2.0;
  eager.beta = 4.0;
  return {{"default", BfsOptions{}}, {"bounded2", bounded}, {"eager", eager}};
}

uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void DescribeLevels(const TraversalStats& stats, std::ostringstream& os) {
  int depth = 0;
  for (const TraversalStats::Iteration& it : stats.iterations()) {
    uint64_t edges = 0;
    uint64_t updated = 0;
    for (uint64_t x : it.neighbors_visited) edges += x;
    for (uint64_t x : it.states_updated) updated += x;
    os << "  L" << ++depth << ' '
       << (it.direction == Direction::kBottomUp ? "BU" : "TD")
       << " edges=" << edges << " updated=" << updated
       << " discovered=" << it.vertices_discovered << '\n';
  }
}

void DescribeResult(const char* visits_name, uint64_t visits,
                    const BfsResult& r, std::ostringstream& os) {
  os << ' ' << visits_name << '=' << visits << " iterations=" << r.iterations
     << " bottom_up_iterations=" << r.bottom_up_iterations << '\n';
}

// Runs `variant` over `graph` under every option set and renders the
// work it did. Single-source kernels run each source on its own;
// multi-source kernels run the sources as one batch.
std::string DescribeWork(const std::string& variant, const Graph& graph,
                         const std::vector<Vertex>& sources,
                         Executor* executor) {
  diff::KernelUnderTest kernel(variant, graph, executor, kMultiSourceWidth);
  if (!kernel.known()) {
    ADD_FAILURE() << "unknown kernel " << variant;
    return {};
  }
  const bool levels_recorded = variant != "msbfs" && variant != "jfq_msbfs";
  std::ostringstream os;
  for (const NamedOptions& set : OptionSets()) {
    TraversalStats stats;
    BfsOptions options = set.options;
    options.stats = &stats;
    if (kernel.multi_source()) {
      BfsResult r = kernel.Run(sources, options);
      os << set.name << " batch=" << sources.size();
      DescribeResult("total_visits", r.vertices_visited, r, os);
      if (levels_recorded) DescribeLevels(stats, os);
      continue;
    }
    for (Vertex s : sources) {
      BfsResult r = kernel.Run(std::span<const Vertex>(&s, 1), options);
      os << set.name << " source=" << s;
      DescribeResult("vertices_visited", r.vertices_visited, r, os);
      DescribeLevels(stats, os);
    }
  }
  return os.str();
}

// Digest per "<variant>/<corpus graph>".
const std::map<std::string, uint64_t>& GoldenDigests() {
  static const std::map<std::string, uint64_t> kGolden = {
      {"beamer-sparse/erdos_renyi", 0x75f98d966ce65894ull},
      {"beamer-sparse/rmat", 0xa4063193409967eaull},
      {"beamer-sparse/star", 0xba6c04f707119585ull},
      {"beamer-sparse/chain", 0x46f124b5a96982efull},
      {"beamer-sparse/forest", 0xf2c109ee51b648e2ull},
      {"beamer-sparse/messy", 0x35472b28f3e5650eull},
      {"beamer-dense/erdos_renyi", 0x75f98d966ce65894ull},
      {"beamer-dense/rmat", 0xa4063193409967eaull},
      {"beamer-dense/star", 0xba6c04f707119585ull},
      {"beamer-dense/chain", 0x46f124b5a96982efull},
      {"beamer-dense/forest", 0xf2c109ee51b648e2ull},
      {"beamer-dense/messy", 0x35472b28f3e5650eull},
      {"beamer-gapbs/erdos_renyi", 0x75f98d966ce65894ull},
      {"beamer-gapbs/rmat", 0xa4063193409967eaull},
      {"beamer-gapbs/star", 0xba6c04f707119585ull},
      {"beamer-gapbs/chain", 0x46f124b5a96982efull},
      {"beamer-gapbs/forest", 0xf2c109ee51b648e2ull},
      {"beamer-gapbs/messy", 0x35472b28f3e5650eull},
      {"queue_pbfs/erdos_renyi", 0x75f98d966ce65894ull},
      {"queue_pbfs/rmat", 0xa4063193409967eaull},
      {"queue_pbfs/star", 0xba6c04f707119585ull},
      {"queue_pbfs/chain", 0x46f124b5a96982efull},
      {"queue_pbfs/forest", 0xf2c109ee51b648e2ull},
      {"queue_pbfs/messy", 0x35472b28f3e5650eull},
      {"smspbfs_bit/erdos_renyi", 0x75f98d966ce65894ull},
      {"smspbfs_bit/rmat", 0xa4063193409967eaull},
      {"smspbfs_bit/star", 0xba6c04f707119585ull},
      {"smspbfs_bit/chain", 0x46f124b5a96982efull},
      {"smspbfs_bit/forest", 0xf2c109ee51b648e2ull},
      {"smspbfs_bit/messy", 0x35472b28f3e5650eull},
      {"smspbfs_byte/erdos_renyi", 0x75f98d966ce65894ull},
      {"smspbfs_byte/rmat", 0xa4063193409967eaull},
      {"smspbfs_byte/star", 0xba6c04f707119585ull},
      {"smspbfs_byte/chain", 0x46f124b5a96982efull},
      {"smspbfs_byte/forest", 0xf2c109ee51b648e2ull},
      {"smspbfs_byte/messy", 0x35472b28f3e5650eull},
      {"msbfs/erdos_renyi", 0xebae31a1ec604a8cull},
      {"msbfs/rmat", 0x666f5e8458bdc0edull},
      {"msbfs/star", 0x27a26d13940ba02dull},
      {"msbfs/chain", 0x38c150f82a565fe8ull},
      {"msbfs/forest", 0xd86f9ba034794b43ull},
      {"msbfs/messy", 0x5a304f8f138d47c8ull},
      {"jfq_msbfs/erdos_renyi", 0x181046b018d00a20ull},
      {"jfq_msbfs/rmat", 0xfd954221a431d3edull},
      {"jfq_msbfs/star", 0xc268a6c8de7d46ebull},
      {"jfq_msbfs/chain", 0x3ba09f97fc1ea9faull},
      {"jfq_msbfs/forest", 0xf42d8715f4e687b4ull},
      {"jfq_msbfs/messy", 0xd1b8c001ec7e8f3dull},
      {"mspbfs/erdos_renyi", 0x4824e935dbb9bd1dull},
      {"mspbfs/rmat", 0x19503fa3fde542d7ull},
      {"mspbfs/star", 0x7f29c785825e6385ull},
      {"mspbfs/chain", 0x3a7a1a0a8a8783d7ull},
      {"mspbfs/forest", 0x7d4ec3bd72186b77ull},
      {"mspbfs/messy", 0xdb42db8b9ffbdc36ull},
  };
  return kGolden;
}

class LevelCountsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LevelCountsTest, WorkMatchesGoldenDigest) {
  const std::string& variant = GetParam();
  WorkerPool pool({.num_workers = 2, .pin_threads = false});
  uint64_t sub_seed = kGoldenCorpusSeed;
  for (const diff::CorpusGraph& gc : diff::MakeCorpus(kGoldenCorpusSeed)) {
    sub_seed = SplitMix64(sub_seed);
    const std::vector<Vertex> sources =
        diff::CorpusSources(gc.graph, kSourcesPerGraph, sub_seed);
    const std::string work = DescribeWork(variant, gc.graph, sources, &pool);
    const std::string key = variant + "/" + gc.name;
    const uint64_t digest = Fnv1a64(work);
    auto it = GoldenDigests().find(key);
    ASSERT_NE(it, GoldenDigests().end())
        << "no golden digest for " << key << " (got 0x" << std::hex << digest
        << ")";
    EXPECT_EQ(digest, it->second)
        << key << " (n=" << gc.graph.num_vertices()
        << ", m=" << gc.graph.num_edges() << ") work changed; got 0x"
        << std::hex << digest << ", full sequence:\n"
        << work;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, LevelCountsTest,
    ::testing::ValuesIn(diff::NonOracleVariants()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace pbfs
