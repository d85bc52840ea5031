#include "bfs/registry.h"

#include <algorithm>
#include <utility>

#include "bfs/beamer.h"
#include "bfs/multi_source.h"
#include "bfs/sequential.h"
#include "bfs/single_source.h"
#include "util/check.h"

namespace pbfs {
namespace {

// The textbook reference itself, so the harness can enumerate it
// uniformly (and sanity-check the oracle against hand-built graphs).
class SequentialRunner : public BfsVariantRunner {
 public:
  explicit SequentialRunner(const Graph& graph) : graph_(graph) {
    desc_.name = "sequential";
  }

  const BfsVariantDesc& desc() const override { return desc_; }

  void ComputeLevels(std::span<const Vertex> sources, const BfsOptions&,
                     Level* levels) override {
    const Vertex n = graph_.num_vertices();
    for (size_t i = 0; i < sources.size(); ++i) {
      SequentialBfs(graph_, sources[i], levels + i * n);
    }
  }

 private:
  const Graph& graph_;
  BfsVariantDesc desc_;
};

class BeamerRunner : public BfsVariantRunner {
 public:
  BeamerRunner(const Graph& graph, BeamerVariant variant)
      : graph_(graph), variant_(variant) {
    desc_.name = BeamerVariantName(variant);  // "beamer-sparse", ...
  }

  const BfsVariantDesc& desc() const override { return desc_; }

  void ComputeLevels(std::span<const Vertex> sources,
                     const BfsOptions& options, Level* levels) override {
    const Vertex n = graph_.num_vertices();
    for (size_t i = 0; i < sources.size(); ++i) {
      BeamerBfs(graph_, sources[i], variant_, options, levels + i * n);
    }
  }

 private:
  const Graph& graph_;
  BeamerVariant variant_;
  BfsVariantDesc desc_;
};

class SingleSourceRunner : public BfsVariantRunner {
 public:
  SingleSourceRunner(std::string name,
                     std::unique_ptr<SingleSourceBfsBase> bfs, Vertex n)
      : bfs_(std::move(bfs)), n_(n) {
    desc_.name = std::move(name);
    desc_.parallel = true;
  }

  const BfsVariantDesc& desc() const override { return desc_; }

  void ComputeLevels(std::span<const Vertex> sources,
                     const BfsOptions& options, Level* levels) override {
    for (size_t i = 0; i < sources.size(); ++i) {
      bfs_->Run(sources[i], options, levels + i * n_);
    }
  }

 private:
  std::unique_ptr<SingleSourceBfsBase> bfs_;
  Vertex n_;
  BfsVariantDesc desc_;
};

class MultiSourceRunner : public BfsVariantRunner {
 public:
  MultiSourceRunner(std::string name, bool parallel,
                    std::unique_ptr<MultiSourceBfsBase> bfs, Vertex n)
      : bfs_(std::move(bfs)), n_(n) {
    desc_.name = std::move(name);
    desc_.parallel = parallel;
    desc_.multi_source = true;
    desc_.width = bfs_->width();
  }

  const BfsVariantDesc& desc() const override { return desc_; }

  void ComputeLevels(std::span<const Vertex> sources,
                     const BfsOptions& options, Level* levels) override {
    const size_t width = static_cast<size_t>(bfs_->width());
    for (size_t batch = 0; batch < sources.size(); batch += width) {
      size_t count = std::min(width, sources.size() - batch);
      bfs_->Run(sources.subspan(batch, count), options,
                levels + batch * n_);
    }
  }

 private:
  std::unique_ptr<MultiSourceBfsBase> bfs_;
  Vertex n_;
  BfsVariantDesc desc_;
};

// One registry row: the variant's canonical name and how to construct
// it. Both MakeAllVariantRunners and FindVariantRunner go through this
// table, so name lookup can never drift from enumeration order.
struct VariantFactory {
  const char* name;
  std::unique_ptr<BfsVariantRunner> (*make)(const Graph& graph,
                                            Executor* executor, int ms_width);
};

constexpr VariantFactory kVariantFactories[] = {
    {"sequential",
     [](const Graph& g, Executor*, int) -> std::unique_ptr<BfsVariantRunner> {
       return std::make_unique<SequentialRunner>(g);
     }},
    {"beamer-sparse",
     [](const Graph& g, Executor*, int) -> std::unique_ptr<BfsVariantRunner> {
       return std::make_unique<BeamerRunner>(g, BeamerVariant::kSparse);
     }},
    {"beamer-dense",
     [](const Graph& g, Executor*, int) -> std::unique_ptr<BfsVariantRunner> {
       return std::make_unique<BeamerRunner>(g, BeamerVariant::kDense);
     }},
    {"beamer-gapbs",
     [](const Graph& g, Executor*, int) -> std::unique_ptr<BfsVariantRunner> {
       return std::make_unique<BeamerRunner>(g, BeamerVariant::kGapbs);
     }},
    {"queue_pbfs",
     [](const Graph& g, Executor* ex,
        int) -> std::unique_ptr<BfsVariantRunner> {
       return std::make_unique<SingleSourceRunner>(
           "queue_pbfs", MakeQueuePbfs(g, ex), g.num_vertices());
     }},
    {"smspbfs_bit",
     [](const Graph& g, Executor* ex,
        int) -> std::unique_ptr<BfsVariantRunner> {
       return std::make_unique<SingleSourceRunner>(
           "smspbfs_bit", MakeSmsPbfs(g, SmsVariant::kBit, ex),
           g.num_vertices());
     }},
    {"smspbfs_byte",
     [](const Graph& g, Executor* ex,
        int) -> std::unique_ptr<BfsVariantRunner> {
       return std::make_unique<SingleSourceRunner>(
           "smspbfs_byte", MakeSmsPbfs(g, SmsVariant::kByte, ex),
           g.num_vertices());
     }},
    {"msbfs",
     [](const Graph& g, Executor*, int w) -> std::unique_ptr<BfsVariantRunner> {
       return std::make_unique<MultiSourceRunner>(
           "msbfs", /*parallel=*/false, MakeMsBfs(g, w), g.num_vertices());
     }},
    {"jfq_msbfs",
     [](const Graph& g, Executor*, int w) -> std::unique_ptr<BfsVariantRunner> {
       return std::make_unique<MultiSourceRunner>("jfq_msbfs",
                                                  /*parallel=*/false,
                                                  MakeJfqMsBfs(g, w),
                                                  g.num_vertices());
     }},
    {"mspbfs",
     [](const Graph& g, Executor* ex,
        int w) -> std::unique_ptr<BfsVariantRunner> {
       return std::make_unique<MultiSourceRunner>(
           "mspbfs", /*parallel=*/true, MakeMsPbfs(g, w, ex),
           g.num_vertices());
     }},
};

}  // namespace

std::vector<std::unique_ptr<BfsVariantRunner>> MakeAllVariantRunners(
    const Graph& graph, Executor* executor, int ms_width) {
  PBFS_CHECK(executor != nullptr);
  PBFS_CHECK(IsSupportedWidth(ms_width));
  std::vector<std::unique_ptr<BfsVariantRunner>> runners;
  for (const VariantFactory& factory : kVariantFactories) {
    runners.push_back(factory.make(graph, executor, ms_width));
  }
  return runners;
}

std::unique_ptr<BfsVariantRunner> FindVariantRunner(const std::string& name,
                                                    const Graph& graph,
                                                    Executor* executor,
                                                    int ms_width) {
  PBFS_CHECK(executor != nullptr);
  PBFS_CHECK(IsSupportedWidth(ms_width));
  for (const VariantFactory& factory : kVariantFactories) {
    if (name == factory.name) return factory.make(graph, executor, ms_width);
  }
  return nullptr;
}

std::vector<std::string> AllVariantNames() {
  std::vector<std::string> names;
  for (const VariantFactory& factory : kVariantFactories) {
    names.emplace_back(factory.name);
  }
  return names;
}

}  // namespace pbfs
