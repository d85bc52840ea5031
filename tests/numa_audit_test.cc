// Tests for the move_pages(2) placement auditor (obs/numa_audit).
//
// The auditor's claims are checkable without multi-socket hardware: the
// ownership model must reproduce the round-robin task dealing exactly,
// every resident page must be accounted for on some node, a model that
// abstains (expected node -1) must never count misplacements, a model
// that is wrong everywhere must count every judged page, and on a
// single-node host the end-to-end BFS placement audit must come back
// clean. Where move_pages itself is unavailable the reports must say so
// and remain structurally valid. Labeled "obs" in CMake.

#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "obs/numa_audit.h"
#include "sched/worker_pool.h"
#include "util/aligned_buffer.h"

namespace pbfs {
namespace {

using obs::AuditBfsPlacement;
using obs::AuditPages;
using obs::GraphPlacementAudit;
using obs::ModelFor;
using obs::NumaAuditAvailable;
using obs::NumaAuditReport;
using obs::NumaPlacementModel;

uint64_t PagesJudged(const NumaAuditReport& report) {
  return std::accumulate(report.pages_on_node.begin(),
                         report.pages_on_node.end(), uint64_t{0});
}

// Smallest sanity check of a JSON emitter without a parser: every
// opener has its closer and quotes pair up.
void ExpectBalancedJson(const std::string& json) {
  long braces = 0, brackets = 0, quotes = 0;
  bool escaped = false;
  bool in_string = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') {
        in_string = false;
        ++quotes;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; ++quotes; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    EXPECT_GE(braces, 0) << json;
    EXPECT_GE(brackets, 0) << json;
  }
  EXPECT_EQ(braces, 0) << json;
  EXPECT_EQ(brackets, 0) << json;
  EXPECT_EQ(quotes % 2, 0) << json;
}

// element -> task (element / split) -> worker (task mod W, the
// TaskQueues dealing) -> the worker's node. 3 workers on 2 nodes,
// 4-byte elements, 8 elements per task.
TEST(NumaAuditTest, ModelOwnershipFollowsRoundRobinTaskDealing) {
  NumaPlacementModel model;
  model.bytes_per_element = 4;
  model.split_size = 8;
  model.worker_nodes = {0, 1, 0};
  EXPECT_EQ(model.ExpectedNode(0), 0);    // element 0,  task 0 -> worker 0
  EXPECT_EQ(model.ExpectedNode(31), 0);   // element 7,  task 0
  EXPECT_EQ(model.ExpectedNode(32), 1);   // element 8,  task 1 -> worker 1
  EXPECT_EQ(model.ExpectedNode(63), 1);   // element 15, task 1
  EXPECT_EQ(model.ExpectedNode(64), 0);   // task 2 -> worker 2 (node 0)
  EXPECT_EQ(model.ExpectedNode(96), 0);   // task 3 wraps to worker 0
}

TEST(NumaAuditTest, ModelAbstainsWhenUnconfigured) {
  NumaPlacementModel model;  // no workers
  EXPECT_EQ(model.ExpectedNode(0), -1);
}

TEST(NumaAuditTest, ModelForMirrorsPoolAssignment) {
  WorkerPool pool({.num_workers = 3, .pin_threads = false});
  NumaPlacementModel model = ModelFor(pool, 1024, 1);
  ASSERT_EQ(model.worker_nodes.size(), 3u);
  for (int w = 0; w < 3; ++w) {
    EXPECT_EQ(model.worker_nodes[w], pool.NodeOfWorker(w));
  }
}

TEST(NumaAuditTest, EveryResidentPageIsAccountedFor) {
  std::string reason;
  if (!NumaAuditAvailable(&reason)) {
    GTEST_SKIP() << "move_pages unavailable: " << reason;
  }
  // Touched, page-aligned buffer: the kernel must know where every page
  // lives.
  AlignedBuffer<char> buffer(8 * kPageSize);
  buffer.FillZero();

  // A model with no expectation tallies pages but never misplaces.
  NumaAuditReport neutral =
      AuditPages("buffer", buffer.data(), buffer.size_bytes(), 1,
                 [](uint64_t) { return -1; });
  ASSERT_TRUE(neutral.available) << neutral.unavailable_reason;
  EXPECT_EQ(neutral.pages_total, 8u);
  EXPECT_EQ(PagesJudged(neutral) + neutral.pages_unknown,
            neutral.pages_total);
  EXPECT_EQ(neutral.pages_unknown, 0u);
  EXPECT_EQ(neutral.pages_misplaced, 0u);
  EXPECT_EQ(neutral.MisplacementRatio(), 0.0);

  // A model that is wrong everywhere must flag every judged page —
  // positive proof the misplacement counting works, independent of the
  // host's real topology.
  NumaAuditReport wrong =
      AuditPages("buffer", buffer.data(), buffer.size_bytes(), 1,
                 [](uint64_t) { return 127; });
  ASSERT_TRUE(wrong.available);
  EXPECT_EQ(wrong.pages_misplaced, PagesJudged(wrong));
  EXPECT_EQ(wrong.MisplacementRatio(), 1.0);

  ExpectBalancedJson(neutral.ToJson());
  ExpectBalancedJson(wrong.ToJson());
}

TEST(NumaAuditTest, EmptyRangeAuditsToZeroPages) {
  std::string reason;
  if (!NumaAuditAvailable(&reason)) {
    GTEST_SKIP() << "move_pages unavailable: " << reason;
  }
  NumaAuditReport report =
      AuditPages("empty", nullptr, 0, 1, [](uint64_t) { return 0; });
  EXPECT_TRUE(report.available);
  EXPECT_EQ(report.pages_total, 0u);
  EXPECT_EQ(report.pages_misplaced, 0u);
}

// End-to-end over the paper's three placement-sensitive arrays. On a
// single-node host (the common CI case) the model has nowhere to
// disagree with the kernel, so the audit must come back clean; on any
// host, per-array accounting must balance.
TEST(NumaAuditTest, BfsPlacementAuditBalancesAndIsCleanOnOneNode) {
  Graph graph = SocialNetwork({.num_vertices = 1 << 14, .avg_degree = 8.0,
                               .seed = 11});
  WorkerPool pool({.num_workers = 4, .pin_threads = false});

  GraphPlacementAudit audit = AuditBfsPlacement(graph, &pool, 1024);
  EXPECT_EQ(audit.num_nodes, pool.num_nodes());
  EXPECT_EQ(audit.split_size, 1024u);
  if (!audit.available) {
    EXPECT_FALSE(audit.unavailable_reason.empty());
    EXPECT_NE(audit.ToJson().find("\"available\":false"), std::string::npos);
    ExpectBalancedJson(audit.ToJson());
    GTEST_SKIP() << "move_pages unavailable: " << audit.unavailable_reason;
  }

  ASSERT_EQ(audit.arrays.size(), 3u);
  EXPECT_EQ(audit.arrays[0].array, "csr_offsets");
  EXPECT_EQ(audit.arrays[1].array, "csr_targets");
  EXPECT_EQ(audit.arrays[2].array, "state_bytes");
  for (const NumaAuditReport& report : audit.arrays) {
    ASSERT_TRUE(report.available) << report.array;
    EXPECT_GT(report.pages_total, 0u) << report.array;
    EXPECT_EQ(PagesJudged(report) + report.pages_unknown,
              report.pages_total)
        << report.array;
    if (pool.num_nodes() == 1) {
      EXPECT_EQ(report.pages_misplaced, 0u) << report.ToString();
    }
    EXPECT_NE(report.ToString().find(report.array), std::string::npos);
  }
  ExpectBalancedJson(audit.ToJson());
  EXPECT_NE(audit.ToJson().find("\"arrays\":["), std::string::npos);
}

}  // namespace
}  // namespace pbfs
