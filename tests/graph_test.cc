#include "graph/graph.h"

#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/types.h"

namespace pbfs {
namespace {

TEST(GraphTest, FromEdgesBuildsSymmetricSortedCsr) {
  std::vector<Edge> edges = {{0, 1}, {2, 1}, {0, 2}};
  Graph g = Graph::FromEdges(4, edges);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_directed_edges(), 6u);

  std::vector<Vertex> n0(g.Neighbors(0).begin(), g.Neighbors(0).end());
  std::vector<Vertex> n1(g.Neighbors(1).begin(), g.Neighbors(1).end());
  std::vector<Vertex> n2(g.Neighbors(2).begin(), g.Neighbors(2).end());
  EXPECT_EQ(n0, (std::vector<Vertex>{1, 2}));
  EXPECT_EQ(n1, (std::vector<Vertex>{0, 2}));
  EXPECT_EQ(n2, (std::vector<Vertex>{0, 1}));
  EXPECT_EQ(g.Degree(3), 0u);
}

TEST(GraphTest, SelfLoopsDropped) {
  std::vector<Edge> edges = {{0, 0}, {1, 1}, {0, 1}};
  Graph g = Graph::FromEdges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(GraphTest, ParallelEdgesDeduplicated) {
  std::vector<Edge> edges = {{0, 1}, {1, 0}, {0, 1}, {0, 1}};
  Graph g = Graph::FromEdges(2, edges);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
}

TEST(GraphTest, EmptyGraph) {
  Graph g = Graph::FromEdges(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphTest, VerticesWithoutEdges) {
  std::vector<Edge> edges = {{0, 1}};
  Graph g = Graph::FromEdges(10, edges);
  EXPECT_EQ(g.NumConnectedVertices(), 2u);
  for (Vertex v = 2; v < 10; ++v) {
    EXPECT_TRUE(g.Neighbors(v).empty());
  }
}

TEST(GraphTest, HasEdge) {
  Graph g = Graph::FromEdges(4, std::vector<Edge>{{0, 1}, {1, 2}});
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 3));
}

TEST(GraphTest, MaxDegree) {
  Graph star = Star(8);
  EXPECT_EQ(star.MaxDegree(), 7u);
  EXPECT_EQ(star.Degree(0), 7u);
  EXPECT_EQ(star.Degree(3), 1u);
}

TEST(GraphTest, MemoryBytesAccountsCsrArrays) {
  Graph g = Complete(10);  // 45 undirected edges
  // 90 directed targets * 4 bytes + 11 offsets * 8 bytes, both rounded
  // up to page multiples by the aligned allocator.
  EXPECT_GE(g.MemoryBytes(), 90 * 4 + 11 * 8);
}

TEST(GraphTest, FromCsrRoundTrip) {
  Graph original = Grid(5, 5);
  AlignedBuffer<EdgeIndex> offsets(original.num_vertices() + 1);
  AlignedBuffer<Vertex> targets(original.num_directed_edges());
  for (Vertex v = 0; v <= original.num_vertices(); ++v) {
    offsets[v] = original.offsets()[v];
  }
  for (EdgeIndex e = 0; e < original.num_directed_edges(); ++e) {
    targets[e] = original.targets()[e];
  }
  Graph copy = Graph::FromCsr(original.num_vertices(), std::move(offsets),
                              std::move(targets));
  EXPECT_EQ(copy.num_vertices(), original.num_vertices());
  EXPECT_EQ(copy.num_edges(), original.num_edges());
  for (Vertex v = 0; v < copy.num_vertices(); ++v) {
    EXPECT_EQ(copy.Degree(v), original.Degree(v));
  }
}

// The snapshot fast path: a never-updated engine traverses its graph
// through a null-overlay view, which must hand out the base CSR's own
// adjacency (same pointer, same degree) — no copy, no patch lookup.
TEST(GraphTest, NullOverlayViewAliasesBaseAdjacency) {
  const Graph base = ErdosRenyi(512, 2048, /*seed=*/5);
  const Graph view = Graph::OverlayView(base, nullptr);
  EXPECT_FALSE(view.has_overlay());
  ASSERT_EQ(view.num_vertices(), base.num_vertices());
  EXPECT_EQ(view.num_directed_edges(), base.num_directed_edges());
  for (Vertex v = 0; v < base.num_vertices(); ++v) {
    ASSERT_EQ(view.Degree(v), base.Degree(v)) << "vertex " << v;
    ASSERT_EQ(view.Neighbors(v).data(), base.Neighbors(v).data())
        << "vertex " << v;
  }
}

TEST(StructuredGraphsTest, PathShape) {
  Graph g = Path(5);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(2), 2u);
  EXPECT_EQ(g.Degree(4), 1u);
}

TEST(StructuredGraphsTest, CycleShape) {
  Graph g = Cycle(6);
  EXPECT_EQ(g.num_edges(), 6u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(g.Degree(v), 2u);
}

TEST(StructuredGraphsTest, CompleteShape) {
  Graph g = Complete(6);
  EXPECT_EQ(g.num_edges(), 15u);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(g.Degree(v), 5u);
}

TEST(StructuredGraphsTest, GridShape) {
  Graph g = Grid(3, 4);
  EXPECT_EQ(g.num_vertices(), 12u);
  // 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8.
  EXPECT_EQ(g.num_edges(), 17u);
  EXPECT_EQ(g.Degree(0), 2u);   // corner
  EXPECT_EQ(g.Degree(5), 4u);   // interior
}

TEST(StructuredGraphsTest, BinaryTreeShape) {
  Graph g = BinaryTree(7);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 3u);
  EXPECT_EQ(g.Degree(6), 1u);
}

TEST(StructuredGraphsTest, StarShape) {
  Graph g = Star(1);
  EXPECT_EQ(g.num_edges(), 0u);
  Graph g2 = Star(2);
  EXPECT_EQ(g2.num_edges(), 1u);
}

}  // namespace
}  // namespace pbfs
