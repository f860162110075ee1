#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "graph/edge_index.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/graph_algorithms.hpp"
#include "structure/structure_io.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

TEST(GraphTest, EdgesAreUndirectedAndDeduplicated) {
  Graph g(3);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(1, 0));  // same edge
  EXPECT_FALSE(g.AddEdge(2, 2));  // self loop ignored
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(0), 1u);
}

TEST(GraphTest, EdgesListNormalized) {
  Graph g(4);
  g.AddEdge(3, 1);
  g.AddEdge(0, 2);
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 2u);
  for (auto [u, v] : edges) EXPECT_LT(u, v);
}

// The index answers exactly the graph's edges, in both argument orders, on
// random graphs where a random share of the vertices (the first and last id
// among them, on some trials) is isolated; every non-edge, every self pair
// and every id out of range answers false.
TEST(EdgeIndexTest, AnswersExactlyTheEdgesInBothOrders) {
  Rng rng(TestSeed());
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = rng.UniformIndex(60) + 1;
    std::vector<bool> isolated(n);
    for (size_t v = 0; v < n; ++v) isolated[v] = rng.Bernoulli(0.3);
    if (trial % 4 == 0) isolated[0] = isolated[n - 1] = true;
    if (trial % 4 == 1) isolated[0] = isolated[n - 1] = false;
    double p = rng.UniformDouble() * 0.5;
    Graph g(n);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (!isolated[u] && !isolated[v] && rng.Bernoulli(p)) g.AddEdge(v, u);
      }
    }
    std::set<std::pair<VertexId, VertexId>> edges;
    for (auto edge : g.Edges()) edges.insert(edge);
    EdgeIndex index(g);
    auto id = static_cast<VertexId>(n);
    size_t answered = 0;
    for (VertexId u = 0; u < id + 2; ++u) {
      EXPECT_FALSE(index.Contains(u, u)) << "trial " << trial << " " << u;
      for (VertexId v = 0; v < id + 2; ++v) {
        bool edge = edges.count({std::min(u, v), std::max(u, v)}) > 0;
        ASSERT_EQ(index.Contains(u, v), edge)
            << "trial " << trial << " n=" << n << " {" << u << ", " << v
            << "}";
        answered += edge;
      }
    }
    EXPECT_EQ(answered, 2 * g.NumEdges()) << "trial " << trial;
  }
  EXPECT_FALSE(EdgeIndex().Contains(0, 1));
  EXPECT_FALSE(EdgeIndex(Graph(4)).Contains(0, 3));
}

TEST(GeneratorsTest, FamiliesHaveExpectedShape) {
  EXPECT_EQ(PathGraph(5).NumEdges(), 4u);
  Graph fan = TreeFanGraph(7);
  EXPECT_EQ(fan.NumEdges(), 6u + 5u);
  EXPECT_EQ(fan.Degree(0), 6u);
  EXPECT_TRUE(fan.HasEdge(6, 3));
  EXPECT_FALSE(fan.HasEdge(3, 4));
  EXPECT_EQ(CycleGraph(5).NumEdges(), 5u);
  EXPECT_EQ(CompleteGraph(5).NumEdges(), 10u);
  EXPECT_EQ(GridGraph(3, 4).NumEdges(), 3u * 3u + 2u * 4u);
  Graph petersen = PetersenGraph();
  EXPECT_EQ(petersen.NumVertices(), 10u);
  EXPECT_EQ(petersen.NumEdges(), 15u);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(petersen.Degree(v), 3u);
}

TEST(GeneratorsTest, RandomKTreeHasRightEdgeCount) {
  Rng rng(TestSeed());
  // A k-tree on n vertices has k(k+1)/2 + (n-k-1)k edges.
  for (int k : {1, 2, 3}) {
    for (size_t n : {size_t{4}, size_t{8}, size_t{15}}) {
      Graph g = RandomKTree(n, k, &rng);
      size_t expected = static_cast<size_t>(k) * (k + 1) / 2 +
                        (n - static_cast<size_t>(k) - 1) * static_cast<size_t>(k);
      EXPECT_EQ(g.NumEdges(), expected) << "n=" << n << " k=" << k;
      EXPECT_TRUE(IsConnected(g));
    }
  }
}

TEST(GeneratorsTest, PartialKTreeIsSubgraph) {
  Rng rng(TestSeed());
  Graph g = RandomPartialKTree(12, 3, 0.5, &rng);
  EXPECT_EQ(g.NumVertices(), 12u);
  // Edge count at most that of the full 3-tree.
  EXPECT_LE(g.NumEdges(), 6u + 8u * 3u);
}

TEST(AlgorithmsTest, ConnectedComponents) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(3, 4);
  auto comp = ConnectedComponents(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_FALSE(IsConnected(g));
  EXPECT_TRUE(IsConnected(PathGraph(4)));
  EXPECT_TRUE(IsConnected(Graph(1)));
  EXPECT_TRUE(IsConnected(Graph(0)));
}

TEST(AlgorithmsTest, BruteForceColoringOnKnownGraphs) {
  // K4 is not 3-colorable; K3 is; odd cycles need 3 colors.
  EXPECT_FALSE(BruteForceColoring(CompleteGraph(4), 3).has_value());
  EXPECT_TRUE(BruteForceColoring(CompleteGraph(3), 3).has_value());
  EXPECT_FALSE(BruteForceColoring(CycleGraph(5), 2).has_value());
  EXPECT_TRUE(BruteForceColoring(CycleGraph(5), 3).has_value());
  EXPECT_TRUE(BruteForceColoring(PetersenGraph(), 3).has_value());
}

TEST(AlgorithmsTest, ColoringIsProper) {
  Graph g = GridGraph(3, 3);
  auto coloring = BruteForceColoring(g, 3);
  ASSERT_TRUE(coloring.has_value());
  for (auto [u, v] : g.Edges()) {
    EXPECT_NE((*coloring)[u], (*coloring)[v]);
  }
}

TEST(AlgorithmsTest, CountColorings) {
  // Chromatic polynomial: P(K3, 3) = 3! = 6; P(path_3, 3) = 3·2·2 = 12;
  // P(C4, k) = (k-1)^4 + (k-1) = 18 for k = 3.
  EXPECT_EQ(CountColoringsBruteForce(CompleteGraph(3), 3), 6u);
  EXPECT_EQ(CountColoringsBruteForce(PathGraph(3), 3), 12u);
  EXPECT_EQ(CountColoringsBruteForce(CycleGraph(4), 3), 18u);
}

TEST(AlgorithmsTest, VertexCoverIndependentSetDominatingSet) {
  // C5: min VC 3, max IS 2, min DS 2. Star K1,4: VC 1, IS 4, DS 1.
  Graph c5 = CycleGraph(5);
  EXPECT_EQ(MinVertexCoverBruteForce(c5), 3u);
  EXPECT_EQ(MaxIndependentSetBruteForce(c5), 2u);
  EXPECT_EQ(MinDominatingSetBruteForce(c5), 2u);
  Graph star(5);
  for (VertexId v = 1; v < 5; ++v) star.AddEdge(0, v);
  EXPECT_EQ(MinVertexCoverBruteForce(star), 1u);
  EXPECT_EQ(MaxIndependentSetBruteForce(star), 4u);
  EXPECT_EQ(MinDominatingSetBruteForce(star), 1u);
}

TEST(AlgorithmsTest, GaussIdentityVcPlusIs) {
  // Gallai: min VC + max IS = n on any graph.
  Rng rng(TestSeed());
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = RandomGnp(9, 0.35, &rng);
    EXPECT_EQ(MinVertexCoverBruteForce(g) + MaxIndependentSetBruteForce(g),
              g.NumVertices());
  }
}

TEST(GaifmanTest, StructureRoundTrip) {
  Graph g = CycleGraph(4);
  Structure s = GraphToStructure(g);
  EXPECT_EQ(s.NumElements(), 4u);
  auto back = StructureToGraph(s);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumEdges(), 4u);
  for (auto [u, v] : g.Edges()) EXPECT_TRUE(back->HasEdge(u, v));
}

TEST(GaifmanTest, GaifmanOfSchemaStructureConnectsCoOccurrences) {
  auto parsed = ParseStructure(Signature::SchemaSignature(),
                               "att(a). att(b). fd(f1). lh(a, f1). rh(b, f1).");
  ASSERT_TRUE(parsed.ok());
  Graph g = GaifmanGraph(*parsed);
  ElementId a = parsed->ElementByName("a").value();
  ElementId b = parsed->ElementByName("b").value();
  ElementId f1 = parsed->ElementByName("f1").value();
  EXPECT_TRUE(g.HasEdge(a, f1));
  EXPECT_TRUE(g.HasEdge(b, f1));
  EXPECT_FALSE(g.HasEdge(a, b));  // a and b never co-occur directly
}

}  // namespace
}  // namespace treedl
