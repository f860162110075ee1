#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algorithms.hpp"
#include "td/heuristics.hpp"

namespace treedl {
namespace {

using Problem = Engine::Problem;

// One session per query: the graphs are tiny, and some queries pin their own
// decomposition.
StatusOr<Engine::SolveResult> SolveThreeColor(const Graph& g,
                                              EngineOptions options = {}) {
  Engine engine = Engine::FromGraph(g, options);
  return engine.Solve(Problem::kThreeColor);
}

StatusOr<Engine::SolveResult> SolveThreeColor(const Graph& g,
                                              const TreeDecomposition& td,
                                              RunStats* stats = nullptr) {
  EngineOptions options;
  options.decomposition = td;
  Engine engine = Engine::FromGraph(g, options);
  return engine.Solve(Problem::kThreeColor, stats);
}

StatusOr<uint64_t> CountThreeColorings(const Graph& g) {
  Engine engine = Engine::FromGraph(g);
  TREEDL_ASSIGN_OR_RETURN(Engine::SolveResult result,
                          engine.Solve(Problem::kThreeColorCount));
  return result.count;
}

void ExpectProper(const Graph& g, const std::vector<int>& coloring) {
  ASSERT_EQ(coloring.size(), g.NumVertices());
  for (auto [u, v] : g.Edges()) {
    EXPECT_NE(coloring[u], coloring[v]) << "edge {" << u << "," << v << "}";
  }
  for (int c : coloring) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 3);
  }
}

TEST(ThreeColorTest, KnownGraphs) {
  EXPECT_TRUE(SolveThreeColor(CompleteGraph(3))->feasible);
  EXPECT_FALSE(SolveThreeColor(CompleteGraph(4))->feasible);
  EXPECT_TRUE(SolveThreeColor(CycleGraph(5))->feasible);
  EXPECT_TRUE(SolveThreeColor(CycleGraph(6))->feasible);
  EXPECT_TRUE(SolveThreeColor(PetersenGraph())->feasible);
  EXPECT_TRUE(SolveThreeColor(GridGraph(3, 4))->feasible);
  EXPECT_TRUE(SolveThreeColor(PathGraph(1))->feasible);
  EXPECT_TRUE(SolveThreeColor(Graph(3))->feasible);  // edgeless
}

TEST(ThreeColorTest, ExtractedColoringsAreProper) {
  for (const Graph& g : {CycleGraph(7), PetersenGraph(), GridGraph(4, 4)}) {
    auto result = SolveThreeColor(g);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->feasible);
    ASSERT_TRUE(result->witness.has_value());
    ExpectProper(g, *result->witness);
  }
}

TEST(ThreeColorTest, NoWitnessWhenNotRequested) {
  EngineOptions options;
  options.extract_witness = false;
  auto result = SolveThreeColor(CycleGraph(5), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->feasible);
  EXPECT_FALSE(result->witness.has_value());
}

class ThreeColorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreeColorPropertyTest, MatchesBruteForceOnPartialKTrees) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  // Partial 4-trees keep enough edges that both outcomes occur across seeds.
  Graph g = RandomPartialKTree(11, 4, 0.85, &rng);
  auto result = SolveThreeColor(g);
  ASSERT_TRUE(result.ok()) << result.status();
  bool expected = BruteForceColoring(g, 3).has_value();
  EXPECT_EQ(result->feasible, expected);
  if (result->feasible) {
    ASSERT_TRUE(result->witness.has_value());
    ExpectProper(g, *result->witness);
  }
}

TEST_P(ThreeColorPropertyTest, CountMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  Graph g = RandomPartialKTree(9, 3, 0.7, &rng);
  auto count = CountThreeColorings(g);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, CountColoringsBruteForce(g, 3));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreeColorPropertyTest, ::testing::Range(0, 20));

TEST(ThreeColorTest, CountOnKnownGraphs) {
  EXPECT_EQ(CountThreeColorings(CompleteGraph(3)).value(), 6u);
  EXPECT_EQ(CountThreeColorings(CompleteGraph(4)).value(), 0u);
  EXPECT_EQ(CountThreeColorings(PathGraph(3)).value(), 12u);
  EXPECT_EQ(CountThreeColorings(CycleGraph(4)).value(), 18u);
  // Edgeless on n vertices: 3^n.
  EXPECT_EQ(CountThreeColorings(Graph(5)).value(), 243u);
}

TEST(ThreeColorTest, RejectsInvalidDecomposition) {
  Graph g = CycleGraph(4);
  TreeDecomposition bad;
  bad.AddNode({0, 1});  // does not cover all vertices/edges
  EXPECT_FALSE(SolveThreeColor(g, bad).ok());
}

TEST(ThreeColorTest, WorksWithProvidedDecomposition) {
  Graph g = CycleGraph(6);
  auto td = Decompose(g, TdHeuristic::kMinDegree);
  ASSERT_TRUE(td.ok());
  RunStats stats;
  auto result = SolveThreeColor(g, *td, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->feasible);
  EXPECT_GT(stats.dp_states, 0u);
}

TEST(ThreeColorTest, DisconnectedGraphs) {
  // Two triangles sharing nothing + an isolated vertex.
  Graph g(7);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(3, 5);
  auto result = SolveThreeColor(g);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->feasible);
  ExpectProper(g, *result->witness);
  EXPECT_EQ(CountThreeColorings(g).value(), 6u * 6u * 3u);
}

}  // namespace
}  // namespace treedl
