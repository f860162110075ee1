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
  // P_n: 3 * 2^(n-1); P63 is the longest path whose count fits in 64 bits.
  EXPECT_EQ(CountThreeColorings(PathGraph(63)).value(), uint64_t{3} << 62);
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

// --- Counting past 64 bits ----------------------------------------------------

TEST(ThreeColorTest, CountPastSixtyFourBitsIsOutOfRange) {
  // P64 (3 * 2^63) and P65 do not fit; wrapped, they would read 2^63 and
  // 0, which also claims "not 3-colorable".
  for (size_t n : {64, 65}) {
    auto count =
        Engine::FromGraph(PathGraph(n)).Solve(Problem::kThreeColorCount);
    ASSERT_FALSE(count.ok()) << "P" << n;
    EXPECT_EQ(count.status().code(), StatusCode::kOutOfRange) << count.status();
    // SolveAll returns the failing walk's status, as for a tripped budget.
    auto all = Engine::FromGraph(PathGraph(n)).SolveAll();
    ASSERT_FALSE(all.ok()) << "P" << n;
    EXPECT_EQ(all.status().code(), StatusCode::kOutOfRange) << all.status();
  }
}

TEST(ThreeColorTest, InteriorSaturationUnderAnEmptyRootAnswersZero) {
  // A 70-vertex path with a K4 hung on its last vertex: not 3-colorable.
  // The path decomposition is rooted at the K4 bag, so the walk counts the
  // 3 * 2^k colorings of ever longer path prefixes — past 2^64 — before the
  // K4 bag empties the root table. Saturation there is no error.
  constexpr VertexId kPath = 70;
  Graph g(kPath + 3);
  for (VertexId v = 0; v + 1 < kPath; ++v) g.AddEdge(v, v + 1);
  const std::vector<VertexId> k4 = {kPath - 1, kPath, kPath + 1, kPath + 2};
  for (size_t i = 0; i < k4.size(); ++i) {
    for (size_t j = i + 1; j < k4.size(); ++j) g.AddEdge(k4[i], k4[j]);
  }
  TreeDecomposition td;
  TdNodeId parent = td.AddNode({k4.begin(), k4.end()});
  for (VertexId v = kPath - 1; v-- > 0;) parent = td.AddNode({v, v + 1}, parent);
  EngineOptions options;
  options.decomposition = td;
  auto count =
      Engine::FromGraph(g, options).Solve(Problem::kThreeColorCount);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->count, 0u);
  EXPECT_FALSE(count->feasible);
}

}  // namespace
}  // namespace treedl
