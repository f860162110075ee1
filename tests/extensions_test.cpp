#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algorithms.hpp"

namespace treedl {
namespace {

using Problem = Engine::Problem;

size_t Optimum(Engine& engine, Problem problem) {
  auto result = engine.Solve(problem);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? result->optimum : 0;
}

void ExpectOptima(const Graph& g, size_t vc, size_t is, size_t ds) {
  Engine engine = Engine::FromGraph(g);
  EXPECT_EQ(Optimum(engine, Problem::kVertexCover), vc);
  EXPECT_EQ(Optimum(engine, Problem::kIndependentSet), is);
  EXPECT_EQ(Optimum(engine, Problem::kDominatingSet), ds);
}

TEST(ExtensionsTest, KnownGraphs) {
  ExpectOptima(CycleGraph(5), 3, 2, 2);

  Graph star(6);
  for (VertexId v = 1; v < 6; ++v) star.AddEdge(0, v);
  ExpectOptima(star, 1, 5, 1);

  ExpectOptima(CompleteGraph(4), 3, 1, 1);
  ExpectOptima(Graph(4), 0, 4, 4);  // edgeless
  ExpectOptima(PetersenGraph(), 6, 4, 3);
}

class ExtensionsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExtensionsPropertyTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 1);
  Graph g = RandomPartialKTree(11, 3, 0.7, &rng);
  ExpectOptima(g, MinVertexCoverBruteForce(g), MaxIndependentSetBruteForce(g),
               MinDominatingSetBruteForce(g));
}

TEST_P(ExtensionsPropertyTest, GallaiIdentity) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 13 + 2);
  Graph g = RandomPartialKTree(16, 3, 0.6, &rng);
  Engine engine = Engine::FromGraph(g);
  // min VC + max IS = n, checked DP-vs-DP at sizes beyond the brute force.
  EXPECT_EQ(Optimum(engine, Problem::kVertexCover) +
                Optimum(engine, Problem::kIndependentSet),
            g.NumVertices());
  // DS never exceeds VC on graphs without isolated vertices; with possible
  // isolated vertices only the trivial bound DS <= n holds, so check that.
  EXPECT_LE(Optimum(engine, Problem::kDominatingSet), g.NumVertices());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtensionsPropertyTest, ::testing::Range(0, 15));

TEST(ExtensionsTest, RejectsInvalidDecomposition) {
  Graph g = CycleGraph(4);
  TreeDecomposition bad;
  bad.AddNode({0});
  EngineOptions options;
  options.decomposition = bad;
  Engine engine = Engine::FromGraph(g, options);
  for (Problem problem : {Problem::kVertexCover, Problem::kIndependentSet,
                          Problem::kDominatingSet}) {
    EXPECT_FALSE(engine.Solve(problem).ok());
  }
}

}  // namespace
}  // namespace treedl
