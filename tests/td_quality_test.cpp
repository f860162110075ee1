// The decomposition-quality property suite: the no-regression guarantees of
// the cost-guarded width reduction, the width bound of the order extracted
// from a decomposition, and determinism of the anytime improvement hook
// (ImproveTd, Engine::ImproveDecomposition) at every thread count.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/work_budget.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "td/elimination_order.hpp"
#include "td/heuristics.hpp"
#include "td/improve.hpp"
#include "td/validate.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

/// A mixed bag of seeded instances: bounded-treewidth partial k-trees plus
/// G(n, p) graphs with no width guarantee (isolated vertices, pendants and
/// dense pockets alike).
std::vector<Graph> RandomInstances(Rng* rng, size_t count, size_t n) {
  std::vector<Graph> graphs;
  for (size_t i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      graphs.push_back(RandomPartialKTree(n, 3, 0.7, rng));
    } else {
      graphs.push_back(RandomGnp(n, 3.0 / static_cast<double>(n), rng));
    }
  }
  return graphs;
}

TEST(TdQualityTest, WidthReduceShrinksRawTreePreservingValidity) {
  Rng rng(TestSeed());
  for (const Graph& graph : RandomInstances(&rng, 10, 36)) {
    auto td = Decompose(graph, TdHeuristic::kMinFill);
    ASSERT_TRUE(td.ok());
    int width = td->Width();
    TreeDecomposition reduced = *td;
    size_t merges = WidthReduce(&reduced);
    EXPECT_TRUE(ValidateForGraph(graph, reduced).ok());
    EXPECT_LE(reduced.Width(), width);
    EXPECT_EQ(reduced.NumNodes() + merges, td->NumNodes());
    // The guarded variant additionally never lets the normal form get more
    // expensive — it reverts the merges when they would.
    TreeDecomposition guarded = *td;
    ASSERT_TRUE(CostGuardedWidthReduce(&guarded).ok());
    EXPECT_TRUE(ValidateForGraph(graph, guarded).ok());
    EXPECT_LE(guarded.Width(), width);
    EXPECT_LE(NormalizedDpCost(guarded).value(),
              NormalizedDpCost(*td).value());
  }
}

TEST(TdQualityTest, EliminationOrderFromTdKeepsWidth) {
  Rng rng(TestSeed());
  for (const Graph& graph : RandomInstances(&rng, 10, 36)) {
    auto td = Decompose(graph, TdHeuristic::kMinFill);
    ASSERT_TRUE(td.ok());
    std::vector<VertexId> order = EliminationOrderFromTd(graph, *td);
    ASSERT_EQ(order.size(), graph.NumVertices());
    auto rebuilt = DecompositionFromOrder(graph, order);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    EXPECT_LE(rebuilt->Width(), td->Width());
  }
}

TEST(TdQualityTest, ImproveTdIsDeterministicAndMonotone) {
  Rng rng(TestSeed());
  for (const Graph& graph : RandomInstances(&rng, 6, 36)) {
    auto td = Decompose(graph, TdHeuristic::kMinFill);
    ASSERT_TRUE(td.ok());
    ImproveOptions iopts;
    iopts.seed = TestSeed(1);
    iopts.max_rounds = 32;
    auto first = ImproveTd(graph, *td, iopts);
    ASSERT_TRUE(first.ok()) << first.status();
    // Never worse than the input, and the outcome fields agree with the
    // returned tree.
    EXPECT_LE(first->width_after, first->width_before);
    if (first->width_after == first->width_before) {
      EXPECT_LE(first->cost_after, first->cost_before);
    }
    EXPECT_TRUE(ValidateForGraph(graph, first->td).ok());
    EXPECT_EQ(first->td.Width(), first->width_after);
    EXPECT_EQ(NormalizedDpCost(first->td).value(), first->cost_after);
    // Same seed, same everything.
    auto second = ImproveTd(graph, *td, iopts);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first->width_after, second->width_after);
    EXPECT_EQ(first->cost_after, second->cost_after);
    EXPECT_EQ(first->rounds, second->rounds);
    EXPECT_EQ(first->accepted, second->accepted);
    // A budget bounds the rounds exactly and exhaustion is not an error.
    WorkBudget budget;
    budget.SetDeadline(5);
    auto bounded = ImproveTd(graph, *td, iopts, &budget);
    ASSERT_TRUE(bounded.ok()) << bounded.status();
    EXPECT_LE(bounded->rounds, 5u);
  }
}

TEST(TdQualityTest, ImproveDecompositionPreservesAnswersDeterministically) {
  Rng rng(TestSeed());
  for (const Graph& graph : RandomInstances(&rng, 3, 32)) {
    std::optional<Engine::ImproveResult> reference;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      EngineOptions options;
      options.num_threads = threads;
      Engine engine = Engine::FromGraph(graph, options);
      auto before = engine.SolveAll();
      ASSERT_TRUE(before.ok()) << before.status();
      WorkBudget budget;
      budget.SetDeadline(24);
      RunStats run;
      auto improved = engine.ImproveDecomposition(&run, &budget);
      ASSERT_TRUE(improved.ok()) << improved.status();
      EXPECT_LE(improved->rounds, 24u);
      EXPECT_EQ(run.improve_rounds, improved->rounds);
      EXPECT_LE(improved->width_after, improved->width_before);
      // The improvement is a pure function of the session input: every
      // thread count sees the identical outcome.
      if (!reference.has_value()) {
        reference = *improved;
      } else {
        EXPECT_EQ(improved->improved, reference->improved);
        EXPECT_EQ(improved->width_after, reference->width_after);
        EXPECT_EQ(improved->cost_after, reference->cost_after);
        EXPECT_EQ(improved->rounds, reference->rounds);
      }
      // Swapping the decomposition must not change a single answer.
      auto after = engine.SolveAll();
      ASSERT_TRUE(after.ok()) << after.status();
      EXPECT_EQ(after->three_colorable, before->three_colorable);
      EXPECT_EQ(after->three_colorings, before->three_colorings);
      EXPECT_EQ(after->min_vertex_cover, before->min_vertex_cover);
      EXPECT_EQ(after->max_independent_set, before->max_independent_set);
      EXPECT_EQ(after->min_dominating_set, before->min_dominating_set);
    }
  }
}

}  // namespace
}  // namespace treedl
