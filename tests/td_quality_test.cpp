// The decomposition-quality pipeline's property suite: soundness of every
// preprocessing reduction (against the exact treewidth and against the
// engine's five graph DPs), the no-regression guarantees of the
// width-reduce pass and the full pipeline, and determinism of the anytime
// improvement hook at every thread count.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/work_budget.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "td/elimination_order.hpp"
#include "td/heuristics.hpp"
#include "td/improve.hpp"
#include "td/preprocess.hpp"
#include "td/validate.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

/// A mixed bag of seeded instances: bounded-treewidth partial k-trees plus
/// G(n, p) graphs with no width guarantee (isolated vertices, pendants and
/// dense pockets alike), so every reduction rule gets exercised.
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

TEST(TdQualityTest, PreprocessSpliceBackIsValidAndWidthSafe) {
  Rng rng(TestSeed());
  for (const Graph& graph : RandomInstances(&rng, 12, 40)) {
    PreprocessResult pre = Preprocess(graph);
    ASSERT_EQ(pre.reduced.NumVertices() + pre.eliminated.size(),
              graph.NumVertices());
    TreeDecomposition reduced_td;
    int reduced_width = -1;
    if (pre.reduced.NumVertices() > 0) {
      auto td = Decompose(pre.reduced, TdHeuristic::kMinFill);
      ASSERT_TRUE(td.ok()) << td.status();
      ASSERT_TRUE(ValidateForGraph(pre.reduced, *td).ok());
      reduced_width = td->Width();
      reduced_td = std::move(td).value();
    }
    auto spliced = SpliceBack(pre, reduced_td);
    ASSERT_TRUE(spliced.ok()) << spliced.status();
    EXPECT_TRUE(ValidateForGraph(graph, *spliced).ok());
    // Width safety: tw(G) = max(tw(reduced), lower_bound), and every splice
    // bag has size deg(v) + 1 <= max(lower_bound, reduced width) + 1.
    EXPECT_LE(spliced->Width(), std::max(reduced_width, pre.lower_bound));
  }
}

TEST(TdQualityTest, ReductionsPreserveExactTreewidthOnSmallGraphs) {
  Rng rng(TestSeed());
  for (const Graph& graph : RandomInstances(&rng, 10, 16)) {
    PreprocessResult pre = Preprocess(graph);
    int exact = ExactTreewidth(graph).value();
    EXPECT_LE(pre.lower_bound, exact);
    // The invariant the rules maintain: tw(G) = max(tw(reduced), lb).
    int reduced_exact =
        pre.reduced.NumVertices() > 0 ? ExactTreewidth(pre.reduced).value() : 0;
    EXPECT_EQ(std::max(reduced_exact, pre.lower_bound), exact);
    // The pipeline can never beat the exact width, and never loses to the
    // plain min-fill order.
    PipelineOptions popts;
    popts.seed = TestSeed(1);
    auto pipeline = DecomposePipeline(graph, popts);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    EXPECT_TRUE(ValidateForGraph(graph, *pipeline).ok());
    EXPECT_GE(pipeline->Width(), exact);
    auto plain = Decompose(graph, TdHeuristic::kMinFill);
    ASSERT_TRUE(plain.ok());
    EXPECT_LE(pipeline->Width(), plain->Width());
  }
}

TEST(TdQualityTest, PipelineNeverRegressesWidthOrCost) {
  Rng rng(TestSeed());
  for (const Graph& graph : RandomInstances(&rng, 10, 36)) {
    auto plain = Decompose(graph, TdHeuristic::kMinFill);
    ASSERT_TRUE(plain.ok());
    PipelineOptions popts;
    popts.seed = TestSeed(1);
    PipelineStats stats;
    auto pipeline = DecomposePipeline(graph, popts, &stats);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    EXPECT_TRUE(ValidateForGraph(graph, *pipeline).ok());
    EXPECT_LE(pipeline->Width(), plain->Width());
    EXPECT_LE(NormalizedDpCost(*pipeline).value(),
              NormalizedDpCost(*plain).value());
    EXPECT_EQ(stats.baseline_width, plain->Width());
  }
}

TEST(TdQualityTest, WidthReduceShrinksRawTreePreservingValidity) {
  Rng rng(TestSeed());
  for (const Graph& graph : RandomInstances(&rng, 10, 36)) {
    auto td = Decompose(graph, TdHeuristic::kMinFill);
    ASSERT_TRUE(td.ok());
    uint64_t raw_cost = ModeledTdCost(*td);
    int width = td->Width();
    TreeDecomposition reduced = *td;
    size_t merges = WidthReduce(&reduced);
    EXPECT_TRUE(ValidateForGraph(graph, reduced).ok());
    EXPECT_LE(reduced.Width(), width);
    EXPECT_EQ(reduced.NumNodes() + merges, td->NumNodes());
    if (merges > 0) {
      EXPECT_LT(ModeledTdCost(reduced), raw_cost);
    }
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

/// The satellite invariant: a pipeline session answers every one of the five
/// graph DPs bit-identically to a default session, at thread count 1
/// and 8 alike, and its decomposition is never wider.
TEST(TdQualityTest, PipelineEngineAnswersMatchDefaultAtAnyThreadCount) {
  Rng rng(TestSeed());
  for (const Graph& graph : RandomInstances(&rng, 4, 32)) {
    std::optional<Engine::SolveAllResult> reference;
    std::optional<int> reference_width;
    for (bool pipeline : {false, true}) {
      std::optional<std::vector<int>> coloring_at_one;
      for (size_t threads : {size_t{1}, size_t{8}}) {
        EngineOptions options;
        options.num_threads = threads;
        options.td_pipeline = pipeline;
        Engine engine = Engine::FromGraph(graph, options);
        auto all = engine.SolveAll();
        ASSERT_TRUE(all.ok()) << all.status();
        if (!reference.has_value()) {
          reference = *all;
          reference_width = engine.Width().value();
        } else {
          EXPECT_EQ(all->three_colorable, reference->three_colorable);
          EXPECT_EQ(all->three_colorings, reference->three_colorings);
          EXPECT_EQ(all->min_vertex_cover, reference->min_vertex_cover);
          EXPECT_EQ(all->max_independent_set, reference->max_independent_set);
          EXPECT_EQ(all->min_dominating_set, reference->min_dominating_set);
        }
        if (pipeline) {
          // Reduced decomposition never wider than the default one.
          EXPECT_LE(engine.Width().value(), reference_width.value());
        }
        // Witnesses are decomposition-dependent, so they may differ between
        // the default and pipeline sessions — but within one configuration
        // they must be bit-identical at every thread count, and always a
        // proper coloring.
        if (!coloring_at_one.has_value()) {
          coloring_at_one = all->coloring;
        } else {
          EXPECT_EQ(all->coloring, coloring_at_one);
        }
        if (all->coloring.has_value()) {
          const std::vector<int>& colors = *all->coloring;
          ASSERT_EQ(colors.size(), graph.NumVertices());
          for (auto [u, v] : graph.Edges()) {
            EXPECT_NE(colors[u], colors[v]);
          }
        }
      }
    }
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
