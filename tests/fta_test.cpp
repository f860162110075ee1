#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "fta/tree_automaton.hpp"
#include "fta/type_automaton.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algorithms.hpp"
#include "td/heuristics.hpp"

#include "test_util.hpp"

namespace treedl::fta {
namespace {

// Automaton over labels {a=0, b=1} accepting trees with an even number of
// a-labels. States: 0 = even, 1 = odd.
TreeAutomaton EvenAAutomaton() {
  TreeAutomaton m(2, 2);
  auto add = [&](LabelId label, std::vector<StateId> children, StateId target) {
    EXPECT_TRUE(m.AddTransition(label, std::move(children), target).ok());
  };
  for (LabelId label : {0, 1}) {
    int flip = label == 0 ? 1 : 0;
    add(label, {}, flip == 1 ? 1 : 0);
    for (StateId c : {0, 1}) {
      add(label, {c}, (c + flip) % 2);
      for (StateId c2 : {0, 1}) {
        add(label, {c, c2}, (c + c2 + flip) % 2);
      }
    }
  }
  m.SetAccepting(0);
  return m;
}

LabeledTree Chain(const std::vector<LabelId>& labels) {
  LabeledTree t;
  int prev = -1;
  for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
    prev = t.AddNode(*it, prev == -1 ? std::vector<int>{}
                                     : std::vector<int>{prev});
  }
  t.root = prev;
  return t;
}

TEST(TreeAutomatonTest, RunAndAccept) {
  TreeAutomaton m = EvenAAutomaton();
  EXPECT_TRUE(m.Accepts(Chain({1, 1})).value());     // zero a's: even
  EXPECT_FALSE(m.Accepts(Chain({0, 1})).value());    // one a
  EXPECT_TRUE(m.Accepts(Chain({0, 0, 1})).value());  // two a's
  // Branching tree: a(a, a) has three a's -> odd.
  LabeledTree t;
  int l = t.AddNode(0);
  int r = t.AddNode(0);
  t.root = t.AddNode(0, {l, r});
  EXPECT_FALSE(m.Accepts(t).value());
}

TEST(TreeAutomatonTest, MissingTransitionRejects) {
  TreeAutomaton m(1, 2);
  ASSERT_TRUE(m.AddTransition(0, {}, 0).ok());
  m.SetAccepting(0);
  EXPECT_TRUE(m.Accepts(Chain({0})).value());
  EXPECT_FALSE(m.Accepts(Chain({1})).value());  // no transition for label 1
}

TEST(TreeAutomatonTest, DeterminismEnforced) {
  TreeAutomaton m(2, 1);
  ASSERT_TRUE(m.AddTransition(0, {}, 0).ok());
  EXPECT_EQ(m.AddTransition(0, {}, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(m.AddTransition(0, {}, 0).ok());  // idempotent re-add
}

TEST(TreeAutomatonTest, ProductConjunction) {
  // Even-a automaton against "root label is a" automaton.
  TreeAutomaton even = EvenAAutomaton();
  TreeAutomaton root_a(2, 2);  // state 1 iff node label is a
  for (LabelId label : {0, 1}) {
    StateId target = label == 0 ? 1 : 0;
    ASSERT_TRUE(root_a.AddTransition(label, {}, target).ok());
    for (StateId c : {0, 1}) {
      ASSERT_TRUE(root_a.AddTransition(label, {c}, target).ok());
      for (StateId c2 : {0, 1}) {
        ASSERT_TRUE(root_a.AddTransition(label, {c, c2}, target).ok());
      }
    }
  }
  root_a.SetAccepting(1);
  auto both = TreeAutomaton::Product(even, root_a, /*conjunction=*/true);
  ASSERT_TRUE(both.ok());
  EXPECT_TRUE(both->Accepts(Chain({0, 0})).value());   // two a's, root a
  EXPECT_FALSE(both->Accepts(Chain({1, 0, 0})).value());  // root b
  EXPECT_FALSE(both->Accepts(Chain({0})).value());     // odd a's
}

TEST(TreeAutomatonTest, CompleteAndComplement) {
  TreeAutomaton partial(1, 2);
  ASSERT_TRUE(partial.AddTransition(0, {}, 0).ok());
  partial.SetAccepting(0);
  EXPECT_FALSE(partial.IsComplete());
  TreeAutomaton complete = partial.Complete();
  EXPECT_TRUE(complete.IsComplete());
  auto complement = complete.Complement();
  ASSERT_TRUE(complement.ok());
  EXPECT_TRUE(complete.Accepts(Chain({0})).value());
  EXPECT_FALSE(complement->Accepts(Chain({0})).value());
  EXPECT_FALSE(complete.Accepts(Chain({1})).value());
  EXPECT_TRUE(complement->Accepts(Chain({1})).value());
  // Complement of an incomplete automaton is rejected.
  EXPECT_FALSE(partial.Complement().ok());
}

TEST(TreeAutomatonTest, EmptinessViaReachability) {
  TreeAutomaton m(3, 1);
  ASSERT_TRUE(m.AddTransition(0, {}, 0).ok());
  ASSERT_TRUE(m.AddTransition(0, {0}, 1).ok());
  // State 2 has no incoming transition chain from leaves.
  ASSERT_TRUE(m.AddTransition(0, {2}, 2).ok());
  m.SetAccepting(2);
  EXPECT_TRUE(m.IsLanguageEmpty());
  m.SetAccepting(1);
  EXPECT_FALSE(m.IsLanguageEmpty());
  auto reachable = m.ReachableStates();
  EXPECT_TRUE(reachable.count(0));
  EXPECT_TRUE(reachable.count(1));
  EXPECT_FALSE(reachable.count(2));
}

// The §5.1 DP on the same decomposition, via a session pinned to it.
StatusOr<Engine::SolveResult> SolveOn(const Graph& g,
                                      const TreeDecomposition& td,
                                      RunStats* stats) {
  EngineOptions options;
  options.decomposition = td;
  options.extract_witness = false;
  return Engine::FromGraph(g, options)
      .Solve(Engine::Problem::kThreeColor, stats);
}

TEST(TypeAutomatonTest, MeasuresSubsetStates) {
  Rng rng(TestSeed());
  Graph g = RandomPartialKTree(14, 3, 0.8, &rng);
  auto td = Decompose(g);
  ASSERT_TRUE(td.ok());
  auto usage = MeasureThreeColorAutomaton(g, *td);
  ASSERT_TRUE(usage.ok()) << usage.status();
  EXPECT_GT(usage->distinct_subset_states, 0u);
  EXPECT_GT(usage->total_facts, 0u);
  EXPECT_GE(usage->max_subset_size, 1u);
  // Consistency with the solver (whatever the verdict is for this seed).
  auto solve = SolveOn(g, *td, nullptr);
  ASSERT_TRUE(solve.ok());
  EXPECT_EQ(solve->feasible, BruteForceColoring(g, 3).has_value());
}

TEST(TypeAutomatonTest, FactCountTracksDatalogStates) {
  // The determinized automaton's total facts equal the datalog approach's
  // total solve() facts (they enumerate the same per-node sets).
  Graph g = CycleGraph(8);
  auto td = Decompose(g);
  ASSERT_TRUE(td.ok());
  auto usage = MeasureThreeColorAutomaton(g, *td);
  ASSERT_TRUE(usage.ok());
  RunStats stats;
  auto solve = SolveOn(g, *td, &stats);
  ASSERT_TRUE(solve.ok());
  EXPECT_EQ(usage->total_facts, stats.dp_states);
}

}  // namespace
}  // namespace treedl::fta
