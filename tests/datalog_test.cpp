#include <gtest/gtest.h>

#include "datalog/analysis.hpp"
#include "datalog/eval.hpp"
#include "datalog/grounder.hpp"
#include "datalog/ltur.hpp"
#include "datalog/parser.hpp"
#include "datalog/tau_td.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "structure/structure_io.hpp"
#include "td/heuristics.hpp"

#include "test_util.hpp"

namespace treedl::datalog {
namespace {

// --- Parser ------------------------------------------------------------------

TEST(ParserTest, BasicRulesAndFacts) {
  auto program = ParseProgram(
      "edge(a, b). edge(b, c).\n"
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Y) :- edge(X, Z), path(Z, Y).\n");
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->NumRules(), 4u);
  EXPECT_EQ(program->signature().size(), 2);
  EXPECT_EQ(program->signature().arity(
                program->signature().PredicateIdOf("path").value()),
            2);
}

TEST(ParserTest, VariablesVsConstants) {
  auto program = ParseProgram("p(X) :- q(X, abc), r(_y, X).");
  ASSERT_TRUE(program.ok());
  const Rule& rule = program->rules()[0];
  EXPECT_TRUE(rule.body[0].atom.args[0].IsVar());
  EXPECT_FALSE(rule.body[0].atom.args[1].IsVar());
  EXPECT_EQ(rule.body[0].atom.args[1].constant, "abc");
  EXPECT_TRUE(rule.body[1].atom.args[0].IsVar());  // _y is a variable
}

TEST(ParserTest, NegationForms) {
  auto program = ParseProgram("p(X) :- q(X), not r(X).\np(X) :- q(X), \\+ s(X).");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(program->rules()[0].body[1].positive);
  EXPECT_FALSE(program->rules()[1].body[1].positive);
}

TEST(ParserTest, ZeroArityAtoms) {
  auto program = ParseProgram("success :- root(V), good(V).");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->rules()[0].head.args.size(), 0u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseProgram("p(X) :- q(X)").ok());        // missing '.'
  EXPECT_FALSE(ParseProgram("p(X, Y) :- p(X).").ok());    // arity clash
  EXPECT_FALSE(ParseProgram("p(X).").ok());               // non-ground fact
  EXPECT_FALSE(ParseProgram("p(X) :- .").ok());           // empty body
  EXPECT_FALSE(ParseProgram("1p(a).").ok());              // bad name
}

TEST(ParserTest, RoundTripThroughToString) {
  std::string text =
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
      "bad(X) :- node(X), not path(a, X).\n";
  auto p1 = ParseProgram(text);
  ASSERT_TRUE(p1.ok());
  auto p2 = ParseProgram(p1->ToString());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1->ToString(), p2->ToString());
}

// --- Analysis ----------------------------------------------------------------

TEST(AnalysisTest, IntensionalClassificationAndMonadicity) {
  auto program = ParseProgram(
      "reach(X) :- start(X).\n"
      "reach(Y) :- reach(X), edge(X, Y).\n");
  ASSERT_TRUE(program.ok());
  auto info = AnalyzeProgram(*program);
  ASSERT_TRUE(info.ok());
  PredicateId reach = program->signature().PredicateIdOf("reach").value();
  PredicateId edge = program->signature().PredicateIdOf("edge").value();
  EXPECT_TRUE(info->intensional[static_cast<size_t>(reach)]);
  EXPECT_FALSE(info->intensional[static_cast<size_t>(edge)]);
  EXPECT_TRUE(info->is_monadic);

  auto binary = ParseProgram("path(X, Y) :- edge(X, Y).");
  EXPECT_FALSE(AnalyzeProgram(*binary)->is_monadic);
}

TEST(AnalysisTest, PlansOrderIntensionalLiteralsFirst) {
  // The recursive rule is written EDB-first, but the full (round 0) plan
  // schedules the intensional literal at position 0, and so does the rule's
  // one delta variant, which always starts from its delta literal.
  auto program = ParseProgram(
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- edge(X, Y), path(Y, Z).\n");
  ASSERT_TRUE(program.ok());
  auto info = AnalyzeProgram(*program);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->plans[1].size(), 2u);
  EXPECT_EQ(info->plans[1][0], 1u);  // path(Y, Z) scheduled first
  EXPECT_EQ(info->plans[1][1], 0u);
  EXPECT_EQ(info->delta_plans[0], std::vector<std::vector<size_t>>{});
  EXPECT_EQ(info->delta_plans[1], (std::vector<std::vector<size_t>>{{1, 0}}));

  // Fully-bound negatives still schedule ahead of intensional positives.
  auto negated = ParseProgram(
      "odd(Y) :- even(X), succ(X, Y).\n"
      "even(Y) :- odd(X), succ(X, Y), not blocked(Y).\n");
  ASSERT_TRUE(negated.ok());
  auto neg_info = AnalyzeProgram(*negated);
  ASSERT_TRUE(neg_info.ok());
  ASSERT_EQ(neg_info->plans[1].size(), 3u);
  EXPECT_EQ(neg_info->plans[1][0], 0u);  // odd(X): intensional, first
  EXPECT_EQ(neg_info->plans[1][1], 1u);  // succ binds Y
  EXPECT_EQ(neg_info->plans[1][2], 2u);  // negative filter last
  EXPECT_EQ(neg_info->delta_plans[1],
            (std::vector<std::vector<size_t>>{{0, 1, 2}}));
}

TEST(AnalysisTest, RejectsUnsafeRules) {
  // Head variable not range-restricted.
  auto p1 = ParseProgram("p(Y) :- q(X).");
  EXPECT_FALSE(AnalyzeProgram(*p1).ok());
  // Negation over a variable never bound positively.
  auto p2 = ParseProgram("p(X) :- q(X), not r(X, Z).");
  EXPECT_FALSE(AnalyzeProgram(*p2).ok());
  // Negation of an intensional predicate.
  auto p3 = ParseProgram("p(X) :- q(X), not p(X).");
  EXPECT_FALSE(AnalyzeProgram(*p3).ok());
}

TEST(AnalysisTest, QuasiGuardDetection) {
  // The Thm 4.5 rule shapes: bag guards everything through child1/child2.
  auto program = ParseProgram(
      "theta(V) :- bag(V, X0, X1), child1(V1, V), theta2(V1), "
      "bag(V1, X0, X1).\n"
      "phi(X0) :- theta(V), theta2(V), bag(V, X0, X1).\n"
      "success :- root(V), theta(V).\n");
  ASSERT_TRUE(program.ok());
  auto guards = FindQuasiGuards(*program);
  ASSERT_TRUE(guards.ok()) << guards.status();
  EXPECT_TRUE(CheckQuasiGuarded(*program).ok());
}

TEST(AnalysisTest, NonQuasiGuardedDetected) {
  // Transitive closure: no single extensional atom covers both X and Y of the
  // recursive rule, and edge atoms carry no functional dependencies.
  auto program = ParseProgram(
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Y) :- edge(X, Z), path(Z, Y).\n");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(CheckQuasiGuarded(*program).ok());
}

// --- Evaluation ---------------------------------------------------------------

Structure PathEdb(size_t n) {
  Structure edb(Signature::GraphSignature());
  for (size_t i = 0; i < n; ++i) edb.AddElement("v" + std::to_string(i));
  for (size_t i = 0; i + 1 < n; ++i) {
    EXPECT_TRUE(edb.AddFact(0, {static_cast<ElementId>(i),
                                static_cast<ElementId>(i + 1)})
                    .ok());
  }
  return edb;
}

TEST(EvalTest, TransitiveClosureNaive) {
  auto program = ParseProgram(
      "path(X, Y) :- e(X, Y).\n"
      "path(X, Y) :- e(X, Z), path(Z, Y).\n");
  ASSERT_TRUE(program.ok());
  Structure edb = PathEdb(5);
  auto result = NaiveEvaluate(*program, edb);
  ASSERT_TRUE(result.ok()) << result.status();
  PredicateId path = result->signature().PredicateIdOf("path").value();
  // Path on 5 vertices: C(5,2) = 10 ordered reachable pairs.
  EXPECT_EQ(result->Relation(path).size(), 10u);
  EXPECT_TRUE(result->HasFact(path, {0, 4}));
  EXPECT_FALSE(result->HasFact(path, {4, 0}));
}

TEST(EvalTest, SemiNaiveMatchesNaive) {
  auto program = ParseProgram(
      "path(X, Y) :- e(X, Y).\n"
      "path(X, Y) :- e(X, Z), path(Z, Y).\n"
      "sink(X) :- e(X, X).\n");
  ASSERT_TRUE(program.ok());
  Rng rng(TestSeed());
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = RandomGnp(8, 0.3, &rng);
    Structure edb = GraphToStructure(g);
    RunStats naive_stats, semi_stats;
    auto naive = NaiveEvaluate(*program, edb, &naive_stats);
    auto semi = SemiNaiveEvaluate(*program, edb, &semi_stats);
    ASSERT_TRUE(naive.ok() && semi.ok());
    EXPECT_TRUE(*naive == *semi) << "trial " << trial;
    EXPECT_EQ(naive_stats.derived_facts, semi_stats.derived_facts);
  }
}

TEST(EvalTest, SemiNaiveDoesLessWorkThanNaive) {
  auto program = ParseProgram(
      "path(X, Y) :- e(X, Y).\n"
      "path(X, Y) :- e(X, Z), path(Z, Y).\n");
  Structure edb = PathEdb(30);
  RunStats naive_stats, semi_stats;
  ASSERT_TRUE(NaiveEvaluate(*program, edb, &naive_stats).ok());
  ASSERT_TRUE(SemiNaiveEvaluate(*program, edb, &semi_stats).ok());
  EXPECT_LT(semi_stats.rule_applications, naive_stats.rule_applications);
}

TEST(EvalTest, NegationSemipositive) {
  auto program = ParseProgram(
      "node(X) :- e(X, Y).\n"
      "node(Y) :- e(X, Y).\n"
      "nonsource(Y) :- e(X, Y).\n"
      "source(X) :- node(X), not nonsource(X).\n");
  // source uses negation of an *intensional* predicate -> rejected.
  ASSERT_TRUE(program.ok());
  Structure edb = PathEdb(3);
  EXPECT_FALSE(SemiNaiveEvaluate(*program, edb).ok());

  // Rewritten with extensional negation only.
  auto ok_program = ParseProgram(
      "twohop(X, Z) :- e(X, Y), e(Y, Z), not e(X, Z).\n");
  auto result = SemiNaiveEvaluate(*ok_program, edb);
  ASSERT_TRUE(result.ok());
  PredicateId twohop = result->signature().PredicateIdOf("twohop").value();
  EXPECT_EQ(result->Relation(twohop).size(), 1u);  // v0 -> v2 only
}

TEST(EvalTest, ConstantsInRules) {
  auto program = ParseProgram(
      "from_v0(Y) :- e(v0, Y).\n"
      "self :- e(v1, v2).\n");
  Structure edb = PathEdb(3);
  auto result = SemiNaiveEvaluate(*program, edb);
  ASSERT_TRUE(result.ok());
  PredicateId from = result->signature().PredicateIdOf("from_v0").value();
  ASSERT_EQ(result->Relation(from).size(), 1u);
  PredicateId self = result->signature().PredicateIdOf("self").value();
  EXPECT_TRUE(result->HasFact(self, {}));
}

TEST(EvalTest, ArityClashWithEdbRejected) {
  auto program = ParseProgram("p(X) :- e(X).");  // e is binary in the EDB
  Structure edb = PathEdb(3);
  EXPECT_FALSE(SemiNaiveEvaluate(*program, edb).ok());
}

TEST(EvalTest, RepeatedVariablesInAtom) {
  auto program = ParseProgram("loop(X) :- e(X, X).");
  Structure edb(Signature::GraphSignature());
  ElementId a = edb.AddElement("a"), b = edb.AddElement("b");
  ASSERT_TRUE(edb.AddFact(0, {a, a}).ok());
  ASSERT_TRUE(edb.AddFact(0, {a, b}).ok());
  auto result = SemiNaiveEvaluate(*program, edb);
  ASSERT_TRUE(result.ok());
  PredicateId loop = result->signature().PredicateIdOf("loop").value();
  EXPECT_EQ(result->Relation(loop).size(), 1u);
  EXPECT_TRUE(result->HasFact(loop, {a}));
}

// --- LTUR ---------------------------------------------------------------------

TEST(LturTest, ChainDerivation) {
  // 0 (fact) -> 1 -> 2 -> 3; 4 unreachable.
  std::vector<HornClause> clauses{
      {0, {}}, {1, {0}}, {2, {1}}, {3, {2}}, {4, {3, 5}}};
  auto truth = LturSolve(6, clauses);
  EXPECT_TRUE(truth[0] && truth[1] && truth[2] && truth[3]);
  EXPECT_FALSE(truth[4]);
  EXPECT_FALSE(truth[5]);
}

TEST(LturTest, ConjunctionNeedsAllBodyAtoms) {
  std::vector<HornClause> clauses{{0, {}}, {2, {0, 1}}};
  EXPECT_FALSE(LturSolve(3, clauses)[2]);
  clauses.push_back({1, {}});
  EXPECT_TRUE(LturSolve(3, clauses)[2]);
}

TEST(LturTest, DuplicateBodyAtoms) {
  std::vector<HornClause> clauses{{0, {}}, {1, {0, 0}}};
  EXPECT_TRUE(LturSolve(2, clauses)[1]);
}

TEST(LturTest, CyclesDoNotSelfSupport) {
  // 0 <- 1, 1 <- 0: neither derivable without a fact.
  std::vector<HornClause> clauses{{0, {1}}, {1, {0}}};
  auto truth = LturSolve(2, clauses);
  EXPECT_FALSE(truth[0]);
  EXPECT_FALSE(truth[1]);
}

// --- Grounded evaluation (Thm 4.4) --------------------------------------------

// A small quasi-guarded program over τ_td facts built by hand: propagate a
// "good" marker bottom-up through a chain of nodes.
TEST(GroundedTest, MatchesSemiNaiveOnTauTdProgram) {
  std::string program_text =
      "good(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).\n"
      "good(V) :- bag(V, X0, X1), child1(V1, V), good(V1), "
      "bag(V1, Y0, Y1).\n"
      "success :- root(V), good(V).\n";
  auto program = ParseProgram(program_text);
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(CheckQuasiGuarded(*program).ok());

  // τ_td structure of a path graph's decomposition.
  Graph g = PathGraph(6);
  Structure a = GraphToStructure(g);
  auto raw = DecomposeStructure(a);
  ASSERT_TRUE(raw.ok());
  auto tuple_td = NormalizeTuple(*raw);
  ASSERT_TRUE(tuple_td.ok());
  auto atd = BuildTauTd(a, *tuple_td);
  ASSERT_TRUE(atd.ok()) << atd.status();

  auto semi = SemiNaiveEvaluate(*program, atd->structure);
  RunStats stats;
  auto grounded = GroundedEvaluate(*program, atd->structure, &stats);
  ASSERT_TRUE(semi.ok()) << semi.status();
  ASSERT_TRUE(grounded.ok()) << grounded.status();
  EXPECT_TRUE(*semi == *grounded);
  EXPECT_GT(stats.ground_clauses, 0u);
}

TEST(GroundedTest, RejectsNonQuasiGuarded) {
  auto program = ParseProgram(
      "path(X, Y) :- e(X, Y).\n"
      "path(X, Y) :- e(X, Z), path(Z, Y).\n");
  Structure edb = PathEdb(4);
  EXPECT_FALSE(GroundedEvaluate(*program, edb).ok());
}

TEST(GroundedTest, GroundProgramSizeLinearInData) {
  // Thm 4.4: ground instances per rule bounded by guard instantiations.
  std::string program_text =
      "good(V) :- bag(V, X0, X1), leaf(V), e(X0, X1).\n"
      "good(V) :- bag(V, X0, X1), child1(V1, V), good(V1), "
      "bag(V1, Y0, Y1).\n";
  auto program = ParseProgram(program_text);
  size_t previous_clauses = 0;
  for (size_t n : {8u, 16u, 32u}) {
    Graph g = PathGraph(n);
    Structure a = GraphToStructure(g);
    auto tuple_td = NormalizeTuple(*DecomposeStructure(a));
    ASSERT_TRUE(tuple_td.ok());
    auto atd = BuildTauTd(a, *tuple_td);
    ASSERT_TRUE(atd.ok());
    RunStats stats;
    ASSERT_TRUE(GroundedEvaluate(*program, atd->structure, &stats).ok());
    // Clause count grows with n but stays well below quadratic.
    EXPECT_LT(stats.ground_clauses, 20 * n);
    EXPECT_GT(stats.ground_clauses, previous_clauses);
    previous_clauses = stats.ground_clauses;
  }
}

// --- τ_td encoding -------------------------------------------------------------

TEST(TauTdTest, EncodingShape) {
  Graph g = CycleGraph(5);
  Structure a = GraphToStructure(g);
  auto tuple_td = NormalizeTuple(*DecomposeStructure(a));
  ASSERT_TRUE(tuple_td.ok());
  auto atd = BuildTauTd(a, *tuple_td);
  ASSERT_TRUE(atd.ok());
  const Structure& s = atd->structure;
  EXPECT_EQ(s.NumElements(), a.NumElements() + tuple_td->NumNodes());
  PredicateId root_p = s.signature().PredicateIdOf("root").value();
  PredicateId leaf_p = s.signature().PredicateIdOf("leaf").value();
  PredicateId bag_p = s.signature().PredicateIdOf("bag").value();
  PredicateId child1_p = s.signature().PredicateIdOf("child1").value();
  PredicateId child2_p = s.signature().PredicateIdOf("child2").value();
  EXPECT_EQ(s.Relation(root_p).size(), 1u);
  EXPECT_EQ(s.Relation(bag_p).size(), tuple_td->NumNodes());
  EXPECT_EQ(s.signature().arity(bag_p), tuple_td->width() + 2);
  // Every non-root node is someone's first or second child.
  EXPECT_EQ(s.Relation(child1_p).size() + s.Relation(child2_p).size(),
            tuple_td->NumNodes() - 1);
  EXPECT_GE(s.Relation(leaf_p).size(), 1u);
}

TEST(TauTdTest, RejectsSignatureCollision) {
  Signature sig = Signature::Make({{"bag", 1}}).value();
  Structure a(sig);
  a.AddElement("x");
  ASSERT_TRUE(a.AddFact(0, {0}).ok());
  TreeDecomposition raw;
  raw.AddNode({0});
  auto tuple_td = NormalizeTuple(raw);
  ASSERT_TRUE(tuple_td.ok());
  EXPECT_FALSE(BuildTauTd(a, *tuple_td).ok());
}

}  // namespace
}  // namespace treedl::datalog
