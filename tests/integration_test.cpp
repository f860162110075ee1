// End-to-end flows across module boundaries, mirroring the example binaries.
#include <gtest/gtest.h>

#include "datalog/eval.hpp"
#include "datalog/grounder.hpp"
#include "datalog/parser.hpp"
#include "engine/engine.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "graph/graph_algorithms.hpp"
#include "mso/evaluator.hpp"
#include "mso/formulas.hpp"
#include "schema/encode.hpp"
#include "schema/generators.hpp"
#include "schema/primality_bruteforce.hpp"
#include "td/heuristics.hpp"
#include "td/normalize.hpp"
#include "td/validate.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

TEST(IntegrationTest, SchemaTextToPrimes) {
  // Parse text -> encode -> decompose -> enumerate, no manual plumbing.
  auto schema = Schema::Parse(
      "a b -> c\n"
      "c -> b\n"
      "c d -> e\n"
      "d e -> g\n"
      "g -> e\n");
  ASSERT_TRUE(schema.ok());
  auto primes = Engine(*schema).AllPrimes();
  ASSERT_TRUE(primes.ok()) << primes.status();
  std::vector<std::string> prime_names;
  for (AttributeId a = 0; a < schema->NumAttributes(); ++a) {
    if ((*primes)[static_cast<size_t>(a)]) {
      prime_names.push_back(schema->AttributeName(a));
    }
  }
  EXPECT_EQ(prime_names, (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(IntegrationTest, GraphPipelineAgreesAcrossSolvers) {
  // Same instance through the MSO sentence, the §5.1 DP, and brute force.
  Rng rng(TestSeed());
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = RandomPartialKTree(8, 3, 0.85, &rng);
    bool brute = BruteForceColoring(g, 3).has_value();
    EngineOptions options;
    options.extract_witness = false;
    auto dp = Engine::FromGraph(g, options).Solve(Engine::Problem::kThreeColor);
    ASSERT_TRUE(dp.ok());
    auto direct = mso::EvaluateSentence(GraphToStructure(g),
                                        *mso::ThreeColorabilitySentence());
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(dp->feasible, brute);
    EXPECT_EQ(*direct, brute);
  }
}

TEST(IntegrationTest, MsoPrimalityFormulaAgreesWithDpOnBalancedInstance) {
  BalancedInstance inst = GenerateBalancedInstance(2);  // small: MSO feasible
  mso::FormulaPtr phi = mso::PrimalityFormula("x");
  EngineOptions options;
  options.decomposition = inst.td;
  options.num_threads = 1;
  auto dp = Engine(inst.schema, options).AllPrimes();
  ASSERT_TRUE(dp.ok());
  for (AttributeId a = 0; a < inst.schema.NumAttributes(); ++a) {
    auto direct = mso::EvaluateUnary(inst.encoding.structure, *phi, "x",
                                     inst.encoding.AttrElement(a));
    ASSERT_TRUE(direct.ok()) << direct.status();
    EXPECT_EQ(*direct, (*dp)[static_cast<size_t>(a)])
        << inst.schema.AttributeName(a);
  }
}

TEST(IntegrationTest, NormalFormsRemainValidDecompositions) {
  // Both normal forms of the same raw decomposition stay valid for the
  // original structure, across random schemas.
  Rng rng(TestSeed());
  for (int trial = 0; trial < 5; ++trial) {
    Schema schema = RandomWindowSchema(10, 7, 4, &rng);
    SchemaEncoding enc = EncodeSchema(schema);
    auto raw = DecomposeStructure(enc.structure);
    ASSERT_TRUE(raw.ok());
    NormalizeOptions options;
    options.ensure_leaf_coverage = true;
    auto norm = Normalize(*raw, options);
    ASSERT_TRUE(norm.ok());
    EXPECT_TRUE(ValidateForStructure(enc.structure, norm->ToRaw()).ok());
    auto tuple = NormalizeTuple(*raw);
    ASSERT_TRUE(tuple.ok());
    EXPECT_TRUE(ValidateForStructure(enc.structure, tuple->ToRaw()).ok());
  }
}

TEST(IntegrationTest, DatalogEnginesAgreeOnReachability) {
  auto program = datalog::ParseProgram(
      "path(X, Y) :- e(X, Y).\n"
      "path(X, Y) :- e(X, Z), path(Z, Y).\n"
      "cyclic(X) :- path(X, X).\n");
  ASSERT_TRUE(program.ok());
  Rng rng(TestSeed());
  Graph g = RandomGnp(7, 0.35, &rng);
  Structure edb = GraphToStructure(g);
  auto naive = datalog::NaiveEvaluate(*program, edb);
  auto semi = datalog::SemiNaiveEvaluate(*program, edb);
  ASSERT_TRUE(naive.ok() && semi.ok());
  EXPECT_TRUE(*naive == *semi);
}

TEST(IntegrationTest, ExtensionsConsistentWithColorability) {
  // If max independent set >= n - (n/3)*2 trivia aside, at least verify that
  // a 3-colorable graph has an independent set of size >= n/3 (one color
  // class) — a cross-solver sanity property.
  Rng rng(TestSeed());
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = RandomPartialKTree(12, 3, 0.75, &rng);
    Engine engine = Engine::FromGraph(g);
    auto colorable = engine.Solve(Engine::Problem::kThreeColor);
    ASSERT_TRUE(colorable.ok());
    if (!colorable->feasible) continue;
    auto is = engine.Solve(Engine::Problem::kIndependentSet);
    ASSERT_TRUE(is.ok());
    EXPECT_GE(is->optimum * 3, g.NumVertices());
  }
}

TEST(IntegrationTest, BalancedInstanceScalesThroughFullPipeline) {
  // A mid-size instance through closure, re-rooting, normalization, both
  // passes — and the decision/enumeration answers agree attribute by
  // attribute. Two sessions: once AllPrimes has run, IsPrime answers from
  // its memo, so the decisions run on a session that never enumerated.
  BalancedInstance inst = GenerateBalancedInstance(9);
  EngineOptions options;
  options.decomposition = inst.td;
  options.num_threads = 1;
  auto enumerated = Engine(inst.schema, options).AllPrimes();
  ASSERT_TRUE(enumerated.ok());
  Engine decide(inst.schema, options);
  for (AttributeId a = 0; a < inst.schema.NumAttributes(); ++a) {
    auto decided = decide.IsPrime(a);
    ASSERT_TRUE(decided.ok()) << decided.status();
    EXPECT_EQ(*decided, (*enumerated)[static_cast<size_t>(a)])
        << inst.schema.AttributeName(a);
  }
}

}  // namespace
}  // namespace treedl
