// Edge cases and stress shapes across modules: degenerate inputs, recursive
// datalog beyond transitive closure, deep/unbalanced decompositions, and
// adversarial schemas for the PRIMALITY pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/work_budget.hpp"
#include "datalog/eval.hpp"
#include "datalog/grounder.hpp"
#include "datalog/parser.hpp"
#include "engine/engine.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "mso/parser.hpp"
#include "schema/closure.hpp"
#include "schema/primality_bruteforce.hpp"
#include "server/server.hpp"
#include "td/heuristics.hpp"
#include "td/normalize.hpp"
#include "td/validate.hpp"

namespace treedl {
namespace {

// --- Datalog: classic non-linear / mutually recursive programs ---------------

TEST(DatalogRobustnessTest, SameGeneration) {
  auto program = datalog::ParseProgram(
      "sg(X, X) :- node(X).\n"
      "sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).\n");
  ASSERT_TRUE(program.ok());
  // Perfect binary tree of depth 3: 1; 2,3; 4..7.
  Signature sig = Signature::Make({{"node", 1}, {"par", 2}}).value();
  Structure edb(sig);
  for (int i = 1; i <= 7; ++i) edb.AddElement("n" + std::to_string(i));
  PredicateId node = 0, par = 1;
  for (ElementId i = 0; i < 7; ++i) ASSERT_TRUE(edb.AddFact(node, {i}).ok());
  // par(child, parent); ids are value-1.
  for (int c = 2; c <= 7; ++c) {
    ASSERT_TRUE(edb.AddFact(par, {static_cast<ElementId>(c - 1),
                                  static_cast<ElementId>(c / 2 - 1)})
                    .ok());
  }
  auto result = datalog::SemiNaiveEvaluate(*program, edb);
  ASSERT_TRUE(result.ok()) << result.status();
  PredicateId sg = result->signature().PredicateIdOf("sg").value();
  // Same generation: {1}, {2,3}, {4,5,6,7} → 1 + 4 + 16 ordered pairs.
  EXPECT_EQ(result->Relation(sg).size(), 1u + 4u + 16u);
  EXPECT_TRUE(result->HasFact(sg, {3, 6}));   // n4 and n7
  EXPECT_FALSE(result->HasFact(sg, {0, 3}));  // n1 and n4
}

TEST(DatalogRobustnessTest, NonLinearRecursionMatchesLinear) {
  Structure edb = GraphToStructure(PathGraph(12));
  auto linear = datalog::ParseProgram(
      "path(X, Y) :- e(X, Y).\npath(X, Y) :- e(X, Z), path(Z, Y).\n");
  auto nonlinear = datalog::ParseProgram(
      "path(X, Y) :- e(X, Y).\npath(X, Y) :- path(X, Z), path(Z, Y).\n");
  auto r1 = datalog::SemiNaiveEvaluate(*linear, edb);
  auto r2 = datalog::SemiNaiveEvaluate(*nonlinear, edb);
  ASSERT_TRUE(r1.ok() && r2.ok());
  PredicateId p1 = r1->signature().PredicateIdOf("path").value();
  PredicateId p2 = r2->signature().PredicateIdOf("path").value();
  EXPECT_EQ(r1->Relation(p1).size(), r2->Relation(p2).size());
}

TEST(DatalogRobustnessTest, EmptyEdbAndNoRules) {
  Structure empty_edb(Signature::GraphSignature());
  auto program = datalog::ParseProgram("p(X) :- e(X, X).");
  auto result = datalog::SemiNaiveEvaluate(*program, empty_edb);
  ASSERT_TRUE(result.ok());
  PredicateId p = result->signature().PredicateIdOf("p").value();
  EXPECT_TRUE(result->Relation(p).empty());

  auto no_rules = datalog::ParseProgram("");
  ASSERT_TRUE(no_rules.ok());
  auto result2 = datalog::SemiNaiveEvaluate(*no_rules, empty_edb);
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->NumFacts(), 0u);
}

// "X, X, ..., X" with `arity` copies.
std::string RepeatedVariable(int arity) {
  std::string args = "X";
  for (int i = 1; i < arity; ++i) args += ", X";
  return args;
}

// The fact store indexes argument positions with 32-bit masks: a predicate
// of arity 32, from the program or from the EDB, is a typed InvalidArgument
// in every evaluator (naive oracle, semi-naive, grounded), not a process
// abort; arity 31 still evaluates.
TEST(DatalogRobustnessTest, WidePredicatesAreTypedErrorsInEveryBackend) {
  Structure graph_edb(Signature::GraphSignature());
  graph_edb.AddElement("a");
  ASSERT_TRUE(graph_edb.AddFact(0, {0, 0}).ok());
  Structure wide_edb(Signature::Make({{"w", 32}}).value());
  wide_edb.AddElement("a");
  ASSERT_TRUE(wide_edb.AddFact(0, std::vector<ElementId>(32, 0)).ok());
  using Backend = StatusOr<Structure> (*)(const datalog::Program&,
                                          const Structure&, RunStats*);
  const Backend kBackends[] = {
      &datalog::NaiveEvaluate,
      [](const datalog::Program& p, const Structure& edb, RunStats* stats) {
        return datalog::SemiNaiveEvaluate(p, edb, stats);
      },
      [](const datalog::Program& p, const Structure& edb, RunStats* stats) {
        return datalog::GroundedEvaluate(p, edb, stats);
      }};
  auto program = [](const std::string& text) {
    auto parsed = datalog::ParseProgram(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    return *parsed;
  };
  const datalog::Program wide_idb = program(
      "wide(" + RepeatedVariable(32) + ") :- e(X, X). out(X) :- wide(" +
      RepeatedVariable(32) + ").");
  const datalog::Program wide_query =
      program("out(X) :- w(" + RepeatedVariable(32) + ").");
  const datalog::Program widest_idb =
      program("wide(" + RepeatedVariable(31) + ") :- e(X, X).");
  for (Backend evaluate : kBackends) {
    auto idb = evaluate(wide_idb, graph_edb, nullptr);
    ASSERT_FALSE(idb.ok());
    EXPECT_EQ(idb.status().code(), StatusCode::kInvalidArgument)
        << idb.status();
    auto edb = evaluate(wide_query, wide_edb, nullptr);
    ASSERT_FALSE(edb.ok());
    EXPECT_EQ(edb.status().code(), StatusCode::kInvalidArgument)
        << edb.status();
    auto widest = evaluate(widest_idb, graph_edb, nullptr);
    ASSERT_TRUE(widest.ok()) << widest.status();
    EXPECT_EQ(widest->NumFacts(), 2u);
  }
}

// Thm 4.4's grounded pipeline is bounded by its WorkBudget like the
// semi-naive one: one unit per rule grounded, DeadlineExceeded on a trip.
TEST(DatalogRobustnessTest, GroundedEvaluationHonoursItsWorkBudget) {
  Structure edb(Signature::GraphSignature());
  for (int i = 0; i < 3; ++i) edb.AddElement("n" + std::to_string(i));
  ASSERT_TRUE(edb.AddFactNamed("e", {"n0", "n1"}).ok());
  ASSERT_TRUE(edb.AddFactNamed("e", {"n1", "n0"}).ok());
  ASSERT_TRUE(edb.AddFactNamed("e", {"n1", "n2"}).ok());
  auto program = datalog::ParseProgram(R"(
    touched(X) :- e(X, Y).
    mutual(X, Y) :- e(X, Y), e(Y, X).
  )");
  ASSERT_TRUE(program.ok()) << program.status();

  WorkBudget one_unit;
  one_unit.SetDeadline(1);
  auto tripped = datalog::GroundedEvaluate(*program, edb, nullptr, &one_unit);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kDeadlineExceeded)
      << tripped.status();

  WorkBudget two_units;
  two_units.SetDeadline(2);
  auto fits = datalog::GroundedEvaluate(*program, edb, nullptr, &two_units);
  ASSERT_TRUE(fits.ok()) << fits.status();
  EXPECT_TRUE(*fits == *datalog::NaiveEvaluate(*program, edb));
}

// The direct MSO route (session width 0, e.g. a unary structure) expands
// quantifiers over the domain: exponential, so it must honour its
// WorkBudget like every compiled route, one unit per formula-node visit.
TEST(MsoRobustnessTest, DirectEvaluationHonoursItsWorkBudget) {
  Signature unary = Signature::Make({{"p", 1}}).value();
  Structure a(unary);
  for (int i = 0; i < 12; ++i) a.AddElement("u" + std::to_string(i));
  ASSERT_TRUE(a.AddFactNamed("p", {"u3"}).ok());
  auto sentence = mso::ParseFormula("ex2 X: all1 y: (y in X <-> p(y))");
  ASSERT_TRUE(sentence.ok()) << sentence.status();
  auto query = mso::ParseFormula("ex2 X: (x in X & all1 y: (y in X -> p(y)))");
  ASSERT_TRUE(query.ok()) << query.status();

  Engine engine{Structure(a)};
  ASSERT_EQ(*engine.Width(), 0);  // the direct route
  WorkBudget per_call;
  per_call.SetDeadline(0);
  auto holds = engine.EvaluateMso(*sentence, nullptr, &per_call);
  ASSERT_FALSE(holds.ok());
  EXPECT_EQ(holds.status().code(), StatusCode::kDeadlineExceeded)
      << holds.status();
  WorkBudget per_call_unary;
  per_call_unary.SetDeadline(0);
  auto selected =
      engine.EvaluateMsoUnary(*query, "x", nullptr, &per_call_unary);
  ASSERT_FALSE(selected.ok());
  EXPECT_EQ(selected.status().code(), StatusCode::kDeadlineExceeded)
      << selected.status();

  // Without a budget the same session still answers.
  auto free_holds = engine.EvaluateMso(*sentence);
  ASSERT_TRUE(free_holds.ok()) << free_holds.status();
  EXPECT_TRUE(*free_holds);
  auto free_selected = engine.EvaluateMsoUnary(*query, "x");
  ASSERT_TRUE(free_selected.ok()) << free_selected.status();
  std::vector<bool> expected(12, false);
  expected[3] = true;
  EXPECT_EQ(*free_selected, expected);
}

// --- Decompositions: degenerate and deep shapes --------------------------------

TEST(TdRobustnessTest, LongPathNormalizationIsIterative) {
  // A 3000-node chain must not blow the stack anywhere in the pipeline.
  Graph g = PathGraph(3000);
  auto td = Decompose(g);
  ASSERT_TRUE(td.ok());
  auto norm = Normalize(*td);
  ASSERT_TRUE(norm.ok());
  EXPECT_TRUE(ValidateForGraph(g, norm->ToRaw()).ok());
  EngineOptions options;
  options.decomposition = *td;
  auto result = Engine::FromGraph(g, options).Solve(Engine::Problem::kThreeColor);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->feasible);
  ASSERT_TRUE(result->witness.has_value());
}

TEST(TdRobustnessTest, StarGraphDecomposition) {
  Graph star(20);
  for (VertexId v = 1; v < 20; ++v) star.AddEdge(0, v);
  auto td = Decompose(star);
  ASSERT_TRUE(td.ok());
  EXPECT_EQ(td->Width(), 1);
  // Center gets one of 3 colors, each leaf one of the remaining 2.
  EngineOptions options;
  options.decomposition = *td;
  auto count =
      Engine::FromGraph(star, options).Solve(Engine::Problem::kThreeColorCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->count, 3u * (uint64_t{1} << 19));
}

TEST(TdRobustnessTest, SingleVertexAndSingleEdge) {
  Graph one(1);
  Engine one_session = Engine::FromGraph(one);
  auto r1 = one_session.Solve(Engine::Problem::kThreeColor);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->feasible);
  EXPECT_EQ(one_session.Solve(Engine::Problem::kThreeColorCount)->count, 3u);
  Graph two(2);
  two.AddEdge(0, 1);
  EXPECT_EQ(
      Engine::FromGraph(two).Solve(Engine::Problem::kThreeColorCount)->count,
      6u);
}

TEST(TdRobustnessTest, BagsWiderThan63ElementsAreTypedErrors) {
  // K65 normalizes to a 65-element bag. The subset DPs enumerate a leaf
  // bag's subsets in a 64-bit mask, so the graph-DP path refuses such a bag
  // with a typed error before any walk starts instead of answering wrongly.
  Engine engine = Engine::FromGraph(CompleteGraph(65));
  for (Engine::Problem problem :
       {Engine::Problem::kVertexCover, Engine::Problem::kIndependentSet}) {
    auto result = engine.Solve(problem);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status();
  }
  auto all = engine.SolveAll();
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kResourceExhausted)
      << all.status();
}

// --- PRIMALITY: adversarial schema shapes ---------------------------------------

TEST(PrimalityRobustnessTest, MultipleFdsSameRhs) {
  // Two FDs deriving the same attribute: the ΔC-uniqueness machinery must
  // still find derivations that use exactly one of them per attribute.
  Schema s;
  AttributeId a = s.AddAttribute("a");
  AttributeId b = s.AddAttribute("b");
  AttributeId c = s.AddAttribute("c");
  ASSERT_TRUE(s.AddFd({a}, c).ok());
  ASSERT_TRUE(s.AddFd({b}, c).ok());
  auto primes = Engine(s).AllPrimes();
  ASSERT_TRUE(primes.ok());
  EXPECT_EQ(*primes, AllPrimesBruteForce(s));
}

TEST(PrimalityRobustnessTest, CyclicDerivations) {
  // a -> b, b -> c, c -> a: every attribute is a key on its own.
  Schema s;
  AttributeId a = s.AddAttribute("a");
  AttributeId b = s.AddAttribute("b");
  AttributeId c = s.AddAttribute("c");
  ASSERT_TRUE(s.AddFd({a}, b).ok());
  ASSERT_TRUE(s.AddFd({b}, c).ok());
  ASSERT_TRUE(s.AddFd({c}, a).ok());
  auto primes = Engine(s).AllPrimes();
  ASSERT_TRUE(primes.ok());
  EXPECT_EQ(*primes, (std::vector<bool>{true, true, true}));
}

TEST(PrimalityRobustnessTest, LongDerivationChain) {
  // a0 -> a1 -> ... -> a19: only a0 is prime.
  Schema s;
  std::vector<AttributeId> attrs;
  for (int i = 0; i < 20; ++i) {
    attrs.push_back(s.AddAttribute("a" + std::to_string(i)));
  }
  for (int i = 0; i + 1 < 20; ++i) {
    ASSERT_TRUE(s.AddFd({attrs[static_cast<size_t>(i)]},
                        attrs[static_cast<size_t>(i + 1)])
                    .ok());
  }
  auto primes = Engine(s).AllPrimes();
  ASSERT_TRUE(primes.ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ((*primes)[static_cast<size_t>(i)], i == 0) << i;
  }
}

TEST(PrimalityRobustnessTest, WideLhsFd) {
  // One FD with a 5-attribute lhs: the rhs-closure pass and window bags must
  // cope with the larger incidence bag.
  Schema s;
  std::vector<AttributeId> attrs;
  for (int i = 0; i < 6; ++i) {
    attrs.push_back(s.AddAttribute("a" + std::to_string(i)));
  }
  ASSERT_TRUE(
      s.AddFd({attrs[0], attrs[1], attrs[2], attrs[3], attrs[4]}, attrs[5])
          .ok());
  auto primes = Engine(s).AllPrimes();
  ASSERT_TRUE(primes.ok());
  EXPECT_EQ(*primes, AllPrimesBruteForce(s));
}

TEST(PrimalityRobustnessTest, WideLeafBagIsATypedErrorNotAnAbort) {
  // 12 attributes and a1…a11 -> a0 in one bag of all 13 elements: the leaf
  // rule would enumerate 2^12 · 12! partitions. Both primality queries
  // refuse the normal form before the walk instead of aborting the process.
  Schema s;
  std::vector<AttributeId> attrs;
  for (int i = 0; i < 12; ++i) {
    attrs.push_back(s.AddAttribute("a" + std::to_string(i)));
  }
  ASSERT_TRUE(s.AddFd(std::vector<AttributeId>(attrs.begin() + 1, attrs.end()),
                      attrs[0])
                  .ok());
  TreeDecomposition one_bag;
  std::vector<ElementId> bag;
  for (ElementId e = 0; e < 13; ++e) bag.push_back(e);
  one_bag.AddNode(bag);

  EngineOptions options;
  options.decomposition = one_bag;
  Engine engine(s, options);
  auto prime = engine.IsPrime(0);
  ASSERT_FALSE(prime.ok());
  EXPECT_EQ(prime.status().code(), StatusCode::kResourceExhausted)
      << prime.status();
  auto all = engine.AllPrimes();
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kResourceExhausted)
      << all.status();

  // A narrow session in the same process still answers.
  Schema paper = Schema::PaperExampleSchema();
  Engine narrow(paper);
  auto primes = narrow.AllPrimes();
  ASSERT_TRUE(primes.ok()) << primes.status();
  EXPECT_EQ(*primes, AllPrimesBruteForce(paper));
  EXPECT_EQ(Engine(paper).IsPrime(0).value(), IsPrimeBruteForce(paper, 0));
}

TEST(PrimalityRobustnessTest, AllAttributesIsolated) {
  // No FDs at all: the only key is R itself; every attribute is prime.
  Schema s;
  for (int i = 0; i < 5; ++i) s.AddAttribute("a" + std::to_string(i));
  auto primes = Engine(s).AllPrimes();
  ASSERT_TRUE(primes.ok());
  EXPECT_EQ(*primes, std::vector<bool>(5, true));
}

TEST(ClosureRobustnessTest, EmptyLhsFd) {
  // An FD with empty lhs ({} -> a) makes a derivable from anything.
  Schema s;
  AttributeId a = s.AddAttribute("a");
  AttributeId b = s.AddAttribute("b");
  ASSERT_TRUE(s.AddFd({}, a).ok());
  AttrSet empty = EmptyAttrSet(s);
  AttrSet closure = Closure(s, empty);
  EXPECT_TRUE(closure[static_cast<size_t>(a)]);
  EXPECT_FALSE(closure[static_cast<size_t>(b)]);
  EXPECT_FALSE(IsPrimeBruteForce(s, a));  // derivable from {} — never needed
  EXPECT_TRUE(IsPrimeBruteForce(s, b));
  // The DP agrees: every closed set contains a, so a is in no key.
  auto primes = Engine(s).AllPrimes();
  ASSERT_TRUE(primes.ok()) << primes.status();
  EXPECT_EQ(*primes, AllPrimesBruteForce(s));
}

// --- Serving stack: deadlines, budgets, oversized input ----------------------

/// A one-line LOAD of a path graph v0 - v1 - ... with `n` vertices.
std::string PathLoadLine(const std::string& tenant, size_t n) {
  std::string line = "LOAD " + tenant + " SIG e/2 FACTS";
  for (size_t i = 0; i + 1 < n; ++i) {
    line += " e(v" + std::to_string(i) + ", v" + std::to_string(i + 1) + ").";
  }
  return line;
}

std::string Reply(server::Server* s, const std::string& line) {
  std::string out;
  s->HandleLine(line, &out);
  return out;
}

server::ServerOptions QuietServer() {
  server::ServerOptions options;
  options.echo_stats = false;
  return options;
}

TEST(ServerRobustnessTest, OversizedLineYieldsOneFramedErrorAndDriverSurvives) {
  server::Server s(QuietServer());
  ASSERT_EQ(Reply(&s, PathLoadLine("g", 4)).rfind("OK LOAD", 0), 0u);

  // 2 MB of garbage payload: the reply must be a single framed ERR line and
  // the driver must keep serving afterwards.
  std::string huge = "QUERY g ";
  huge.append(size_t{2} << 20, 'x');
  std::string out = Reply(&s, huge);
  EXPECT_EQ(out.rfind("ERR E_PARSE", 0), 0u) << out.substr(0, 80);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
  EXPECT_EQ(Reply(&s, "SOLVE g 3COL").rfind("OK SOLVE", 0), 0u);
}

TEST(ServerRobustnessTest, DeadlineZeroShedsEveryComputeRequest) {
  server::Server s(QuietServer());
  ASSERT_EQ(Reply(&s, PathLoadLine("g", 6)).rfind("OK LOAD", 0), 0u);
  EXPECT_EQ(Reply(&s, "DEADLINE 0"), "OK DEADLINE units=0\n");

  // Every compute family sheds at the very first work unit, with the
  // schedule-invariant message (no thread- or progress-dependent text).
  const std::string shed = "ERR E_DEADLINE deadline of 0 work units exceeded\n";
  EXPECT_EQ(Reply(&s, "SOLVE g 3COL"), shed);
  EXPECT_EQ(Reply(&s, "QUERY g path(X, Y) :- e(X, Y)."), shed);
  EXPECT_EQ(Reply(&s, "SOLVEALL g"), shed);

  // Disarming recovers the same tenant immediately — a shed request leaves
  // no partial state behind.
  EXPECT_EQ(Reply(&s, "DEADLINE OFF"), "OK DEADLINE off\n");
  EXPECT_EQ(Reply(&s, "SOLVE g 3COL").rfind("OK SOLVE", 0), 0u);
}

/// `request`'s reply from a fresh server holding the 6-vertex path tenant
/// "g" under a deadline of `units`. Results are memoized within one engine,
/// so every probe needs its own server.
std::string ReplyUnderDeadline(uint64_t units, const std::string& request) {
  server::Server s(QuietServer());
  EXPECT_EQ(Reply(&s, PathLoadLine("g", 6)).rfind("OK LOAD", 0), 0u);
  EXPECT_EQ(Reply(&s, "DEADLINE " + std::to_string(units))
                .rfind("OK DEADLINE", 0),
            0u);
  return Reply(&s, request);
}

/// Work units are deterministic, so `request` has a sharp threshold T:
/// every deadline < T sheds and every deadline >= T completes. Finds T by
/// scanning fresh servers.
uint64_t CompletionThreshold(const std::string& request) {
  uint64_t units = 0;
  while (ReplyUnderDeadline(units, request).rfind("OK ", 0) != 0) {
    if (++units > 10000) {
      ADD_FAILURE() << "no completion threshold for " << request;
      break;
    }
  }
  return units;
}

TEST(ServerRobustnessTest, DeadlineAtExactlyTheLastWorkUnitCompletes) {
  const uint64_t threshold = CompletionThreshold("SOLVE g VC");
  ASSERT_GT(threshold, 0u) << "a path DP must consume at least one unit";
  // The boundary is exact: one unit less sheds, the threshold completes.
  EXPECT_NE(ReplyUnderDeadline(threshold - 1, "SOLVE g VC").rfind("OK SOLVE", 0),
            0u);
  EXPECT_EQ(ReplyUnderDeadline(threshold, "SOLVE g VC").rfind("OK SOLVE", 0),
            0u);
}

TEST(ServerRobustnessTest, SolveAllDeadlineIsTheSumOfItsFiveSolves) {
  // SOLVEALL runs the five SOLVE walks one after another under one budget,
  // so its completion threshold is the five per-problem thresholds added up.
  uint64_t sum = 0;
  for (const char* problem : {"3COL", "#3COL", "VC", "IS", "DS"}) {
    sum += CompletionThreshold(std::string("SOLVE g ") + problem);
  }
  const uint64_t threshold = CompletionThreshold("SOLVEALL g");
  EXPECT_EQ(threshold, sum);

  // One unit less sheds with the typed error, and the same tenant then
  // answers correctly.
  server::Server s(QuietServer());
  ASSERT_EQ(Reply(&s, PathLoadLine("g", 6)).rfind("OK LOAD", 0), 0u);
  ASSERT_EQ(Reply(&s, "DEADLINE " + std::to_string(threshold - 1))
                .rfind("OK DEADLINE", 0),
            0u);
  std::string shed = Reply(&s, "SOLVEALL g");
  EXPECT_EQ(shed.rfind("ERR E_DEADLINE", 0), 0u) << shed;
  EXPECT_EQ(Reply(&s, "DEADLINE OFF"), "OK DEADLINE off\n");
  std::string ok = Reply(&s, "SOLVEALL g");
  EXPECT_EQ(ok.rfind("OK SOLVEALL tenant=g three_colorable=1 colorings=96 "
                     "vc=3 is=3 ds=2 ",
                     0),
            0u)
      << ok;
}

TEST(ServerRobustnessTest, DeadlineAbortDoesNotPoisonCoTenant) {
  server::Server s(QuietServer());
  // Two tenants, identical facts: one fingerprint, one pooled engine.
  ASSERT_EQ(Reply(&s, PathLoadLine("a", 12)).rfind("OK LOAD", 0), 0u);
  ASSERT_EQ(Reply(&s, PathLoadLine("b", 12)).rfind("OK LOAD", 0), 0u);

  EXPECT_EQ(Reply(&s, "DEADLINE 1"), "OK DEADLINE units=1\n");
  EXPECT_EQ(Reply(&s, "SOLVE a VC"),
            "ERR E_DEADLINE deadline of 1 work units exceeded\n");
  EXPECT_EQ(Reply(&s, "DEADLINE OFF"), "OK DEADLINE off\n");

  // The co-tenant sharing the aborted engine gets the right answer, and so
  // does the aborted tenant itself.
  std::string b = Reply(&s, "SOLVE b VC");
  EXPECT_NE(b.find("optimum=6"), std::string::npos) << b;
  std::string a = Reply(&s, "SOLVE a VC");
  EXPECT_NE(a.find("optimum=6"), std::string::npos) << a;
}

// One QUERY with a 32-ary predicate, in the program or in the loaded
// structure, used to abort the whole server; it is a typed E_ARG reply, and
// the next request on the same server is answered.
TEST(ServerRobustnessTest, WidePredicateQueryIsATypedErrorAndServerSurvives) {
  server::Server s(QuietServer());
  ASSERT_EQ(Reply(&s, "LOAD g SIG e/2 FACTS e(a, a).").rfind("OK LOAD", 0), 0u);
  std::string idb = Reply(&s, "QUERY g wide(" + RepeatedVariable(32) +
                                  ") :- e(X, X). out(X) :- wide(" +
                                  RepeatedVariable(32) + ").");
  EXPECT_EQ(idb.rfind("ERR E_ARG", 0), 0u) << idb;
  EXPECT_EQ(Reply(&s, "SOLVE g 3COL").rfind("OK SOLVE", 0), 0u);

  std::string constants = RepeatedVariable(32);
  std::replace(constants.begin(), constants.end(), 'X', 'a');
  ASSERT_EQ(Reply(&s, "LOAD h SIG w/32 FACTS w(" + constants + ").")
                .rfind("OK LOAD", 0),
            0u);
  std::string edb =
      Reply(&s, "QUERY h out(X) :- w(" + RepeatedVariable(32) + ").");
  EXPECT_EQ(edb.rfind("ERR E_ARG", 0), 0u) << edb;
  EXPECT_EQ(Reply(&s, "QUERY g out(X) :- e(X, X).").rfind("OK QUERY", 0), 0u);
}

}  // namespace
}  // namespace treedl
