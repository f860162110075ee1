#include <gtest/gtest.h>

#include <algorithm>

#include "common/work_budget.hpp"
#include "core/primality_internal.hpp"
#include "datalog/analysis.hpp"
#include "datalog/eval.hpp"
#include "datalog/grounder.hpp"
#include "datalog/parser.hpp"
#include "engine/engine.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "mso/evaluator.hpp"
#include "mso/formulas.hpp"
#include "mso/parser.hpp"
#include "schema/generators.hpp"
#include "schema/primality_bruteforce.hpp"
#include "td/elimination_order.hpp"
#include "test_util.hpp"

namespace treedl {
namespace {

// --- Amortization (the §5.3 linearity argument, acceptance criterion) -------

TEST(EngineTest, AmortizesEncodingAndDecompositionAcrossQueries) {
  Schema schema = Schema::PaperExampleSchema();
  const AttributeId n = schema.NumAttributes();
  EngineCounters& global = GlobalEngineCounters();

  // N primality queries on one Engine: exactly one encoding and one
  // decomposition build, session-wide.
  size_t encode_before = global.encode_builds;
  size_t td_before = global.td_builds;
  Engine engine(schema);
  for (AttributeId a = 0; a < n; ++a) {
    RunStats run;
    auto result = engine.IsPrime(a, &run);
    ASSERT_TRUE(result.ok()) << result.status();
    if (a > 0) {
      // Every query after the first reuses the cached artifacts.
      EXPECT_EQ(run.encode_builds, 0u) << "query " << a;
      EXPECT_EQ(run.td_builds, 0u) << "query " << a;
      EXPECT_GT(run.cache_hits, 0u) << "query " << a;
    }
  }
  EXPECT_EQ(engine.CumulativeStats().encode_builds, 1u);
  EXPECT_EQ(engine.CumulativeStats().td_builds, 1u);
  EXPECT_EQ(global.encode_builds - encode_before, 1u);
  EXPECT_EQ(global.td_builds - td_before, 1u);

  // N one-shot sessions, one query each: N encodings and N decomposition
  // builds (the quadratic pattern the paper argues against).
  encode_before = global.encode_builds;
  td_before = global.td_builds;
  for (AttributeId a = 0; a < n; ++a) {
    ASSERT_TRUE(Engine(schema).IsPrime(a).ok());
  }
  EXPECT_EQ(global.encode_builds - encode_before, static_cast<size_t>(n));
  EXPECT_EQ(global.td_builds - td_before, static_cast<size_t>(n));
}

TEST(EngineTest, SecondQueryDoesNotRebuildDecomposition) {
  Engine engine(Schema::PaperExampleSchema());
  RunStats first;
  ASSERT_TRUE(engine.IsPrime(0, &first).ok());
  EXPECT_EQ(first.encode_builds, 1u);
  EXPECT_EQ(first.td_builds, 1u);

  RunStats second;
  ASSERT_TRUE(engine.IsPrime(1, &second).ok());
  EXPECT_EQ(second.encode_builds, 0u);
  EXPECT_EQ(second.td_builds, 0u);
  EXPECT_GT(second.cache_hits, 0u);
}

// --- Correctness against the legacy API and brute force ----------------------

TEST(EngineTest, PrimalityMatchesBruteForce) {
  Schema schema = Schema::PaperExampleSchema();
  Engine engine(schema);
  std::vector<bool> expected = AllPrimesBruteForce(schema);
  for (AttributeId a = 0; a < schema.NumAttributes(); ++a) {
    auto result = engine.IsPrime(a);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(*result, expected[static_cast<size_t>(a)])
        << schema.AttributeName(a);
  }
  auto primes = engine.AllPrimes();
  ASSERT_TRUE(primes.ok()) << primes.status();
  EXPECT_EQ(*primes, expected);
}

TEST(EngineTest, AllPrimesIsMemoized) {
  Engine engine(Schema::PaperExampleSchema());
  RunStats first;
  ASSERT_TRUE(engine.AllPrimes(&first).ok());
  EXPECT_GT(first.dp_states, 0u);

  RunStats second;
  ASSERT_TRUE(engine.AllPrimes(&second).ok());
  EXPECT_EQ(second.dp_states, 0u);
  EXPECT_EQ(second.normalize_builds, 0u);
  EXPECT_GT(second.cache_hits, 0u);

  // IsPrime after AllPrimes answers from the memoized enumeration.
  RunStats decide;
  auto result = engine.IsPrime(0, &decide);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(decide.dp_states, 0u);
  EXPECT_GT(decide.cache_hits, 0u);
}

TEST(EngineTest, RejectsBadQueries) {
  Engine engine(Schema::PaperExampleSchema());
  EXPECT_FALSE(engine.IsPrime(-1).ok());
  EXPECT_FALSE(engine.IsPrime(99).ok());

  // Structure sessions have no schema to ask primality questions about.
  Engine graph_engine = Engine::FromGraph(CycleGraph(4));
  EXPECT_FALSE(graph_engine.IsPrime(0).ok());
  EXPECT_FALSE(graph_engine.AllPrimes().ok());
}

// --- Graph DPs ----------------------------------------------------------------

TEST(EngineTest, SolvesGraphProblemsOnOneDecomposition) {
  Graph petersen = PetersenGraph();
  Engine engine = Engine::FromGraph(petersen);

  auto three_color = engine.Solve(Engine::Problem::kThreeColor);
  ASSERT_TRUE(three_color.ok()) << three_color.status();
  EXPECT_TRUE(three_color->feasible);
  ASSERT_TRUE(three_color->witness.has_value());
  // The witness must be a proper coloring.
  for (VertexId u = 0; u < static_cast<VertexId>(petersen.NumVertices()); ++u) {
    for (VertexId v : petersen.Neighbors(u)) {
      EXPECT_NE((*three_color->witness)[static_cast<size_t>(u)],
                (*three_color->witness)[static_cast<size_t>(v)]);
    }
  }

  auto count = engine.Solve(Engine::Problem::kThreeColorCount);
  ASSERT_TRUE(count.ok());
  EXPECT_GT(count->count, 0u);

  auto vc = engine.Solve(Engine::Problem::kVertexCover);
  auto is = engine.Solve(Engine::Problem::kIndependentSet);
  auto ds = engine.Solve(Engine::Problem::kDominatingSet);
  ASSERT_TRUE(vc.ok() && is.ok() && ds.ok());
  EXPECT_EQ(vc->optimum, 6u);  // Petersen: τ = 6
  EXPECT_EQ(is->optimum, 4u);  // Petersen: α = 4
  EXPECT_EQ(ds->optimum, 3u);  // Petersen: γ = 3
  // α + τ = n (Gallai).
  EXPECT_EQ(vc->optimum + is->optimum, petersen.NumVertices());

  // All five queries shared one decomposition build.
  EXPECT_EQ(engine.CumulativeStats().td_builds, 1u);
  // ... and one normalization.
  EXPECT_EQ(engine.CumulativeStats().normalize_builds, 1u);
  // ... and one traversal per problem.
  EXPECT_EQ(engine.CumulativeStats().dp_traversals, 5u);
}

TEST(EngineTest, SolveAllAnswersAllFiveProblems) {
  Graph petersen = PetersenGraph();
  Engine engine = Engine::FromGraph(petersen);

  RunStats run;
  auto all = engine.SolveAll(&run);
  ASSERT_TRUE(all.ok()) << all.status();

  // Known Petersen facts, answered together.
  EXPECT_TRUE(all->three_colorable);
  ASSERT_TRUE(all->coloring.has_value());
  EXPECT_GT(all->three_colorings, 0u);
  EXPECT_EQ(all->min_vertex_cover, 6u);
  EXPECT_EQ(all->max_independent_set, 4u);
  EXPECT_EQ(all->min_dominating_set, 3u);
  EXPECT_EQ(all->Result(Engine::Problem::kVertexCover).optimum, 6u);
  EXPECT_TRUE(all->Result(Engine::Problem::kThreeColorCount).feasible);

  // One walk per problem over the one cached normal form.
  EXPECT_EQ(run.dp_traversals, 5u);
  EXPECT_EQ(run.td_builds, 1u);
  EXPECT_EQ(run.normalize_builds, 1u);

  // A second batch is pure cache + five more traversals.
  RunStats again;
  ASSERT_TRUE(engine.SolveAll(&again).ok());
  EXPECT_EQ(again.td_builds, 0u);
  EXPECT_EQ(again.normalize_builds, 0u);
  EXPECT_EQ(again.dp_traversals, 5u);
  EXPECT_GT(again.cache_hits, 0u);
}

constexpr Engine::Problem kAllProblems[] = {
    Engine::Problem::kThreeColor,      Engine::Problem::kThreeColorCount,
    Engine::Problem::kVertexCover,     Engine::Problem::kIndependentSet,
    Engine::Problem::kDominatingSet,
};

void ExpectSameAnswers(const Engine::SolveAllResult& got,
                       const Engine::SolveAllResult& want) {
  EXPECT_EQ(got.three_colorable, want.three_colorable);
  EXPECT_EQ(got.coloring, want.coloring);
  EXPECT_EQ(got.three_colorings, want.three_colorings);
  EXPECT_EQ(got.min_vertex_cover, want.min_vertex_cover);
  EXPECT_EQ(got.max_independent_set, want.max_independent_set);
  EXPECT_EQ(got.min_dominating_set, want.min_dominating_set);
}

// SolveAll runs five walks that each evict their own tables — one after
// another at 1 thread, at once on the pool at 4 — so its state count is the
// five Solves' sum and its reported table peak is the largest single walk's,
// not the sum of all five.
TEST(EngineTest, SolveAllPeaksAtTheLargestSingleProblem) {
  Rng rng(TestSeed());
  Graph graph = RandomPartialKTree(60, 3, 0.6, &rng);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EngineOptions options;
    options.num_threads = threads;
    Engine engine = Engine::FromGraph(graph, options);

    size_t states_sum = 0;
    size_t peak_max = 0;
    size_t peak_sum = 0;
    for (Engine::Problem problem : kAllProblems) {
      RunStats run;
      ASSERT_TRUE(engine.Solve(problem, &run).ok());
      EXPECT_EQ(run.dp_traversals, 1u);
      ASSERT_GT(run.dp_peak_table_bytes, 0u);
      states_sum += run.dp_states;
      peak_max = std::max(peak_max, run.dp_peak_table_bytes);
      peak_sum += run.dp_peak_table_bytes;
    }

    RunStats all;
    ASSERT_TRUE(engine.SolveAll(&all).ok());
    EXPECT_EQ(all.dp_traversals, 5u);
    EXPECT_EQ(all.dp_shards, 0u);
    EXPECT_EQ(all.dp_states, states_sum);
    EXPECT_EQ(all.dp_peak_table_bytes, peak_max);
    EXPECT_LT(all.dp_peak_table_bytes, peak_sum);
  }
}

// SolveAll is bounded by its per-call budget at 1 thread and with its five
// walks running at once on a 4-thread pool: a 1-unit deadline, a deadline
// that only a later walk reaches (the walks claim one unit per node step,
// so three complete walks fit), and a 1-byte table cap, checked against each
// walk's own live tables, each return their typed status. The budget
// belongs to the call: the next unbudgeted SolveAll answers as a sequential
// session does.
TEST(EngineTest, SolveAllHonorsItsWorkBudget) {
  Rng rng(TestSeed());
  Graph graph = RandomPartialKTree(60, 3, 0.6, &rng);
  EngineOptions sequential;
  sequential.num_threads = 1;
  Engine oracle = Engine::FromGraph(graph, sequential);
  RunStats expected_run;
  auto expected = oracle.SolveAll(&expected_run);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto td = oracle.Decomposition();
  ASSERT_TRUE(td.ok()) << td.status();
  auto ntd = Normalize(**td);
  ASSERT_TRUE(ntd.ok()) << ntd.status();
  const uint64_t walk_units = ntd->NumNodes();

  struct Trip {
    const char* name;
    uint64_t deadline;  // 0: no deadline
    size_t table_bytes_limit;
    StatusCode code;
    size_t sequential_traversals;  // walks the 1-thread run starts
  };
  const Trip trips[] = {
      {"1-unit deadline", 1, 0, StatusCode::kDeadlineExceeded, 1},
      {"later-walk deadline", 3 * walk_units, 0,
       StatusCode::kDeadlineExceeded, 4},
      {"table-bytes cap", 0, 1, StatusCode::kResourceExhausted, 1},
  };
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EngineOptions options;
    options.num_threads = threads;
    Engine engine = Engine::FromGraph(graph, options);
    for (const Trip& trip : trips) {
      SCOPED_TRACE(std::string(trip.name) + ", threads " +
                   std::to_string(threads));
      WorkBudget budget;
      if (trip.deadline > 0) budget.SetDeadline(trip.deadline);
      budget.SetTableBytesLimit(trip.table_bytes_limit);
      RunStats tripped;
      auto result = engine.SolveAll(&tripped, &budget);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), trip.code) << result.status();
      EXPECT_LT(tripped.dp_states, expected_run.dp_states);
      EXPECT_EQ(tripped.dp_traversals,
                threads == 1 ? trip.sequential_traversals : 5u);

      RunStats rerun;
      auto again = engine.SolveAll(&rerun);
      ASSERT_TRUE(again.ok()) << again.status();
      ExpectSameAnswers(*again, *expected);
      EXPECT_EQ(rerun.dp_states, expected_run.dp_states);
      EXPECT_EQ(rerun.dp_peak_table_bytes, expected_run.dp_peak_table_bytes);
    }
  }
}

// Witness extraction keeps every DP table live (no eviction), so on a long
// path the 3COL walk blows through a table-byte cap and sheds with
// ResourceExhausted instead of growing without bound. An evicting walk on
// the same Engine stays under the same cap and answers: the abort leaves the
// session usable.
TEST(EngineTest, TableBudgetAbortsWitnessExtractionButNotEviction) {
  constexpr size_t kTableBytesCap = 17000;
  EngineOptions options;
  options.extract_witness = true;
  options.num_threads = 1;
  Engine engine = Engine::FromGraph(PathGraph(200), options);

  WorkBudget witness_budget;
  witness_budget.SetTableBytesLimit(kTableBytesCap);
  auto three_color =
      engine.Solve(Engine::Problem::kThreeColor, nullptr, &witness_budget);
  ASSERT_FALSE(three_color.ok());
  EXPECT_EQ(three_color.status().code(), StatusCode::kResourceExhausted)
      << three_color.status();

  WorkBudget evicting_budget;
  evicting_budget.SetTableBytesLimit(kTableBytesCap);
  auto vc =
      engine.Solve(Engine::Problem::kVertexCover, nullptr, &evicting_budget);
  ASSERT_TRUE(vc.ok()) << vc.status();
  EXPECT_EQ(vc->optimum, 100u);
}

// A failing walk's status is the answer whichever walk finishes first: on a
// 65-vertex path only #3COL fails (3 * 2^64 colorings do not fit in 64
// bits), so SolveAll returns its OutOfRange at 1 and at 4 threads.
TEST(EngineTest, SolveAllReturnsTheFailingProblemsStatus) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EngineOptions options;
    options.num_threads = threads;
    Engine engine = Engine::FromGraph(PathGraph(65), options);
    RunStats run;
    auto all = engine.SolveAll(&run);
    ASSERT_FALSE(all.ok());
    EXPECT_EQ(all.status().code(), StatusCode::kOutOfRange) << all.status();
    // Sequentially the walks after #3COL never start.
    EXPECT_EQ(run.dp_traversals, threads == 1 ? 2u : 5u);
    auto vc = engine.Solve(Engine::Problem::kVertexCover);
    ASSERT_TRUE(vc.ok()) << vc.status();
    EXPECT_EQ(vc->optimum, 32u);
  }
}

// --- Datalog -----------------------------------------------------------------

// The Engine's one datalog route (semi-naive) agrees with the naive oracle
// and, on a quasi-guarded program, with Thm 4.4's grounded pipeline.
TEST(EngineTest, DatalogBackendsAgree) {
  Structure edb(Signature::GraphSignature());
  for (int i = 0; i < 5; ++i) edb.AddElement("n" + std::to_string(i));
  ASSERT_TRUE(edb.AddFactNamed("e", {"n0", "n1"}).ok());
  ASSERT_TRUE(edb.AddFactNamed("e", {"n1", "n2"}).ok());
  ASSERT_TRUE(edb.AddFactNamed("e", {"n2", "n3"}).ok());
  ASSERT_TRUE(edb.AddFactNamed("e", {"n3", "n1"}).ok());

  // Every rule is guarded by an e-atom over all of its variables.
  auto program = datalog::ParseProgram(R"(
    start(X) :- e(X, Y), not e(Y, X).
    reach(Y) :- start(X), e(X, Y).
    reach(Y) :- e(X, Y), reach(X).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_TRUE(datalog::CheckQuasiGuarded(*program).ok());

  Engine engine(edb);
  RunStats naive_stats, semi_stats;
  auto naive = datalog::NaiveEvaluate(*program, edb, &naive_stats);
  auto semi = engine.EvaluateDatalog(*program, &semi_stats);
  auto grounded = datalog::GroundedEvaluate(*program, edb);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(semi.ok()) << semi.status();
  ASSERT_TRUE(grounded.ok()) << grounded.status();
  EXPECT_TRUE(*naive == *semi);
  EXPECT_TRUE(*grounded == *semi);
  EXPECT_GT(naive_stats.derived_facts, 0u);
  EXPECT_EQ(naive_stats.derived_facts, semi_stats.derived_facts);
  // Semi-naive attempts no more rule applications than naive.
  EXPECT_LE(semi_stats.rule_applications, naive_stats.rule_applications);
  // One round counter: the oracle's iterations and the semi-naive rounds
  // both land in fixpoint_rounds, printed once inside eval{...}.
  for (const RunStats* run : {&naive_stats, &semi_stats}) {
    EXPECT_GT(run->fixpoint_rounds, 0u);
    std::string text = run->ToString();
    size_t at = text.find(" eval{rounds=" +
                          std::to_string(run->fixpoint_rounds) + " ");
    EXPECT_NE(at, std::string::npos) << text;
    EXPECT_EQ(text.find("rounds=", at + 8), std::string::npos) << text;
  }
}

// --- MSO routing on quasi-guarded programs -----------------------------------

TEST(EngineTest, MsoUnaryAgreesAcrossBackendsAndWithDirectEvaluation) {
  // Rank-1 unary query over {p/1} — the regime where the Thm 4.5
  // construction is practical (over {e/2} it state-explodes by design).
  Signature unary = Signature::Make({{"p", 1}}).value();
  Structure a(unary);
  for (int i = 0; i < 6; ++i) a.AddElement("u" + std::to_string(i));
  ASSERT_TRUE(a.AddFactNamed("p", {"u1"}).ok());
  ASSERT_TRUE(a.AddFactNamed("p", {"u4"}).ok());
  auto query = mso::ParseFormula("p(x) & (ex1 y: (~(y = x) & p(y)))");
  ASSERT_TRUE(query.ok()) << query.status();

  // The Gaifman graph of a unary structure is edgeless, so supply a width-1
  // path decomposition for the τ_td encoding.
  TreeDecomposition path_td;
  TdNodeId prev = path_td.AddNode({0, 1});
  for (ElementId e = 1; e + 1 < 6; ++e) {
    prev = path_td.AddNode({e, e + 1}, prev);
  }

  // Direct quantifier expansion as ground truth.
  std::vector<bool> expected(a.NumElements());
  for (ElementId e = 0; e < a.NumElements(); ++e) {
    auto holds = mso::EvaluateUnary(a, **query, "x", e);
    ASSERT_TRUE(holds.ok()) << holds.status();
    expected[e] = *holds;
  }
  EXPECT_EQ(expected, (std::vector<bool>{false, true, false, false, true,
                                         false}));

  // The compiled route: the Thm 4.5 program, evaluated semi-naively over
  // the session's τ_td encoding.
  EngineOptions options;
  options.decomposition = path_td;
  Engine engine{Structure(a), options};
  auto selected = engine.EvaluateMsoUnary(*query, "x");
  ASSERT_TRUE(selected.ok()) << selected.status();
  EXPECT_EQ(*selected, expected);
  // The compiled route reuses the session decomposition and τ_td encoding.
  EXPECT_EQ(engine.CumulativeStats().td_builds, 1u);
}

TEST(EngineTest, MsoProgramCacheSkipsRepeatedThm45Construction) {
  // Same rank-1 unary setup as above; what's under test is the per-formula
  // program cache, via the mso_compile_builds counter.
  Signature unary = Signature::Make({{"p", 1}}).value();
  Structure a(unary);
  for (int i = 0; i < 6; ++i) a.AddElement("u" + std::to_string(i));
  ASSERT_TRUE(a.AddFactNamed("p", {"u1"}).ok());
  ASSERT_TRUE(a.AddFactNamed("p", {"u4"}).ok());
  TreeDecomposition path_td;
  TdNodeId prev = path_td.AddNode({0, 1});
  for (ElementId e = 1; e + 1 < 6; ++e) {
    prev = path_td.AddNode({e, e + 1}, prev);
  }
  auto query = mso::ParseFormula("p(x) & (ex1 y: (~(y = x) & p(y)))");
  ASSERT_TRUE(query.ok()) << query.status();

  EngineOptions options;
  options.decomposition = path_td;
  Engine engine{Structure(a), options};

  // First evaluation pays one Thm 4.5 construction...
  RunStats first;
  auto selected = engine.EvaluateMsoUnary(*query, "x", &first);
  ASSERT_TRUE(selected.ok()) << selected.status();
  EXPECT_EQ(first.mso_compile_builds, 1u);

  // ... repeating the same formula is a cache hit with identical results...
  RunStats second;
  auto again = engine.EvaluateMsoUnary(*query, "x", &second);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(second.mso_compile_builds, 0u);
  EXPECT_GT(second.cache_hits, 0u);
  EXPECT_EQ(*again, *selected);

  // ... and a different formula misses and compiles anew.
  auto other = mso::ParseFormula("~p(x)");
  ASSERT_TRUE(other.ok()) << other.status();
  RunStats third;
  auto negated = engine.EvaluateMsoUnary(*other, "x", &third);
  ASSERT_TRUE(negated.ok()) << negated.status();
  EXPECT_EQ(third.mso_compile_builds, 1u);

  // Session-wide: exactly two constructions for three evaluations.
  EXPECT_EQ(engine.CumulativeStats().mso_compile_builds, 2u);
}

TEST(EngineTest, MsoSentenceOnTrivialStructureFallsBackToDirect) {
  // A single marked element: width-0 decomposition, Thm 4.5 inapplicable —
  // the engine must still answer (directly).
  Signature unary = Signature::Make({{"p", 1}}).value();
  Structure a(unary);
  a.AddElement("u");
  ASSERT_TRUE(a.AddFactNamed("p", {"u"}).ok());

  Engine engine{Structure(a)};
  auto sentence = mso::ParseFormula("ex1 x: p(x)");
  ASSERT_TRUE(sentence.ok()) << sentence.status();
  auto result = engine.EvaluateMso(*sentence);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(*result);
}

// --- Options -----------------------------------------------------------------

TEST(EngineTest, CustomEliminationOrderIsUsed) {
  Schema schema = Schema::PaperExampleSchema();
  SchemaEncoding encoding = EncodeSchema(schema);
  Graph gaifman = GaifmanGraph(encoding.structure);

  // Identity order: valid, if not optimal.
  std::vector<VertexId> order(gaifman.NumVertices());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<VertexId>(i);
  }
  auto td = DecompositionFromOrder(gaifman, order);
  ASSERT_TRUE(td.ok()) << td.status();
  EngineOptions options;
  options.decomposition = *td;
  Engine engine(schema, options);
  auto width = engine.Width();
  ASSERT_TRUE(width.ok()) << width.status();
  EXPECT_EQ(*width, td->Width());
  EXPECT_GE(*width, 2);  // the paper's example has treewidth 2

  std::vector<bool> expected = AllPrimesBruteForce(schema);
  auto primes = engine.AllPrimes();
  ASSERT_TRUE(primes.ok()) << primes.status();
  EXPECT_EQ(*primes, expected);
}

// Same bags and the same parent for every node id.
bool SameTree(const TreeDecomposition& a, const TreeDecomposition& b) {
  if (a.NumNodes() != b.NumNodes()) return false;
  for (size_t i = 0; i < a.NumNodes(); ++i) {
    TdNodeId id = static_cast<TdNodeId>(i);
    if (a.Bag(id) != b.Bag(id) || a.node(id).parent != b.node(id).parent) {
      return false;
    }
  }
  return true;
}

TEST(EngineTest, HeuristicOptionChoosesTheSessionDecomposition) {
  Rng rng(TestSeed());
  std::vector<Graph> graphs{PetersenGraph(), GridGraph(4, 5),
                            RandomPartialKTree(40, 3, 0.6, &rng)};
  bool heuristics_differ = false;
  for (size_t g = 0; g < graphs.size(); ++g) {
    SCOPED_TRACE("graph " + std::to_string(g));
    Graph gaifman = GaifmanGraph(GraphToStructure(graphs[g]));
    auto min_fill = Decompose(gaifman, TdHeuristic::kMinFill);
    auto min_degree = Decompose(gaifman, TdHeuristic::kMinDegree);
    ASSERT_TRUE(min_fill.ok() && min_degree.ok());
    heuristics_differ |= !SameTree(*min_fill, *min_degree);

    Engine by_default = Engine::FromGraph(graphs[g]);  // heuristic unset
    auto got = by_default.Decomposition();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(SameTree(**got, *min_fill));

    EngineOptions options;
    options.heuristic = TdHeuristic::kMinDegree;
    Engine by_degree = Engine::FromGraph(graphs[g], options);
    got = by_degree.Decomposition();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(SameTree(**got, *min_degree));
  }
  // Otherwise the test could not tell an ignored option from an honoured one.
  EXPECT_TRUE(heuristics_differ);
}

// --- IsPrime: full DP accounting and per-call budgets -------------------------

TEST(EngineTest, IsPrimeReportsTheFullDpRecord) {
  // IsPrime runs one walk, like Solve: the traversal and table-byte
  // counters are filled, not just the state counts. The walk retains no
  // table, so it evicts every table but the root's, at any thread count.
  Schema schema = Schema::PaperExampleSchema();
  SchemaEncoding encoding = EncodeSchema(schema);
  core::internal::PrimalityContext context(schema, encoding);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EngineOptions options;
    options.num_threads = threads;
    Engine engine(schema, options);
    RunStats run;
    auto prime = engine.IsPrime(0, &run);
    ASSERT_TRUE(prime.ok()) << prime.status();
    EXPECT_EQ(*prime, AllPrimesBruteForce(schema)[0]);
    EXPECT_GT(run.dp_states, 0u);
    EXPECT_EQ(run.dp_traversals, 1u);
    EXPECT_GT(run.dp_peak_table_bytes, 0u);
    EXPECT_NE(run.ToString().find(" dp{states="), std::string::npos)
        << run.ToString();

    // The decomposition IsPrime walked: the session's, rhs-closed,
    // re-rooted at a bag holding attribute 0, normalized.
    auto td = engine.Decomposition();
    ASSERT_TRUE(td.ok()) << td.status();
    TreeDecomposition rooted =
        core::internal::CloseBagsForRhs(**td, encoding, context);
    ASSERT_TRUE(
        rooted.ReRoot(rooted.FindNodeContaining(encoding.AttrElement(0)))
            .ok());
    auto ntd = Normalize(rooted, core::internal::PrimalityNormalizeOptions(
                                     encoding, /*for_enumeration=*/false));
    ASSERT_TRUE(ntd.ok()) << ntd.status();
    EXPECT_EQ(run.dp_tables_evicted, ntd->NumNodes() - 1);
  }
}

TEST(EngineTest, IsPrimeHonorsItsWorkBudget) {
  Schema schema = Schema::PaperExampleSchema();
  WorkBudget budget;
  budget.SetDeadline(1);
  Engine engine(schema);
  auto result = engine.IsPrime(0, nullptr, &budget);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status();
  // The budget belongs to the call: the next unbudgeted query answers.
  auto unbudgeted = engine.IsPrime(0);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status();
  EXPECT_EQ(*unbudgeted, AllPrimesBruteForce(schema)[0]);
}

// AllPrimes is bounded by its per-call budget in both passes of the §5.3
// enumeration: a deadline that trips in the bottom-up pass, one that trips
// in the top-down pass, and a table-bytes cap each return their typed status
// and leave the memo unwritten, so the next unbudgeted call recomputes the
// exact answer — at 1 thread and on the 4-thread sharded walk.
TEST(EngineTest, AllPrimesHonorsItsWorkBudget) {
  Schema schema = GenerateBalancedInstance(4).schema;
  SchemaEncoding encoding = EncodeSchema(schema);
  core::internal::PrimalityContext context(schema, encoding);
  const std::vector<bool> expected = AllPrimesBruteForce(schema);
  struct Trip {
    const char* name;
    bool bottom_up;  // whether the trip falls in the bottom-up pass
    size_t table_bytes_limit;
    StatusCode code;
  };
  const Trip trips[] = {
      {"bottom-up deadline", true, 0, StatusCode::kDeadlineExceeded},
      {"top-down deadline", false, 0, StatusCode::kDeadlineExceeded},
      {"table-bytes cap", true, 1, StatusCode::kResourceExhausted},
  };
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (const Trip& trip : trips) {
      SCOPED_TRACE(std::string(trip.name) + ", threads " +
                   std::to_string(threads));
      EngineOptions options;
      options.num_threads = threads;
      Engine engine(schema, options);

      // The enumeration normal form the session walks, and the states of
      // its complete bottom-up pass (one work unit per node).
      auto td = engine.Decomposition();
      ASSERT_TRUE(td.ok()) << td.status();
      auto ntd = Normalize(
          core::internal::CloseBagsForRhs(**td, encoding, context),
          core::internal::PrimalityNormalizeOptions(encoding,
                                                    /*for_enumeration=*/true));
      ASSERT_TRUE(ntd.ok()) << ntd.status();
      core::DpStats bottom_up;
      core::RunDp(*ntd, core::internal::PrimalityProblem(context), {},
                  &bottom_up, core::TableRetention::kNone);

      WorkBudget budget;
      if (trip.table_bytes_limit > 0) {
        budget.SetTableBytesLimit(trip.table_bytes_limit);
      } else {
        budget.SetDeadline(trip.bottom_up ? 1 : ntd->NumNodes() + 3);
      }
      RunStats tripped;
      auto result = engine.AllPrimes(&tripped, &budget);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), trip.code) << result.status();
      if (trip.bottom_up) {
        EXPECT_LT(tripped.dp_states, bottom_up.total_states);
      } else {
        EXPECT_GT(tripped.dp_states, bottom_up.total_states);
      }

      // The memo stays unwritten: the next call runs both passes again.
      RunStats rerun;
      auto primes = engine.AllPrimes(&rerun);
      ASSERT_TRUE(primes.ok()) << primes.status();
      EXPECT_EQ(*primes, expected);
      EXPECT_GT(rerun.dp_states, bottom_up.total_states);
      if (threads > 1) {
        EXPECT_GT(rerun.primality_shards, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace treedl
