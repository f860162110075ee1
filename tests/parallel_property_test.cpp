// Property-based cross-checks for the parallel engines: random partial
// k-trees evaluated with num_threads = 1 and num_threads = 8 must agree on
// all five Solve problems and on their DP counters (every graph-DP walk is
// sequential; SolveAll runs its five walks concurrently), the sharding
// invariants must hold, the sharded PRIMALITY enumeration must be
// bit-identical to its sequential run, and a
// quasi-guarded datalog program must produce identical models under the
// naive oracle, the Engine's semi-naive route and the grounded pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "datalog/eval.hpp"
#include "datalog/grounder.hpp"
#include "datalog/parser.hpp"
#include "engine/engine.hpp"
#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "schema/generators.hpp"
#include "schema/primality_bruteforce.hpp"
#include "td/shard.hpp"
#include "test_util.hpp"

namespace treedl {
namespace {

constexpr Engine::Problem kAllProblems[] = {
    Engine::Problem::kThreeColor,      Engine::Problem::kThreeColorCount,
    Engine::Problem::kVertexCover,     Engine::Problem::kIndependentSet,
    Engine::Problem::kDominatingSet,
};

void ExpectProperColoring(const Graph& graph, const std::vector<int>& colors) {
  for (VertexId u = 0; u < static_cast<VertexId>(graph.NumVertices()); ++u) {
    for (VertexId v : graph.Neighbors(u)) {
      EXPECT_NE(colors[static_cast<size_t>(u)], colors[static_cast<size_t>(v)])
          << "edge " << u << "-" << v << " monochromatic";
    }
  }
}

TEST(ParallelPropertyTest, ThreadCountsAgreeOnAllFiveProblems) {
  for (uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng(TestSeed(trial));
    size_t n = 30 + 15 * static_cast<size_t>(trial);
    int k = 2 + static_cast<int>(trial % 3);
    Graph graph = RandomPartialKTree(n, k, 0.7, &rng);

    EngineOptions sequential;
    sequential.num_threads = 1;
    EngineOptions parallel;
    parallel.num_threads = 8;
    Engine seq_engine = Engine::FromGraph(graph, sequential);
    Engine par_engine = Engine::FromGraph(graph, parallel);

    for (Engine::Problem problem : kAllProblems) {
      RunStats seq_run;
      auto seq = seq_engine.Solve(problem, &seq_run);
      RunStats par_run;
      auto par = par_engine.Solve(problem, &par_run);
      ASSERT_TRUE(seq.ok()) << seq.status();
      ASSERT_TRUE(par.ok()) << par.status();
      EXPECT_EQ(seq->feasible, par->feasible) << "trial " << trial;
      EXPECT_EQ(seq->optimum, par->optimum) << "trial " << trial;
      EXPECT_EQ(seq->count, par->count) << "trial " << trial;
      EXPECT_EQ(seq->witness.has_value(), par->witness.has_value());
      if (par->witness.has_value()) {
        ExpectProperColoring(graph, *par->witness);
      }
      // A Solve walks sequentially at every thread count: the same tables,
      // the same live-table peak and the same evictions, and no shards.
      EXPECT_EQ(par_run.dp_shards, 0u) << "trial " << trial;
      EXPECT_TRUE(par_run.dp_shard_millis.empty()) << "trial " << trial;
      EXPECT_EQ(seq_run.dp_states, par_run.dp_states) << "trial " << trial;
      EXPECT_EQ(seq_run.dp_peak_table_bytes, par_run.dp_peak_table_bytes)
          << "trial " << trial;
      EXPECT_EQ(seq_run.dp_tables_evicted, par_run.dp_tables_evicted)
          << "trial " << trial;
    }
  }
}

TEST(ParallelPropertyTest, SolveAllEqualsFiveSolvesAcrossThreadCounts) {
  for (uint64_t trial = 0; trial < 5; ++trial) {
    Rng rng(TestSeed(trial));
    size_t n = 30 + 15 * static_cast<size_t>(trial);
    int k = 2 + static_cast<int>(trial % 3);
    Graph graph = RandomPartialKTree(n, k, 0.7, &rng);

    EngineOptions sequential;
    sequential.num_threads = 1;
    EngineOptions parallel;
    parallel.num_threads = 8;
    Engine seq_engine = Engine::FromGraph(graph, sequential);
    Engine par_engine = Engine::FromGraph(graph, parallel);
    // A reference engine answers the five problems one at a time.
    Engine ref_engine = Engine::FromGraph(graph, sequential);

    RunStats seq_run;
    RunStats par_run;
    auto seq_all = seq_engine.SolveAll(&seq_run);
    auto par_all = par_engine.SolveAll(&par_run);
    ASSERT_TRUE(seq_all.ok()) << seq_all.status();
    ASSERT_TRUE(par_all.ok()) << par_all.status();

    for (Engine::Problem problem : kAllProblems) {
      auto ref = ref_engine.Solve(problem);
      ASSERT_TRUE(ref.ok()) << ref.status();
      for (const auto* batch : {&seq_all, &par_all}) {
        Engine::SolveResult batched = (*batch)->Result(problem);
        EXPECT_EQ(batched.feasible, ref->feasible) << "trial " << trial;
        EXPECT_EQ(batched.optimum, ref->optimum) << "trial " << trial;
        EXPECT_EQ(batched.count, ref->count) << "trial " << trial;
        EXPECT_EQ(batched.witness.has_value(), ref->witness.has_value());
      }
    }
    if (par_all->coloring.has_value()) {
      ExpectProperColoring(graph, *par_all->coloring);
    }

    // One sequential walk per problem on both sides; the parallel side ran
    // the five walks concurrently, none of them sharded.
    EXPECT_EQ(seq_run.dp_traversals, 5u) << "trial " << trial;
    EXPECT_EQ(par_run.dp_traversals, 5u) << "trial " << trial;
    EXPECT_EQ(par_run.dp_shards, 0u) << "trial " << trial;
    EXPECT_TRUE(par_run.dp_shard_millis.empty()) << "trial " << trial;
    // Identical reachable-state tables: SolveAll == five independent runs.
    // Each walk evicts its own tables, so the peak is the largest single
    // walk's whether the walks ran one after another or at once.
    EXPECT_EQ(seq_run.dp_states, par_run.dp_states) << "trial " << trial;
    EXPECT_EQ(seq_run.dp_peak_table_bytes, par_run.dp_peak_table_bytes)
        << "trial " << trial;
    EXPECT_EQ(seq_run.dp_tables_evicted, par_run.dp_tables_evicted)
        << "trial " << trial;
    EXPECT_EQ(ref_engine.CumulativeStats().dp_states, seq_run.dp_states)
        << "trial " << trial;
  }
}

// The eviction contract at 1 and 4 threads: a walk that does not retain its
// tables evicts every table but the root's — NumNodes() - 1 of them, or
// fewer for 3COL/#3COL on a graph that is not 3-colorable, whose emptied
// tables hold nothing to release — while the retaining 3COL witness walk
// evicts none and peaks above the evicting 3COL walk. Every answer, the
// witness included, is identical at both thread counts.
TEST(ParallelPropertyTest, EvictionPreservesAnswersAndBoundsTableMemory) {
  // The last trial is a partial 2-tree, 3-colorable by its width, and small
  // enough that its #3COL count fits in 64 bits.
  bool any_colorable = false;
  for (uint64_t trial = 0; trial < 4; ++trial) {
    Rng rng(TestSeed(trial));
    size_t n = trial == 3 ? 36 : 120 + 60 * static_cast<size_t>(trial);
    int k = trial == 3 ? 2 : 3 + static_cast<int>(trial % 2);
    Graph graph = RandomPartialKTree(n, k, 0.7, &rng);

    std::vector<Engine::SolveAllResult> results;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " threads " +
                   std::to_string(threads));
      EngineOptions options;
      options.num_threads = threads;
      Engine engine = Engine::FromGraph(graph, options);
      RunStats run;
      auto all = engine.SolveAll(&run);
      ASSERT_TRUE(all.ok()) << all.status();
      results.push_back(*all);

      auto td = engine.Decomposition();
      ASSERT_TRUE(td.ok()) << td.status();
      auto ntd = Normalize(**td);
      ASSERT_TRUE(ntd.ok()) << ntd.status();
      const size_t dead = ntd->NumNodes() - 1;
      const bool colorable = all->three_colorable;
      any_colorable |= colorable;

      // Solve agrees with SolveAll, witness included; each walk evicts
      // what the contract says.
      size_t evicted = 0;
      for (Engine::Problem problem : kAllProblems) {
        RunStats solo_run;
        auto solo = engine.Solve(problem, &solo_run);
        ASSERT_TRUE(solo.ok()) << solo.status();
        Engine::SolveResult batched = all->Result(problem);
        EXPECT_EQ(solo->feasible, batched.feasible);
        EXPECT_EQ(solo->optimum, batched.optimum);
        EXPECT_EQ(solo->count, batched.count);
        EXPECT_EQ(solo->witness, batched.witness);
        evicted += solo_run.dp_tables_evicted;
        if (problem == Engine::Problem::kThreeColor) {
          EXPECT_EQ(solo_run.dp_tables_evicted, 0u);
        } else if (problem == Engine::Problem::kThreeColorCount &&
                   !colorable) {
          EXPECT_LT(solo_run.dp_tables_evicted, dead);
        } else {
          EXPECT_EQ(solo_run.dp_tables_evicted, dead);
        }
      }
      EXPECT_EQ(run.dp_tables_evicted, evicted);

      // Without a witness to extract, the 3COL walk evicts too.
      EngineOptions no_witness = options;
      no_witness.extract_witness = false;
      Engine decision = Engine::FromGraph(graph, no_witness);
      RunStats retained_run;
      RunStats evicting_run;
      ASSERT_TRUE(engine.Solve(Engine::Problem::kThreeColor, &retained_run)
                      .ok());
      ASSERT_TRUE(decision.Solve(Engine::Problem::kThreeColor, &evicting_run)
                      .ok());
      if (colorable) {
        EXPECT_EQ(evicting_run.dp_tables_evicted, dead);
        EXPECT_LT(evicting_run.dp_peak_table_bytes,
                  retained_run.dp_peak_table_bytes);
      } else {
        EXPECT_LT(evicting_run.dp_tables_evicted, dead);
      }
      EXPECT_EQ(evicting_run.dp_states, retained_run.dp_states);
    }
    EXPECT_EQ(results[1].three_colorable, results[0].three_colorable);
    EXPECT_EQ(results[1].coloring, results[0].coloring);
    EXPECT_EQ(results[1].three_colorings, results[0].three_colorings);
    EXPECT_EQ(results[1].min_vertex_cover, results[0].min_vertex_cover);
    EXPECT_EQ(results[1].max_independent_set, results[0].max_independent_set);
    EXPECT_EQ(results[1].min_dominating_set, results[0].min_dominating_set);
  }
  EXPECT_TRUE(any_colorable);
}

TEST(ParallelPropertyTest, CostModelOrdersNodesByBagSizeAndKind) {
  NormNode narrow;
  narrow.bag = {0, 1};
  NormNode wide;
  wide.bag = {0, 1, 2, 3, 4};
  EXPECT_LT(EstimateNodeCost(narrow), EstimateNodeCost(wide));
  NormNode branch = wide;
  branch.kind = NormNodeKind::kBranch;
  EXPECT_EQ(EstimateNodeCost(branch), 2 * EstimateNodeCost(wide));
  // The cap keeps degenerate bags finite.
  NormNode huge;
  huge.bag.resize(64);
  for (size_t i = 0; i < huge.bag.size(); ++i) {
    huge.bag[i] = static_cast<ElementId>(i);
  }
  EXPECT_GT(EstimateNodeCost(huge), 0u);
}

// Cost-aware sharding balance: the slowest shard's modeled cost stays within
// 2x of the mean shard cost, so no shard (the root shard, under node-count
// sharding) dominates the parallel critical path.
TEST(ParallelPropertyTest, CostAwareShardingBalancesEstimatedWork) {
  for (uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng(TestSeed(trial));
    size_t n = 150 + 60 * static_cast<size_t>(trial);
    Graph graph = RandomPartialKTree(n, 2 + static_cast<int>(trial % 3), 0.6,
                                     &rng);
    Engine engine = Engine::FromGraph(graph);
    auto td = engine.Decomposition();
    ASSERT_TRUE(td.ok()) << td.status();
    auto ntd = Normalize(**td);
    ASSERT_TRUE(ntd.ok()) << ntd.status();

    for (size_t target : {4u, 8u, 16u}) {
      BagSharding sharding = ComputeBagShardingByCost(*ntd, target);
      Status valid = ValidateSharding(*ntd, sharding);
      ASSERT_TRUE(valid.ok()) << valid.message();
      if (sharding.NumShards() < 2) continue;

      uint64_t total = 0;
      uint64_t slowest = 0;
      for (const BagShard& shard : sharding.shards) {
        // BagShard::cost is the sum of its nodes' modeled costs.
        uint64_t recomputed = 0;
        for (TdNodeId id : shard.nodes) {
          recomputed += EstimateNodeCost(ntd->node(id));
        }
        EXPECT_EQ(shard.cost, recomputed);
        total += shard.cost;
        slowest = std::max(slowest, shard.cost);
      }
      double mean = static_cast<double>(total) /
                    static_cast<double>(sharding.NumShards());
      EXPECT_LE(static_cast<double>(slowest), 2.0 * mean)
          << "trial " << trial << " target " << target << " shards "
          << sharding.NumShards();
    }
  }
}

// The enumeration's sharding (the one sharded walk) is a valid partition at
// every target, from one shard to more targets than nodes.
TEST(ParallelPropertyTest, ShardingInvariantsHoldOnRandomInstances) {
  for (uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng(TestSeed(trial));
    size_t n = 20 + 20 * static_cast<size_t>(trial);
    Graph graph = RandomPartialKTree(n, 3, 0.6, &rng);
    Engine engine = Engine::FromGraph(graph);
    auto td = engine.Decomposition();
    ASSERT_TRUE(td.ok()) << td.status();
    auto ntd = Normalize(**td);
    ASSERT_TRUE(ntd.ok()) << ntd.status();
    for (size_t target : {1u, 2u, 7u, 32u, 1000u}) {
      BagSharding sharding = ComputeBagShardingByCost(*ntd, target);
      EXPECT_GE(sharding.NumShards(), 1u);
      Status valid = ValidateSharding(*ntd, sharding);
      EXPECT_TRUE(valid.ok())
          << "trial " << trial << " target " << target << ": "
          << valid.message();
    }
  }
}

// The parallel PRIMALITY enumeration acceptance property: AllPrimes at
// num_threads = 8 runs both passes shard-scheduled on the pool and returns
// exactly the num_threads = 1 bits (checked against the brute-force oracle
// on the generated family, whose ground truth is known).
TEST(ParallelPropertyTest, PrimalityEnumerationAgreesAcrossThreadCounts) {
  for (int num_fds : {4, 32}) {
    BalancedInstance inst = GenerateBalancedInstance(num_fds);
    EngineOptions sequential;
    sequential.num_threads = 1;
    sequential.decomposition = inst.td;
    EngineOptions parallel = sequential;
    parallel.num_threads = 8;
    Engine seq_engine(inst.schema, sequential);
    Engine par_engine(inst.schema, parallel);

    RunStats seq_run;
    RunStats par_run;
    auto seq = seq_engine.AllPrimes(&seq_run);
    auto par = par_engine.AllPrimes(&par_run);
    ASSERT_TRUE(seq.ok()) << seq.status();
    ASSERT_TRUE(par.ok()) << par.status();
    EXPECT_EQ(*seq, *par) << "num_fds " << num_fds;
    // Generator ground truth: every x_i / y_i is prime (on no rhs, hence in
    // every key) and every z_i (the rhs chain) is non-prime. The brute-force
    // oracle confirms it where its 24-attribute limit allows.
    for (AttributeId a = 0; a < inst.schema.NumAttributes(); ++a) {
      bool expect_prime = inst.schema.AttributeName(a)[0] != 'z';
      EXPECT_EQ((*par)[static_cast<size_t>(a)], expect_prime)
          << "num_fds " << num_fds << " attr " << inst.schema.AttributeName(a);
    }
    if (inst.schema.NumAttributes() <= 24) {
      EXPECT_EQ(*par, AllPrimesBruteForce(inst.schema))
          << "num_fds " << num_fds;
    }

    // Same reachable state sets on both sides; the parallel session really
    // sharded both walks of the two-pass enumeration.
    EXPECT_EQ(seq_run.dp_states, par_run.dp_states) << "num_fds " << num_fds;
    EXPECT_EQ(seq_run.primality_shards, 0u);
    if (num_fds >= 32) {
      EXPECT_GT(par_run.primality_shards, 1u) << "num_fds " << num_fds;
      EXPECT_EQ(par_run.primality_shards % 2, 0u)
          << "two walks over the same shard count";
    }
  }
}

// Eviction under the enumeration: the two passes release dead solve /
// solve↓ tables mid-run (siblings release each other's bottom-up tables at
// the top-down joins) without changing a single prime bit, and evict the
// same tables at both thread counts.
TEST(ParallelPropertyTest, PrimalityEnumerationEvictionPreservesAnswers) {
  BalancedInstance inst = GenerateBalancedInstance(24);
  std::vector<bool> reference;
  std::vector<RunStats> runs;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EngineOptions options;
    options.num_threads = threads;
    options.decomposition = inst.td;
    Engine engine(inst.schema, options);
    RunStats run;
    auto primes = engine.AllPrimes(&run);
    ASSERT_TRUE(primes.ok()) << primes.status();
    if (reference.empty()) reference = *primes;
    EXPECT_EQ(*primes, reference);
    runs.push_back(run);
  }
  EXPECT_GT(runs[0].dp_tables_evicted, 0u);
  EXPECT_EQ(runs[1].dp_tables_evicted, runs[0].dp_tables_evicted);
  EXPECT_EQ(runs[1].dp_states, runs[0].dp_states);
}

TEST(ParallelPropertyTest, DatalogBackendsAgreeOnRandomPartialKTrees) {
  // Every rule carries a positive extensional e-atom over all of its
  // variables, so the program is quasi-guarded: the Engine's semi-naive
  // route must agree with the naive oracle and Thm 4.4's grounded pipeline.
  auto program = datalog::ParseProgram(R"(
    touched(X) :- e(X, Y).
    mutual(X, Y) :- e(X, Y), e(Y, X).
    reach(Y) :- mutual(X, Y), e(X, Y).
    reach(Y) :- reach(X), e(X, Y).
  )");
  ASSERT_TRUE(program.ok()) << program.status();

  for (uint64_t trial = 0; trial < 5; ++trial) {
    Rng rng(TestSeed(trial));
    Graph graph = RandomPartialKTree(25 + 10 * static_cast<size_t>(trial), 3,
                                     0.5, &rng);
    Engine engine = Engine::FromGraph(graph);
    const Structure edb = GraphToStructure(graph);
    auto naive = datalog::NaiveEvaluate(*program, edb);
    auto semi = engine.EvaluateDatalog(*program);
    auto grounded = datalog::GroundedEvaluate(*program, edb);
    ASSERT_TRUE(naive.ok()) << naive.status();
    ASSERT_TRUE(semi.ok()) << semi.status();
    ASSERT_TRUE(grounded.ok()) << grounded.status();
    EXPECT_TRUE(*naive == *semi) << "trial " << trial;
    EXPECT_TRUE(*naive == *grounded) << "trial " << trial;
  }
}

}  // namespace
}  // namespace treedl
