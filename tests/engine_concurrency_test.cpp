// Concurrency tests for the shared treedl::Engine session: the PR-1
// amortization invariant (N queries = 1 encode + 1 TD build) must survive N
// *threads* racing on a cold cache, and every thread must see the same
// answers as a sequential session. Run under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "mso/parser.hpp"
#include "schema/primality_bruteforce.hpp"
#include "schema/schema.hpp"
#include "test_util.hpp"

namespace treedl {
namespace {

constexpr int kThreads = 8;
constexpr int kRounds = 3;

TEST(EngineConcurrencyTest, SchemaSessionBuildsOnceUnderContention) {
  Schema schema = Schema::PaperExampleSchema();
  const AttributeId n = schema.NumAttributes();
  std::vector<bool> expected = AllPrimesBruteForce(schema);

  EngineCounters& global = GlobalEngineCounters();
  size_t encode_before = global.encode_builds;
  size_t td_before = global.td_builds;

  Engine engine(schema);
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (AttributeId a = 0; a < n; ++a) {
          auto result = engine.IsPrime(a);
          if (!result.ok()) {
            ++errors;
          } else if (*result != expected[static_cast<size_t>(a)]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // The PR-1 amortization invariant, now under contention: one encoding and
  // one decomposition build for the whole racing session.
  EXPECT_EQ(global.encode_builds - encode_before, 1u);
  EXPECT_EQ(global.td_builds - td_before, 1u);
  EXPECT_EQ(engine.CumulativeStats().encode_builds, 1u);
  EXPECT_EQ(engine.CumulativeStats().td_builds, 1u);
}

TEST(EngineConcurrencyTest, AllPrimesMemoUnderContention) {
  Schema schema = Schema::PaperExampleSchema();
  std::vector<bool> expected = AllPrimesBruteForce(schema);

  Engine engine(schema);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto primes = engine.AllPrimes();
      if (!primes.ok() || *primes != expected) ++failures;
      // Decisions after the enumeration answer from the shared memo.
      auto one = engine.IsPrime(0);
      if (!one.ok() || *one != expected[0]) ++failures;
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.CumulativeStats().encode_builds, 1u);
  EXPECT_EQ(engine.CumulativeStats().td_builds, 1u);
}

TEST(EngineConcurrencyTest, GraphSolvesAgreeWithSequentialSession) {
  Rng rng(TestSeed());
  Graph graph = RandomPartialKTree(60, 3, 0.6, &rng);

  // Sequential ground truth (num_threads = 1: no pool).
  EngineOptions sequential;
  sequential.num_threads = 1;
  Engine oracle = Engine::FromGraph(graph, sequential);
  auto expected_color = oracle.Solve(Engine::Problem::kThreeColor);
  auto expected_count = oracle.Solve(Engine::Problem::kThreeColorCount);
  auto expected_vc = oracle.Solve(Engine::Problem::kVertexCover);
  auto expected_all = oracle.SolveAll();
  ASSERT_TRUE(expected_color.ok() && expected_count.ok() && expected_vc.ok() &&
              expected_all.ok());

  // One shared parallel session queried from many threads at once: the
  // Solves walk on their callers' threads, and concurrent SolveAlls submit
  // their walks to the one 4-thread session pool.
  EngineOptions parallel;
  parallel.num_threads = 4;
  Engine engine = Engine::FromGraph(graph, parallel);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        switch ((t + round) % 4) {
          case 0: {
            auto r = engine.Solve(Engine::Problem::kThreeColor);
            if (!r.ok() || r->feasible != expected_color->feasible) ++failures;
            break;
          }
          case 1: {
            auto r = engine.Solve(Engine::Problem::kThreeColorCount);
            if (!r.ok() || r->count != expected_count->count) ++failures;
            break;
          }
          case 2: {
            auto r = engine.Solve(Engine::Problem::kVertexCover);
            if (!r.ok() || r->optimum != expected_vc->optimum) ++failures;
            break;
          }
          case 3: {
            auto r = engine.SolveAll();
            if (!r.ok() || r->coloring != expected_all->coloring ||
                r->three_colorings != expected_all->three_colorings ||
                r->min_vertex_cover != expected_all->min_vertex_cover ||
                r->max_independent_set != expected_all->max_independent_set ||
                r->min_dominating_set != expected_all->min_dominating_set) {
              ++failures;
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  // One decomposition and one normalization serve every racing query.
  EXPECT_EQ(engine.CumulativeStats().td_builds, 1u);
  EXPECT_EQ(engine.CumulativeStats().normalize_builds, 1u);
}

TEST(EngineConcurrencyTest, MsoProgramCacheCompilesOnceUnderContention) {
  // The rank-1 unary regime of engine_test's MSO cross-check, now racing.
  Signature unary = Signature::Make({{"p", 1}}).value();
  Structure a(unary);
  for (int i = 0; i < 6; ++i) a.AddElement("u" + std::to_string(i));
  ASSERT_TRUE(a.AddFactNamed("p", {"u1"}).ok());
  ASSERT_TRUE(a.AddFactNamed("p", {"u4"}).ok());
  auto query = mso::ParseFormula("p(x) & (ex1 y: (~(y = x) & p(y)))");
  ASSERT_TRUE(query.ok()) << query.status();

  TreeDecomposition path_td;
  TdNodeId prev = path_td.AddNode({0, 1});
  for (ElementId e = 1; e + 1 < 6; ++e) {
    prev = path_td.AddNode({e, e + 1}, prev);
  }
  EngineOptions options;
  options.decomposition = path_td;
  Engine engine{Structure(a), options};

  const std::vector<bool> expected{false, true, false, false, true, false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        auto selected = engine.EvaluateMsoUnary(*query, "x");
        if (!selected.ok() || *selected != expected) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  // Exactly one Thm 4.5 construction across all racing evaluations.
  EXPECT_EQ(engine.CumulativeStats().mso_compile_builds, 1u);
  EXPECT_EQ(engine.CumulativeStats().td_builds, 1u);
}

}  // namespace
}  // namespace treedl
