// The packed graph-DP kernels (core/graph_dp_internal.hpp): pinned answers and
// state counts for the five problems, and the state layouts' invariants.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/graph_dp_internal.hpp"
#include "engine/engine.hpp"
#include "graph/edge_index.hpp"
#include "graph/generators.hpp"
#include "td/heuristics.hpp"
#include "td/normalize.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

using Problem = Engine::Problem;

struct GoldenGraph {
  const char* name;
  bool colorable;
  const char* witness;  // the 3COL witness, colour per vertex ("" if none)
  uint64_t colorings;
  size_t vc, is, ds;
  // {dp_states, dp_max_states_per_node} per problem, in Problem order.
  std::pair<size_t, size_t> states[5];
};

// A change to the transitions that alters reachability or emit order moves
// these counts (or the witness) even when every answer still matches.
TEST(GraphDpTest, GoldenStateCounts) {
  const GoldenGraph kGolden[] = {
      {"petersen", true, "2021011002", 120, 6, 4, 3,
       {{1053, 90}, {1053, 90}, {281, 20}, {281, 20}, {821, 88}}},
      {"grid4x5", true, "21010021011021001021", 54450, 10, 10, 6,
       {{1821, 162}, {1821, 162}, {448, 24}, {448, 24}, {1634, 161}}},
      {"pkt3_1", false, "", 0, 17, 23, 12,
       {{706, 24}, {706, 24}, {519, 8}, {519, 8}, {1002, 26}}},
      {"pkt3_2", true, "1012022211200101020212002100010000010000", 925655040,
       11, 29, 13,
       {{2033, 54}, {2033, 54}, {781, 12}, {781, 12}, {1533, 33}}},
      {"pkt3_3", true, "0210120101000200011202011010222210001001", 11446272,
       16, 24, 12,
       {{1157, 24}, {1157, 24}, {504, 8}, {504, 8}, {866, 23}}},
      {"pkt3_4", false, "", 0, 15, 25, 11,
       {{1019, 24}, {1019, 24}, {703, 8}, {703, 8}, {1537, 27}}},
      {"pkt5_1", false, "", 0, 16, 24, 7,
       {{1393, 54}, {1393, 54}, {1452, 18}, {1452, 18}, {4992, 92}}},
      {"pkt5_2", false, "", 0, 16, 24, 9,
       {{1461, 48}, {1461, 48}, {1477, 18}, {1477, 18}, {5132, 88}}},
      {"pkt5_3", false, "", 0, 16, 24, 5,
       {{1413, 72}, {1413, 72}, {1300, 20}, {1300, 20}, {4154, 85}}},
      {"pkt5_4", false, "", 0, 15, 25, 7,
       {{1351, 72}, {1351, 72}, {1219, 15}, {1219, 15}, {3678, 74}}},
  };
  // The family, in kGolden order.
  std::vector<Graph> family = {PetersenGraph(), GridGraph(4, 5)};
  for (int k : {3, 5}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed);
      family.push_back(RandomPartialKTree(40, k, 0.5, &rng));
    }
  }
  ASSERT_EQ(family.size(), std::size(kGolden));
  const Problem kProblems[] = {Problem::kThreeColor, Problem::kThreeColorCount,
                               Problem::kVertexCover, Problem::kIndependentSet,
                               Problem::kDominatingSet};
  for (size_t threads : {1, 4}) {
    EngineOptions options;
    options.num_threads = threads;
    for (size_t i = 0; i < family.size(); ++i) {
      const GoldenGraph& golden = kGolden[i];
      SCOPED_TRACE(std::string(golden.name) + " threads " +
                   std::to_string(threads));
      Engine engine = Engine::FromGraph(family[i], options);
      for (size_t p = 0; p < std::size(kProblems); ++p) {
        RunStats stats;
        auto result = engine.Solve(kProblems[p], &stats);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_EQ(stats.dp_states, golden.states[p].first) << "problem " << p;
        EXPECT_EQ(stats.dp_max_states_per_node, golden.states[p].second)
            << "problem " << p;
        switch (kProblems[p]) {
          case Problem::kThreeColor: {
            EXPECT_EQ(result->feasible, golden.colorable);
            std::string witness;
            if (result->witness) {
              for (int c : *result->witness) witness += char('0' + c);
            }
            EXPECT_EQ(witness, golden.witness);
            break;
          }
          case Problem::kThreeColorCount:
            EXPECT_EQ(result->count, golden.colorings);
            break;
          case Problem::kVertexCover:
            EXPECT_EQ(result->optimum, golden.vc);
            break;
          case Problem::kIndependentSet:
            EXPECT_EQ(result->optimum, golden.is);
            break;
          case Problem::kDominatingSet:
            EXPECT_EQ(result->optimum, golden.ds);
            break;
        }
      }
    }
  }
}

// --- State layouts ----------------------------------------------------------

using core::BagContext;
using core::internal::ColorProblem;
using core::internal::ColorState;
using core::internal::DominatingProblem;
using core::internal::DomState;
using core::internal::SubsetProblem;
using core::internal::SubsetState;

TEST(GraphDpLayoutTest, ColorStateOpensAndDropsAtPositionsZeroAndSixtyTwo) {
  // A 62-position colouring 0,1,2,0,1,2,... on positions 0..61.
  ColorState s;
  for (int i = 0; i < 62; ++i) s = s.Open(i, i % 3);
  for (int i = 0; i < 62; ++i) ASSERT_EQ(s.Colour(i), i % 3) << i;
  for (int p : {0, 62}) {
    for (int c = 0; c < 3; ++c) {
      ColorState opened = s.Open(p, c);
      EXPECT_EQ(opened.Colour(p), c);
      EXPECT_EQ(opened.p0 & opened.p1, 0u);
      // Every other position keeps its colour, renumbered past p.
      for (int i = 0; i < 62; ++i) {
        EXPECT_EQ(opened.Colour(i < p ? i : i + 1), i % 3) << p << " " << i;
      }
      EXPECT_EQ(opened.Drop(p), s);
    }
  }
}

TEST(GraphDpLayoutTest, EachColourEncodesToItsBitPlanes) {
  const std::pair<uint64_t, uint64_t> kPlanes[3] = {{0, 0}, {1, 0}, {0, 1}};
  for (int c = 0; c < 3; ++c) {
    ColorState s = ColorState{}.Open(0, c);
    EXPECT_EQ(s.p0, kPlanes[c].first) << c;
    EXPECT_EQ(s.p1, kPlanes[c].second) << c;
    EXPECT_EQ(s.Colour(0), c);
  }
}

// MakeBagContext probes the masks from an EdgeIndex; they must equal the
// pairwise edge tests: every bag edge at a leaf, the new vertex's bag edges
// (both directions) at an introduce node, none elsewhere. Positions past the
// bag are unspecified and not compared. Besides random partial k-trees, two
// graphs with a hub: a fan, and a partial 3-tree with vertex 0 joined to
// every vertex.
TEST(GraphDpLayoutTest, BagContextMasksMatchPairwiseEdgeTests) {
  Rng rng(TestSeed());
  std::vector<Graph> graphs;
  for (int trial = 0; trial < 6; ++trial) {
    graphs.push_back(RandomPartialKTree(60, 2 + trial % 4, 0.6, &rng));
  }
  graphs.push_back(TreeFanGraph(60));
  Graph hub = RandomPartialKTree(60, 3, 0.6, &rng);
  for (VertexId v = 1; v < hub.NumVertices(); ++v) hub.AddEdge(0, v);
  graphs.push_back(std::move(hub));
  for (size_t trial = 0; trial < graphs.size(); ++trial) {
    const Graph& graph = graphs[trial];
    EdgeIndex edges(graph);
    auto td = Decompose(graph);
    ASSERT_TRUE(td.ok());
    auto ntd = Normalize(*td);
    ASSERT_TRUE(ntd.ok());
    for (size_t id = 0; id < ntd->NumNodes(); ++id) {
      const NormNode& node = ntd->node(static_cast<TdNodeId>(id));
      BagContext ctx = core::MakeBagContext(node, &edges);
      ASSERT_EQ(ctx.size, static_cast<int>(node.bag.size()));
      for (int i = 0; i < ctx.size; ++i) {
        uint64_t expected = 0;
        for (int j = 0; j < ctx.size; ++j) {
          bool tested = node.kind == NormNodeKind::kLeaf ||
                        (node.kind == NormNodeKind::kIntroduce &&
                         (i == ctx.pos || j == ctx.pos));
          if (i != j && tested &&
              graph.HasEdge(node.bag[static_cast<size_t>(i)],
                            node.bag[static_cast<size_t>(j)])) {
            expected |= uint64_t{1} << j;
          }
        }
        ASSERT_EQ(ctx.adjacent[i], expected)
            << "graph " << trial << " node " << id << " position " << i;
      }
    }
  }
}

// The colouring leaf prunes improper prefixes, but it must emit exactly the
// states of the base-3 odometer (position 0 fastest) that keeps the proper
// colourings, in the odometer's order — the order fixes every later table.
TEST(GraphDpLayoutTest, ColouringLeafEmitsTheOdometerSequence) {
  Rng rng(TestSeed());
  Graph graph(1);  // the hooks read only the context's masks
  ColorProblem<false> decide(graph);
  ColorProblem<true> count(graph);
  for (int trial = 0; trial < 100; ++trial) {
    BagContext ctx{};
    ctx.size = static_cast<int>(rng.UniformInt(1, 10));
    double density = rng.UniformInt(0, 4) / 4.0;
    for (int i = 0; i < ctx.size; ++i) {
      for (int j = i + 1; j < ctx.size; ++j) {
        if (!rng.Bernoulli(density)) continue;
        ctx.adjacent[i] |= uint64_t{1} << j;
        ctx.adjacent[j] |= uint64_t{1} << i;
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<ColorState> expected;
    int total = 1;
    for (int i = 0; i < ctx.size; ++i) total *= 3;
    for (int code = 0; code < total; ++code) {
      ColorState s;
      for (int i = 0, rest = code; i < ctx.size; ++i, rest /= 3) {
        s.p0 |= uint64_t{rest % 3 == 1} << i;
        s.p1 |= uint64_t{rest % 3 == 2} << i;
      }
      bool proper = true;
      for (int i = 0; i < ctx.size; ++i) {
        for (int j = i + 1; j < ctx.size; ++j) {
          if (((ctx.adjacent[i] >> j) & 1) && s.Colour(i) == s.Colour(j)) {
            proper = false;
          }
        }
      }
      if (proper) expected.push_back(s);
    }
    std::vector<ColorState> decided;
    decide.Leaf(ctx, [&](const ColorState& s, std::monostate) {
      decided.push_back(s);
    });
    EXPECT_EQ(decided, expected);
    std::vector<ColorState> counted;
    count.Leaf(ctx, [&](const ColorState& s, uint64_t value) {
      EXPECT_EQ(value, 1u);
      counted.push_back(s);
    });
    EXPECT_EQ(counted, expected);
  }
}

// The vertex-cover and independent-set leaves prune the same way: they must
// emit the feasible masks of the plain 0 .. 2^|bag| - 1 loop, in its order.
TEST(GraphDpLayoutTest, SubsetLeavesEmitFeasibleMasksInIncreasingOrder) {
  Rng rng(TestSeed());
  Graph graph(1);
  SubsetProblem<true> cover(graph);
  SubsetProblem<false> independent(graph);
  for (int trial = 0; trial < 100; ++trial) {
    BagContext ctx{};
    ctx.size = static_cast<int>(rng.UniformInt(1, 10));
    double density = rng.UniformInt(0, 4) / 4.0;
    for (int i = 0; i < ctx.size; ++i) {
      for (int j = i + 1; j < ctx.size; ++j) {
        if (!rng.Bernoulli(density)) continue;
        ctx.adjacent[i] |= uint64_t{1} << j;
        ctx.adjacent[j] |= uint64_t{1} << i;
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<uint64_t> expected_cover;
    std::vector<uint64_t> expected_independent;
    for (uint64_t mask = 0; mask <= ctx.All(); ++mask) {
      bool covers = true;
      bool independent_set = true;
      for (int i = 0; i < ctx.size; ++i) {
        for (int j = i + 1; j < ctx.size; ++j) {
          if (!((ctx.adjacent[i] >> j) & 1)) continue;
          bool in_i = (mask >> i) & 1;
          bool in_j = (mask >> j) & 1;
          covers = covers && (in_i || in_j);
          independent_set = independent_set && !(in_i && in_j);
        }
      }
      if (covers) expected_cover.push_back(mask);
      if (independent_set) expected_independent.push_back(mask);
    }
    auto leaf = [&](const auto& problem) {
      std::vector<uint64_t> masks;
      problem.Leaf(ctx, [&](const SubsetState& s, size_t value) {
        EXPECT_EQ(value, static_cast<size_t>(std::popcount(s.in_set)));
        masks.push_back(s.in_set);
      });
      return masks;
    };
    EXPECT_EQ(leaf(cover), expected_cover);
    EXPECT_EQ(leaf(independent), expected_independent);
  }
}

// Every state a DS transition emits keeps in_set & dominated == 0 and stays
// inside the bag's positions.
TEST(GraphDpLayoutTest, DominatingSetTransitionsKeepInSetAndDominatedDisjoint) {
  Rng rng(TestSeed());
  Graph graph(1);  // the hooks read only the context's masks
  DominatingProblem problem(graph);
  for (int trial = 0; trial < 200; ++trial) {
    BagContext ctx{};
    ctx.size = static_cast<int>(rng.UniformInt(1, 10));
    ctx.pos = static_cast<int>(rng.UniformInt(0, ctx.size - 1));
    for (int i = 0; i < ctx.size; ++i) {
      for (int j = i + 1; j < ctx.size; ++j) {
        if (!rng.Bernoulli(0.5)) continue;
        ctx.adjacent[i] |= uint64_t{1} << j;
        ctx.adjacent[j] |= uint64_t{1} << i;
      }
    }
    // A random valid state over `positions`.
    auto random_state = [&](int positions) {
      uint64_t all = (uint64_t{1} << positions) - 1;
      uint64_t in_set = rng.engine()() & all;
      return DomState{in_set, rng.engine()() & all & ~in_set};
    };
    int emitted = 0;
    auto check = [&](const DomState& s, size_t) {
      ++emitted;
      EXPECT_EQ(s.in_set & s.dominated, 0u);
      EXPECT_EQ((s.in_set | s.dominated) & ~ctx.All(), 0u);
    };
    // Introduce: the child's bag lacks position ctx.pos.
    problem.Introduce(ctx, random_state(ctx.size - 1), 0, check);
    EXPECT_EQ(emitted, 2);
    // Join: key-equal states share in_set.
    DomState a = random_state(ctx.size);
    DomState b{a.in_set, rng.engine()() & ctx.All() & ~a.in_set};
    problem.Join(ctx, a, 5, b, 7, check);
    EXPECT_EQ(emitted, 3);
  }
}

}  // namespace
}  // namespace treedl
