#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "graph/gaifman.hpp"
#include "graph/generators.hpp"
#include "schema/encode.hpp"
#include "schema/generators.hpp"
#include "structure/structure_io.hpp"
#include "td/elimination_order.hpp"
#include "td/heuristics.hpp"
#include "td/td_io.hpp"
#include "td/tree_decomposition.hpp"
#include "td/validate.hpp"

#include "test_util.hpp"

namespace treedl {
namespace {

Structure PaperStructure() {
  auto parsed = ParseStructure(Signature::SchemaSignature(),
                               "att(a). att(b). att(c). att(d). att(e). att(g).\n"
                               "fd(f1). fd(f2). fd(f3). fd(f4). fd(f5).\n"
                               "lh(a, f1). lh(b, f1). lh(c, f2). lh(c, f3).\n"
                               "lh(d, f3). lh(d, f4). lh(e, f4). lh(g, f5).\n"
                               "rh(c, f1). rh(b, f2). rh(e, f3). rh(g, f4).\n"
                               "rh(e, f5).\n");
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return std::move(parsed).value();
}

// Figure 1's tree decomposition of the running example, width 2.
TreeDecomposition PaperFigure1Td(const Structure& s) {
  auto el = [&](const char* name) { return s.ElementByName(name).value(); };
  TreeDecomposition td;
  TdNodeId root = td.AddNode({el("f3"), el("d"), el("e")});
  TdNodeId n_f4 = td.AddNode({el("d"), el("e"), el("f4")}, root);
  TdNodeId n_f5 = td.AddNode({el("e"), el("f4"), el("f5")}, n_f4);
  td.AddNode({el("f4"), el("f5"), el("g")}, n_f5);
  TdNodeId n_c = td.AddNode({el("c"), el("f3")}, root);
  TdNodeId n_cf1 = td.AddNode({el("c"), el("f1"), el("f2")}, n_c);
  TdNodeId n_bf1 = td.AddNode({el("b"), el("f1"), el("f2")}, n_cf1);
  td.AddNode({el("a"), el("b"), el("f1")}, n_bf1);
  return td;
}

TEST(TreeDecompositionTest, WidthAndAccessors) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  EXPECT_EQ(td.NumNodes(), 8u);
  EXPECT_EQ(td.Width(), 2);  // the paper's Fig. 1 decomposition is optimal
  EXPECT_TRUE(td.BagContains(td.root(), s.ElementByName("d").value()));
}

TEST(TreeDecompositionTest, PaperFigure1IsValid) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  EXPECT_TRUE(ValidateForStructure(s, td).ok());
}

TEST(TreeDecompositionTest, PreAndPostOrderAreConsistent) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  auto pre = td.PreOrder();
  ASSERT_EQ(pre.size(), td.NumNodes());
  EXPECT_EQ(pre.front(), td.root());
  std::vector<bool> seen(td.NumNodes(), false);
  for (TdNodeId id : pre) {
    TdNodeId p = td.node(id).parent;
    if (p != kNoTdNode) {
      EXPECT_TRUE(seen[static_cast<size_t>(p)]);
    }
    seen[static_cast<size_t>(id)] = true;
  }
  auto post = td.PostOrder();
  EXPECT_EQ(post.back(), td.root());
}

TEST(TreeDecompositionTest, ReRootPreservesValidity) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    TreeDecomposition copy = PaperFigure1Td(s);
    ASSERT_TRUE(copy.ReRoot(static_cast<TdNodeId>(i)).ok());
    EXPECT_EQ(copy.root(), static_cast<TdNodeId>(i));
    EXPECT_TRUE(ValidateForStructure(s, copy).ok()) << "rooted at " << i;
    EXPECT_EQ(copy.Width(), 2);
  }
}

TEST(TreeDecompositionTest, ReRootRejectsBadId) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  EXPECT_FALSE(td.ReRoot(99).ok());
}

TEST(ValidateTest, DetectsMissingElement) {
  Structure s = PaperStructure();
  TreeDecomposition td;
  td.AddNode({0, 1});  // covers almost nothing
  Status st = ValidateForStructure(s, td);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ValidateTest, DetectsUncoveredFact) {
  // Elements all covered, but lh(a, f1) has no common bag.
  auto parsed = ParseStructure(Signature::SchemaSignature(),
                               "att(a). fd(f1). lh(a, f1). rh(a, f1).");
  ASSERT_TRUE(parsed.ok());
  TreeDecomposition td;
  TdNodeId r = td.AddNode({parsed->ElementByName("a").value()});
  td.AddNode({parsed->ElementByName("f1").value()}, r);
  Status st = ValidateForStructure(*parsed, td);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("fact"), std::string::npos);
}

TEST(ValidateTest, DetectsConnectednessViolation) {
  // Element 0 occurs in two bags separated by a bag without it.
  Graph g = PathGraph(3);
  TreeDecomposition td;
  TdNodeId a = td.AddNode({0, 1});
  TdNodeId b = td.AddNode({1, 2}, a);
  td.AddNode({0, 2}, b);  // 0 reappears: not a subtree
  Status st = ValidateForGraph(g, td);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("connectedness"), std::string::npos);
}

// A {e/2}-structure parsed from `facts`, its graph over the same ids, and a
// decomposition whose node i has bag `bags[i]` under node `parents[i]`.
struct EdgeCase {
  Structure structure;
  Graph graph;
  TreeDecomposition td;
};

EdgeCase MakeEdgeCase(const std::string& facts,
                      const std::vector<std::vector<std::string>>& bags,
                      const std::vector<TdNodeId>& parents) {
  auto parsed = ParseStructure(Signature::GraphSignature(), facts);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  EdgeCase out{std::move(parsed).value(), Graph(), TreeDecomposition()};
  out.graph = Graph(out.structure.NumElements());
  for (const Fact& fact : out.structure.AllFacts()) {
    out.graph.AddEdge(fact.args[0], fact.args[1]);
  }
  for (size_t i = 0; i < bags.size(); ++i) {
    std::vector<ElementId> bag;
    for (const std::string& name : bags[i]) {
      bag.push_back(out.structure.ElementByName(name).value());
    }
    out.td.AddNode(bag, parents[i]);
  }
  return out;
}

TEST(ValidateTest, RejectsFactWhoseArgumentsAreFrequentButNeverTogether) {
  // a and f occur in three bags each, in disjoint subtrees: e(a, f) has no
  // common bag.
  EdgeCase c = MakeEdgeCase(
      "e(a, b). e(a, c). e(b, f). e(f, d). e(f, g). e(a, f).",
      {{"a"}, {"a", "b"}, {"a", "c"}, {"b", "f"}, {"f", "d"}, {"f", "g"}},
      {kNoTdNode, 0, 0, 1, 3, 3});
  Status st = ValidateForStructure(c.structure, c.td);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("fact"), std::string::npos);
  st = ValidateForGraph(c.graph, c.td);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("edge"), std::string::npos);
}

TEST(ValidateTest, AcceptsFactCoveredOnlyByALaterOccurrenceOfItsRarestArg) {
  // a (two bags) is rarer than f (three); only a's second bag holds both.
  EdgeCase c = MakeEdgeCase("e(a, b). e(a, f). e(f, c). e(f, d).",
                            {{"a", "b"}, {"a", "f"}, {"f", "c"}, {"f", "d"}},
                            {kNoTdNode, 0, 1, 1});
  EXPECT_TRUE(ValidateForStructure(c.structure, c.td).ok());
  EXPECT_TRUE(ValidateForGraph(c.graph, c.td).ok());
}

TEST(ValidateTest, AcceptsRepeatedArgumentFact) {
  EdgeCase c = MakeEdgeCase("e(a, a). e(a, b).", {{"a"}, {"a", "b"}},
                            {kNoTdNode, 0});
  EXPECT_TRUE(ValidateForStructure(c.structure, c.td).ok());
  // The graph drops the self-loop, exactly as the fact dedups to {a}.
  EXPECT_FALSE(c.graph.AddEdge(0, 0));
  EXPECT_TRUE(ValidateForGraph(c.graph, c.td).ok());
}

TEST(SubtreeTest, SubtreeAndEnvelopePartitionNodes) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    TdNodeId t = static_cast<TdNodeId>(i);
    auto sub = SubtreeNodes(td, t);
    auto env = EnvelopeNodes(td, t);
    // |T_t| + |T̄_t| = |T| + 1 (t counted in both).
    EXPECT_EQ(sub.size() + env.size(), td.NumNodes() + 1);
  }
}

TEST(SubtreeTest, InducedStructuresMatchFigure3) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  // Node with bag {c, f3}: subtree holds the a/b/c/f1/f2 part, the envelope
  // holds the d/e/g/f3/f4/f5 part (plus c, f3 in both).
  TdNodeId n_c = kNoTdNode;
  ElementId c = s.ElementByName("c").value();
  ElementId f3 = s.ElementByName("f3").value();
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    if (td.Bag(static_cast<TdNodeId>(i)) ==
        std::vector<ElementId>{std::min(c, f3), std::max(c, f3)}) {
      n_c = static_cast<TdNodeId>(i);
    }
  }
  ASSERT_NE(n_c, kNoTdNode);
  std::vector<ElementId> bag;
  Structure down = InducedStructure(s, td, n_c, /*envelope=*/false, &bag);
  EXPECT_EQ(down.NumElements(), 6u);  // a, b, c, f1, f2, f3
  EXPECT_TRUE(down.HasElementNamed("a"));
  EXPECT_FALSE(down.HasElementNamed("g"));
  EXPECT_EQ(bag.size(), 2u);
  Structure up = InducedStructure(s, td, n_c, /*envelope=*/true, &bag);
  EXPECT_EQ(up.NumElements(), 7u);  // c, d, e, g, f3, f4, f5
  EXPECT_TRUE(up.HasElementNamed("g"));
  EXPECT_FALSE(up.HasElementNamed("a"));
}

TEST(EliminationTest, OrderWidthMatchesDecomposition) {
  Rng rng(TestSeed());
  Graph g = RandomPartialKTree(14, 3, 0.7, &rng);
  std::vector<VertexId> order = HeuristicOrder(g, TdHeuristic::kMinFill);
  auto width = OrderWidth(g, order);
  ASSERT_TRUE(width.ok());
  auto td = DecompositionFromOrder(g, order);
  ASSERT_TRUE(td.ok());
  EXPECT_EQ(td->Width(), *width);
  EXPECT_TRUE(ValidateForGraph(g, *td).ok());
}

TEST(EliminationTest, RejectsNonPermutations) {
  Graph g = PathGraph(3);
  EXPECT_FALSE(DecompositionFromOrder(g, {0, 1}).ok());
  EXPECT_FALSE(DecompositionFromOrder(g, {0, 1, 1}).ok());
  EXPECT_FALSE(DecompositionFromOrder(g, {0, 1, 7}).ok());
}

// The order oracle: the quadratic std::set rescans that the incremental
// elimination graph replaced, kept verbatim. Every order, decomposition,
// transcript and bench baseline is pinned to what they produced.
namespace oracle {

// Number of fill edges created by eliminating v given set-based adjacency.
size_t FillIn(const std::vector<std::set<VertexId>>& adj, VertexId v) {
  size_t fill = 0;
  std::vector<VertexId> nbrs(adj[v].begin(), adj[v].end());
  for (size_t a = 0; a < nbrs.size(); ++a) {
    for (size_t b = a + 1; b < nbrs.size(); ++b) {
      if (!adj[nbrs[a]].count(nbrs[b])) ++fill;
    }
  }
  return fill;
}

std::vector<VertexId> GreedyOrder(const Graph& graph, bool min_fill) {
  size_t n = graph.NumVertices();
  std::vector<std::set<VertexId>> adj(n);
  for (auto [u, v] : graph.Edges()) {
    adj[u].insert(v);
    adj[v].insert(u);
  }
  std::vector<bool> eliminated(n, false);
  std::vector<VertexId> order;
  order.reserve(n);
  for (size_t step = 0; step < n; ++step) {
    VertexId best = 0;
    size_t best_score = std::numeric_limits<size_t>::max();
    for (VertexId v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      size_t score = min_fill ? FillIn(adj, v) : adj[v].size();
      if (score < best_score) {
        best_score = score;
        best = v;
      }
    }
    order.push_back(best);
    eliminated[best] = true;
    std::vector<VertexId> nbrs(adj[best].begin(), adj[best].end());
    for (size_t a = 0; a < nbrs.size(); ++a) {
      adj[nbrs[a]].erase(best);
      for (size_t b = a + 1; b < nbrs.size(); ++b) {
        adj[nbrs[a]].insert(nbrs[b]);
        adj[nbrs[b]].insert(nbrs[a]);
      }
    }
    adj[best].clear();
  }
  return order;
}

// Simulates elimination; fills bag-per-vertex (in elimination order) and,
// for each eliminated vertex, the earliest-later-eliminated neighbor (or
// kNoTdNode). Uses std::set adjacency for cheap edge insertion/removal.
void SimulateElimination(const Graph& graph, const std::vector<VertexId>& order,
                         std::vector<std::vector<ElementId>>* bags,
                         std::vector<int>* attach_position) {
  size_t n = graph.NumVertices();
  std::vector<std::set<VertexId>> adj(n);
  for (auto [u, v] : graph.Edges()) {
    adj[u].insert(v);
    adj[v].insert(u);
  }
  std::vector<int> position(n);
  for (size_t i = 0; i < n; ++i) position[order[i]] = static_cast<int>(i);

  bags->assign(n, {});
  attach_position->assign(n, -1);
  for (size_t i = 0; i < n; ++i) {
    VertexId v = order[i];
    std::vector<VertexId> nbrs(adj[v].begin(), adj[v].end());
    auto& bag = (*bags)[i];
    bag.push_back(v);
    int earliest_later = -1;
    for (VertexId u : nbrs) {
      bag.push_back(u);
      if (earliest_later == -1 || position[u] < earliest_later) {
        earliest_later = position[u];
      }
    }
    (*attach_position)[i] = earliest_later;
    // Clique-ify the neighborhood and remove v.
    for (size_t a = 0; a < nbrs.size(); ++a) {
      adj[nbrs[a]].erase(v);
      for (size_t b = a + 1; b < nbrs.size(); ++b) {
        adj[nbrs[a]].insert(nbrs[b]);
        adj[nbrs[b]].insert(nbrs[a]);
      }
    }
    adj[v].clear();
  }
}

// DecompositionFromOrder's tree assembly over the reference elimination.
TreeDecomposition DecompositionFromOrder(const Graph& graph,
                                         const std::vector<VertexId>& order) {
  TreeDecomposition td;
  size_t n = graph.NumVertices();
  if (n == 0) {
    td.AddNode({});
    return td;
  }
  std::vector<std::vector<ElementId>> bags;
  std::vector<int> attach_position;
  SimulateElimination(graph, order, &bags, &attach_position);
  std::vector<TdNodeId> node_of_position(n, kNoTdNode);
  node_of_position[n - 1] = td.AddNode(bags[n - 1]);
  for (size_t i = n - 1; i-- > 0;) {
    int parent_pos = attach_position[i];
    if (parent_pos < 0) parent_pos = static_cast<int>(i) + 1;
    node_of_position[i] =
        td.AddNode(bags[i], node_of_position[static_cast<size_t>(parent_pos)]);
  }
  return td;
}

std::vector<VertexId> HeuristicOrder(const Graph& graph,
                                     TdHeuristic heuristic) {
  return GreedyOrder(graph, heuristic == TdHeuristic::kMinFill);
}

}  // namespace oracle

// Every generator the library ships, at sizes the oracle handles quickly.
std::vector<Graph> OracleFamily(Rng* rng) {
  std::vector<Graph> family{Graph(0), Graph(5), PetersenGraph()};
  for (size_t n = 1; n <= 17; ++n) {
    family.push_back(PathGraph(n));
    family.push_back(CompleteGraph(n));
    if (n >= 3) family.push_back(CycleGraph(n));
  }
  for (auto [rows, cols] : std::vector<std::pair<size_t, size_t>>{
           {1, 7}, {2, 3}, {3, 3}, {3, 5}, {4, 4}, {5, 6}, {6, 6}}) {
    family.push_back(GridGraph(rows, cols));
  }
  for (int k = 1; k <= 6; ++k) {
    for (size_t n : {12, 40, 80}) {
      family.push_back(RandomKTree(n, k, rng));
      family.push_back(RandomPartialKTree(n, k, 0.4, rng));
      family.push_back(RandomPartialKTree(n, k, 0.7, rng));
    }
  }
  for (size_t n : {8, 15, 30, 50}) {
    for (double p : {0.1, 0.3, 0.6}) family.push_back(RandomGnp(n, p, rng));
  }
  for (int attributes : {6, 12, 24, 40}) {
    for (int window : {3, 5}) {
      Schema schema =
          RandomWindowSchema(attributes, attributes / 2 + 1, window, rng);
      family.push_back(GaifmanGraph(EncodeSchema(schema).structure));
    }
  }
  return family;
}

// Same bags (sorted by AddNode) and the same parent for every node id.
void ExpectSameDecomposition(const TreeDecomposition& want,
                             const TreeDecomposition& got) {
  ASSERT_EQ(want.NumNodes(), got.NumNodes());
  for (size_t i = 0; i < want.NumNodes(); ++i) {
    TdNodeId id = static_cast<TdNodeId>(i);
    EXPECT_EQ(want.Bag(id), got.Bag(id)) << "node " << i;
    EXPECT_EQ(want.node(id).parent, got.node(id).parent) << "node " << i;
  }
}

TEST(OrderOracleTest, OrdersAndDecompositionsMatchTheRescan) {
  Rng rng(TestSeed());
  std::vector<Graph> family = OracleFamily(&rng);
  for (size_t g = 0; g < family.size(); ++g) {
    SCOPED_TRACE("graph " + std::to_string(g));
    const Graph& graph = family[g];
    for (TdHeuristic h : {TdHeuristic::kMinDegree, TdHeuristic::kMinFill}) {
      std::vector<VertexId> order = HeuristicOrder(graph, h);
      ASSERT_EQ(order, oracle::HeuristicOrder(graph, h))
          << "heuristic " << static_cast<int>(h);
      auto td = DecompositionFromOrder(graph, order);
      ASSERT_TRUE(td.ok()) << td.status();
      TreeDecomposition want = oracle::DecompositionFromOrder(graph, order);
      ExpectSameDecomposition(want, *td);
      EXPECT_EQ(OrderWidth(graph, order).value(), want.Width());
    }
  }
}

TEST(HeuristicsTest, KnownWidths) {
  // Heuristics are exact on these families.
  EXPECT_EQ(Decompose(PathGraph(10))->Width(), 1);
  EXPECT_EQ(Decompose(CycleGraph(8))->Width(), 2);
  EXPECT_EQ(Decompose(CompleteGraph(5))->Width(), 4);
  EXPECT_EQ(Decompose(Graph(3))->Width(), 0);  // edgeless
}

TEST(HeuristicsTest, AllHeuristicsProduceValidDecompositions) {
  Rng rng(TestSeed());
  for (TdHeuristic h :
       {TdHeuristic::kMinDegree, TdHeuristic::kMinFill}) {
    Graph g = RandomPartialKTree(20, 3, 0.6, &rng);
    auto td = Decompose(g, h);
    ASSERT_TRUE(td.ok());
    EXPECT_TRUE(ValidateForGraph(g, *td).ok());
    EXPECT_GE(td->Width(), 0);
  }
}

TEST(HeuristicsTest, PartialKTreeWidthBounded) {
  Rng rng(TestSeed());
  // Min-fill on a full k-tree recovers width k exactly; partial stays <= k
  // most of the time (guaranteed: treewidth <= k, heuristic may overshoot on
  // the partial graph, so only assert on the full k-tree).
  for (int k : {1, 2, 3, 4}) {
    Graph g = RandomKTree(18, k, &rng);
    auto td = Decompose(g, TdHeuristic::kMinFill);
    ASSERT_TRUE(td.ok());
    EXPECT_EQ(td->Width(), k);
  }
}

TEST(HeuristicsTest, StructureDecompositionPaperExampleWidthTwo) {
  Structure s = PaperStructure();
  auto td = DecomposeStructure(s);
  ASSERT_TRUE(td.ok());
  EXPECT_TRUE(ValidateForStructure(s, *td).ok());
  // Ex 2.2 proves tw = 2 for this structure; min-fill finds it.
  EXPECT_EQ(td->Width(), 2);
}

TEST(ExactTreewidthTest, KnownValues) {
  EXPECT_EQ(ExactTreewidth(PathGraph(6)).value(), 1);
  EXPECT_EQ(ExactTreewidth(CycleGraph(6)).value(), 2);
  EXPECT_EQ(ExactTreewidth(CompleteGraph(5)).value(), 4);
  EXPECT_EQ(ExactTreewidth(GridGraph(3, 3)).value(), 3);
  EXPECT_EQ(ExactTreewidth(PetersenGraph()).value(), 4);
  EXPECT_EQ(ExactTreewidth(Graph(4)).value(), 0);
}

TEST(ExactTreewidthTest, HeuristicNeverBeatsExact) {
  Rng rng(TestSeed());
  for (int trial = 0; trial < 8; ++trial) {
    Graph g = RandomGnp(9, 0.4, &rng);
    int exact = ExactTreewidth(g).value();
    for (TdHeuristic h :
         {TdHeuristic::kMinDegree, TdHeuristic::kMinFill}) {
      EXPECT_GE(Decompose(g, h)->Width(), exact);
    }
  }
}

TEST(ExactTreewidthTest, RejectsLargeGraphs) {
  EXPECT_EQ(ExactTreewidth(Graph(25)).status().code(), StatusCode::kOutOfRange);
}

TEST(TdIoTest, RenderContainsAllNodes) {
  Structure s = PaperStructure();
  TreeDecomposition td = PaperFigure1Td(s);
  std::string text = RenderTree(td, NamerFor(s));
  for (size_t i = 0; i < td.NumNodes(); ++i) {
    EXPECT_NE(text.find("n" + std::to_string(i) + " "), std::string::npos);
  }
  EXPECT_NE(text.find("f3"), std::string::npos);
  std::string dot = ToDot(td, NamerFor(s));
  EXPECT_NE(dot.find("graph td"), std::string::npos);
  EXPECT_NE(dot.find("--"), std::string::npos);
}

}  // namespace
}  // namespace treedl
