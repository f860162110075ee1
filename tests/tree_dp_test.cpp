#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/program_listings.hpp"
#include "common/thread_pool.hpp"
#include "core/graph_dp_internal.hpp"
#include "core/primality_internal.hpp"
#include "core/tree_dp.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "schema/encode.hpp"
#include "schema/generators.hpp"
#include "td/heuristics.hpp"
#include "td/shard.hpp"

#include "test_util.hpp"

namespace treedl::core {
namespace {

// Toy problem exercising every hook: a single "unit" state whose value counts
// the vertices of the subtree (each vertex counted once, at leaves and
// introduces). Copy keeps counts, join adds and subtracts the shared bag.
struct UnitState {
  size_t bag_size = 0;
  bool operator==(const UnitState&) const = default;
  size_t hash() const { return bag_size; }
};

struct CountProblem {
  using State = UnitState;
  using Value = size_t;

  BagContext Context(const NormNode& node) const {
    return MakeBagContext(node);
  }
  template <typename Emit>
  void Leaf(const BagContext& ctx, Emit&& emit) const {
    emit(UnitState{Size(ctx)}, Size(ctx));
  }
  size_t LeafStates(const BagContext&) const { return 1; }
  template <typename Emit>
  void Introduce(const BagContext& ctx, const State&, const Value& value,
                 Emit&& emit) const {
    emit(UnitState{Size(ctx)}, value + 1);
  }
  size_t IntroduceFanOut(const BagContext&) const { return 1; }
  template <typename Emit>
  void Forget(const BagContext& ctx, const State&, const Value& value,
              Emit&& emit) const {
    emit(UnitState{Size(ctx)}, value);
  }
  UnitState KeyOf(const State& s) const { return s; }
  template <typename Emit>
  void Join(const BagContext& ctx, const State&, const Value& va,
            const State&, const Value& vb, Emit&& emit) const {
    emit(UnitState{Size(ctx)}, va + vb - Size(ctx));
  }
  Value Merge(const Value& a, const Value& b) const {
    // Both derivations must agree for this deterministic problem.
    EXPECT_EQ(a, b);
    return a;
  }
  static size_t Size(const BagContext& ctx) {
    return static_cast<size_t>(ctx.size);
  }
};

// Runs the toy problem through RunDp; returns its root entries.
std::vector<std::pair<UnitState, size_t>> RunCount(
    const NormalizedTreeDecomposition& ntd, const DpExec& exec,
    DpStats* stats) {
  auto table = RunDp(ntd, CountProblem{}, exec, stats, TableRetention::kNone);
  std::vector<std::pair<UnitState, size_t>> root;
  for (const auto& [state, value] : table.at(ntd.root())) {
    root.emplace_back(state, value);
  }
  return root;
}

TEST(TreeDpTest, CountsVerticesOnRandomDecompositions) {
  Rng rng(TestSeed());
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = RandomPartialKTree(6 + trial, 2, 0.7, &rng);
    auto td = Decompose(g);
    ASSERT_TRUE(td.ok());
    NormalizeOptions options;
    options.ensure_leaf_coverage = trial % 2 == 0;
    options.copy_above_branches = trial % 3 == 0;
    auto ntd = Normalize(*td, options);
    ASSERT_TRUE(ntd.ok());
    DpStats stats;
    auto root = RunCount(*ntd, {}, &stats);
    ASSERT_EQ(root.size(), 1u);
    EXPECT_EQ(root[0].second, g.NumVertices());
    EXPECT_GT(stats.total_states, 0u);
    EXPECT_GE(stats.max_states_per_node, 1u);
    EXPECT_EQ(stats.traversals, 1u);
    EXPECT_EQ(stats.shards, 0u);
  }
}

TEST(TreeDpTest, SingleNodeDecomposition) {
  TreeDecomposition td;
  td.AddNode({0, 1, 2});
  auto ntd = Normalize(td);
  ASSERT_TRUE(ntd.ok());
  auto root = RunCount(*ntd, {}, nullptr);
  ASSERT_EQ(root.size(), 1u);
  EXPECT_EQ(root[0].second, 3u);
}

// The sequential walk (one chunk) and the shard schedule on a pool must give
// the same root table and the same deterministic counters. On either
// schedule, a walk that retains no table evicts every table but the root's;
// one that retains branch children (the §5.3 top-down pass reads them)
// keeps exactly those and the root's; one that retains all evicts none.
TEST(TreeDpTest, ShardedWalkMatchesSequentialWalk) {
  Rng rng(TestSeed());
  Graph g = RandomPartialKTree(300, 3, 0.6, &rng);
  auto td = Decompose(g);
  ASSERT_TRUE(td.ok());
  auto ntd = Normalize(*td);
  ASSERT_TRUE(ntd.ok());
  BagSharding sharding = ComputeBagShardingByCost(*ntd, 16);
  ASSERT_GT(sharding.NumShards(), 1u);
  ThreadPool pool(4);
  DpExec sequential;
  DpExec parallel;
  parallel.sharding = &sharding;
  parallel.pool = &pool;
  ASSERT_TRUE(parallel.Parallel());

  DpStats seq_stats;
  DpStats par_stats;
  auto seq_root = RunCount(*ntd, sequential, &seq_stats);
  auto par_root = RunCount(*ntd, parallel, &par_stats);
  ASSERT_EQ(seq_root.size(), 1u);
  EXPECT_EQ(seq_root[0].second, g.NumVertices());
  EXPECT_EQ(par_root, seq_root);
  EXPECT_EQ(par_stats.total_states, seq_stats.total_states);
  EXPECT_EQ(par_stats.max_states_per_node, seq_stats.max_states_per_node);
  EXPECT_EQ(par_stats.traversals, seq_stats.traversals);
  EXPECT_EQ(seq_stats.shards, 0u);
  EXPECT_EQ(par_stats.shards, sharding.NumShards());
  EXPECT_EQ(seq_stats.tables_evicted, ntd->NumNodes() - 1);
  EXPECT_EQ(par_stats.tables_evicted, ntd->NumNodes() - 1);

  std::vector<bool> branch_child(ntd->NumNodes(), false);
  size_t branch_children = 0;
  for (size_t id = 0; id < ntd->NumNodes(); ++id) {
    const NormNode& node = ntd->node(static_cast<TdNodeId>(id));
    if (node.kind != NormNodeKind::kBranch) continue;
    for (TdNodeId child : node.children) {
      branch_child[static_cast<size_t>(child)] = true;
      ++branch_children;
    }
  }
  ASSERT_GT(branch_children, 0u);
  for (const DpExec& exec : {sequential, parallel}) {
    DpStats retained;
    auto table =
        RunDp(*ntd, CountProblem{}, exec, &retained, TableRetention::kAll);
    EXPECT_EQ(retained.tables_evicted, 0u);
    EXPECT_EQ(retained.total_states, seq_stats.total_states);
    for (const auto& node_table : table.nodes) {
      EXPECT_EQ(node_table.size(), 1u);
    }

    DpStats branch;
    table = RunDp(*ntd, CountProblem{}, exec, &branch,
                  TableRetention::kBranchChildren);
    EXPECT_EQ(branch.tables_evicted, ntd->NumNodes() - 1 - branch_children);
    for (size_t id = 0; id < ntd->NumNodes(); ++id) {
      bool kept = branch_child[id] || id == static_cast<size_t>(ntd->root());
      EXPECT_EQ(table.nodes[id].size(), kept ? 1u : 0u) << "node " << id;
    }
    EXPECT_EQ(table.at(ntd->root()).begin()->second, g.NumVertices());
  }
}

// --- Table identity ---------------------------------------------------------

// Order-sensitive hash of every node's table: node by node, its size, then
// each entry's state bytes and value in insertion order.
struct TableHasher {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Mix(uint64_t x) {
    h = (h ^ x) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  template <typename State, typename Value>
  void Add(const FlatTable<State, Value>& table) {
    static_assert(std::has_unique_object_representations_v<State>);
    Mix(table.size());
    for (const auto& [state, value] : table) {
      uint64_t words[(sizeof(State) + 7) / 8] = {};
      std::memcpy(words, &state, sizeof(State));
      for (uint64_t w : words) Mix(w);
      if constexpr (!std::is_same_v<Value, std::monostate>) {
        Mix(static_cast<uint64_t>(value));
      }
    }
  }
};

template <typename Problem>
uint64_t HashRunDp(const NormalizedTreeDecomposition& ntd,
                   const Problem& problem) {
  auto table = RunDp(ntd, problem, {}, nullptr, TableRetention::kAll);
  TableHasher hasher;
  for (const auto& node_table : table.nodes) hasher.Add(node_table);
  return hasher.h;
}

// Every node's table — states, values and insertion order — of the five
// graph DPs and of both PRIMALITY programs (the decision walk, and the
// enumeration's bottom-up and top-down passes) on fixed instances, pinned
// as one order-sensitive hash per walk. A change to how tables are built
// (sizing, join indexing, leaf enumeration) must leave every hash alone.
TEST(TreeDpTest, EveryNodeTableMatchesItsPinnedHash) {
  struct GraphHashes {
    const char* name;
    uint64_t hashes[5];  // 3COL, #3COL, VC, IS, DS
  };
  const GraphHashes kGraphs[] = {
      {"petersen",
       {3359108459833144521ULL, 9261221518550409042ULL,
        16776756388805544832ULL, 15731358305945622104ULL,
        12060568482396018449ULL}},
      {"grid4x5",
       {205192180004107653ULL, 5622654351104122180ULL,
        1543884559772129922ULL, 9497655224191787984ULL,
        17326731840476326477ULL}},
      {"pkt3",
       {6052229428639153935ULL, 3338003751005943516ULL,
        15651074077207778301ULL, 4399109965417715364ULL,
        9995899412169046926ULL}},
      {"pkt5",
       {6865262517821721008ULL, 12150616636023210038ULL,
        11843566196316476204ULL, 329241052315692633ULL,
        1072199705713318515ULL}},
      {"treefan50",
       {2571892282494232503ULL, 11550353021869162484ULL,
        12232744635135980605ULL, 5841593131250141677ULL,
        11987983196230934532ULL}},
  };
  std::vector<Graph> graphs = {PetersenGraph(), GridGraph(4, 5)};
  for (int k : {3, 5}) {
    Rng rng(static_cast<uint64_t>(k));
    graphs.push_back(RandomPartialKTree(60, k, 0.55, &rng));
  }
  graphs.push_back(TreeFanGraph(50));  // a hub in every bag, many leaves
  for (size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE(kGraphs[i].name);
    const Graph& graph = graphs[i];
    auto td = Decompose(graph);
    ASSERT_TRUE(td.ok());
    auto ntd = Normalize(*td);
    ASSERT_TRUE(ntd.ok());
    const uint64_t* expected = kGraphs[i].hashes;
    EXPECT_EQ(HashRunDp(*ntd, internal::ColorProblem<false>(graph)),
              expected[0]);
    EXPECT_EQ(HashRunDp(*ntd, internal::ColorProblem<true>(graph)),
              expected[1]);
    EXPECT_EQ(HashRunDp(*ntd, internal::SubsetProblem<true>(graph)),
              expected[2]);
    EXPECT_EQ(HashRunDp(*ntd, internal::SubsetProblem<false>(graph)),
              expected[3]);
    EXPECT_EQ(HashRunDp(*ntd, internal::DominatingProblem(graph)),
              expected[4]);
  }

  struct SchemaHashes {
    const char* name;
    uint64_t decide, up, down;
  };
  const SchemaHashes kSchemas[] = {
      {"paper", 8059767472933336830ULL, 14432556820192679469ULL,
       9777572189747425401ULL},
      {"balanced4", 11183653098895846872ULL, 14752995774959890344ULL,
       8942886745794092763ULL},
      {"window1", 11895032097067381214ULL, 5587530848625765214ULL,
       3082795428846203761ULL},
      {"window2", 3237479134124671379ULL, 17490386259999021885ULL,
       15968682249392528023ULL},
  };
  std::vector<Schema> schemas = {Schema::PaperExampleSchema(),
                                 GenerateBalancedInstance(4).schema};
  for (uint64_t seed : {1, 2}) {
    Rng rng(seed);
    schemas.push_back(RandomWindowSchema(12, 10, 4, &rng));
  }
  for (size_t i = 0; i < schemas.size(); ++i) {
    SCOPED_TRACE(kSchemas[i].name);
    const Schema& schema = schemas[i];
    SchemaEncoding encoding = EncodeSchema(schema);
    internal::PrimalityContext context(schema, encoding);
    internal::PrimalityProblem problem(context);
    // The decompositions an Engine walks: the session's, rhs-closed, then
    // re-rooted at attribute 0 (IsPrime) or not (AllPrimes).
    Engine engine(schema);
    auto td = engine.Decomposition();
    ASSERT_TRUE(td.ok());
    TreeDecomposition closed =
        internal::CloseBagsForRhs(**td, encoding, context);
    TreeDecomposition rooted = closed;
    ASSERT_TRUE(
        rooted.ReRoot(rooted.FindNodeContaining(encoding.AttrElement(0)))
            .ok());
    auto decide = Normalize(rooted, internal::PrimalityNormalizeOptions(
                                        encoding, /*for_enumeration=*/false));
    ASSERT_TRUE(decide.ok());
    EXPECT_EQ(HashRunDp(*decide, problem), kSchemas[i].decide);

    auto enumerate = Normalize(closed, internal::PrimalityNormalizeOptions(
                                           encoding, /*for_enumeration=*/true));
    ASSERT_TRUE(enumerate.ok());
    std::vector<internal::PrimTable> up =
        RunDp(*enumerate, problem, {}, nullptr, TableRetention::kAll).nodes;
    std::vector<internal::PrimTable> down(enumerate->NumNodes());
    std::vector<TdNodeId> order = enumerate->PostOrder();
    internal::JoinScratch scratch;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      internal::TopDownStep(problem, *enumerate, *it, up, &down, &scratch);
    }
    TableHasher up_hash;
    for (const auto& table : up) up_hash.Add(table);
    EXPECT_EQ(up_hash.h, kSchemas[i].up);
    TableHasher down_hash;
    for (const auto& table : down) down_hash.Add(table);
    EXPECT_EQ(down_hash.h, kSchemas[i].down);
  }
}

TEST(ProgramListingsTest, ListingsPresent) {
  // The listings are documentation artifacts; sanity-check the key rules.
  const std::string& fig5 = ThreeColorabilityProgramListing();
  EXPECT_NE(fig5.find("solve(s, R, G, B)"), std::string::npos);
  EXPECT_NE(fig5.find("branch node"), std::string::npos);
  EXPECT_NE(fig5.find("success <- root(s)"), std::string::npos);
  const std::string& fig6 = PrimalityProgramListing();
  EXPECT_NE(fig6.find("solve(s, Y, FY, Co, DC, FC)"), std::string::npos);
  EXPECT_NE(fig6.find("unique(DC1, DC2, FC)"), std::string::npos);
  const std::string& enum_listing = MonadicPrimalityProgramListing();
  EXPECT_NE(enum_listing.find("prime(a)"), std::string::npos);
  EXPECT_NE(enum_listing.find("solveDown"), std::string::npos);
}

}  // namespace
}  // namespace treedl::core
