#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/program_listings.hpp"
#include "common/thread_pool.hpp"
#include "core/tree_dp.hpp"
#include "graph/generators.hpp"
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
  template <typename Emit>
  void Introduce(const BagContext& ctx, const State&, const Value& value,
                 Emit&& emit) const {
    emit(UnitState{Size(ctx)}, value + 1);
  }
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
