// Bag sharding: partitioning a modified-normalized tree decomposition into
// independent subtrees for the parallel §5.3 enumeration.
//
// The §5 dynamic programs are bottom-up tree traversals, so disjoint subtrees
// of the decomposition can be processed concurrently — the only ordering
// constraint is that a node runs after its children. A BagSharding cuts the
// tree into connected regions ("shards") of roughly balanced modeled work;
// the shards themselves form a tree, and a shard becomes runnable exactly
// when all of its child shards have completed. core/tree_dp.hpp executes this
// schedule on a ThreadPool (see RunDp). The Engine shards only the
// enumeration normal form; the graph DPs walk sequentially.
//
// The same partition also serves root-to-leaves passes: because every shard
// is a connected region whose nodes are listed in global post order, running
// the shard tree *inverted* (a shard after its parent shard, its nodes
// reversed) is a valid parents-before-children schedule — how the §5.3
// enumeration runs its top-down solve↓ pass (tree_dp.hpp, WalkChunks with
// WalkDirection::kTopDown).
#ifndef TREEDL_TD_SHARD_HPP_
#define TREEDL_TD_SHARD_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "td/normalize.hpp"

namespace treedl {

/// One connected region of the decomposition tree.
struct BagShard {
  /// The topmost node of the shard (its parent, if any, lies in the parent
  /// shard).
  TdNodeId top = kNoTdNode;
  /// The shard's nodes in global post-order — processing them in this order
  /// sees every child either earlier in the list or in a completed child
  /// shard.
  std::vector<TdNodeId> nodes;
  /// Index of the parent shard, or -1 for the shard containing the root.
  int parent = -1;
  /// Indices of the child shards (the shard's dependencies).
  std::vector<int> children;
  /// Summed EstimateNodeCost of the shard's nodes.
  uint64_t cost = 0;
};

struct BagSharding {
  std::vector<BagShard> shards;
  /// Node id -> shard index.
  std::vector<int> shard_of;

  size_t NumShards() const { return shards.size(); }
};

/// Estimated DP work of one normalized node — the width-driven state-count
/// model behind cost-aware sharding. A bag of b elements carries up to 3^b
/// reachable states in the heaviest in-tree problems (3-coloring's colorings,
/// dominating set's in/dominated/waiting statuses; vertex cover's 2^b is
/// dominated by that), and each state is touched a constant number of times
/// per transition, so: cost = 3^min(b, 20), doubled at branch nodes (the
/// join pairs two child tables instead of streaming one). The cap keeps the
/// model in uint64 for degenerate widths; relative balance is what matters.
uint64_t EstimateNodeCost(const NormNode& node);

/// Partitions `ntd` into at most ~`target_shards` connected subtree regions
/// of roughly equal summed EstimateNodeCost (post-order accumulation with a
/// grain of ceil(total cost / target)): shards near the root (few nodes,
/// wide bags) shrink, leaf-heavy shards grow, and the slowest shard tracks
/// the mean instead of the root shard dominating the critical path.
/// target_shards == 1 (or a tiny decomposition) yields a single shard
/// covering the whole tree. Deterministic; BagShard::cost reports each
/// shard's modeled cost.
BagSharding ComputeBagShardingByCost(const NormalizedTreeDecomposition& ntd,
                                     size_t target_shards);

/// Checks the sharding invariants: every node assigned to exactly one shard,
/// shards are connected regions listed in global post-order, shard tree edges
/// mirror the node tree, and the root's shard has no parent.
Status ValidateSharding(const NormalizedTreeDecomposition& ntd,
                        const BagSharding& sharding);

}  // namespace treedl

#endif  // TREEDL_TD_SHARD_HPP_
