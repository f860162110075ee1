#include "td/shard.hpp"

#include <algorithm>

namespace treedl {

uint64_t EstimateNodeCost(const NormNode& node) {
  size_t b = std::min<size_t>(node.bag.size(), 20);
  uint64_t states = 1;
  for (size_t i = 0; i < b; ++i) states *= 3;
  return node.kind == NormNodeKind::kBranch ? 2 * states : states;
}

// Post-order accumulation of per-node modeled cost, sealing a connected shard
// whenever the open (unsealed) weight of a subtree reaches grain =
// ceil(total / target). The root seals whatever remains.
BagSharding ComputeBagShardingByCost(const NormalizedTreeDecomposition& ntd,
                                     size_t target_shards) {
  BagSharding out;
  size_t n = ntd.NumNodes();
  out.shard_of.assign(n, -1);
  if (n == 0) return out;
  if (target_shards == 0) target_shards = 1;
  std::vector<uint64_t> weight(n, 0);
  uint64_t total = 0;
  for (size_t v = 0; v < n; ++v) {
    weight[v] = EstimateNodeCost(ntd.node(static_cast<TdNodeId>(v)));
    total += weight[v];
  }
  uint64_t grain = (total + target_shards - 1) / target_shards;
  if (grain == 0) grain = 1;

  std::vector<TdNodeId> post = ntd.PostOrder();
  std::vector<size_t> post_index(n, 0);
  for (size_t i = 0; i < post.size(); ++i) {
    post_index[static_cast<size_t>(post[i])] = i;
  }

  // Seals a shard rooted at `top`: claims every descendant still reachable
  // through unsealed nodes, listed in global post-order.
  auto seal = [&](TdNodeId top) {
    int id = static_cast<int>(out.shards.size());
    BagShard shard;
    shard.top = top;
    std::vector<TdNodeId> stack{top};
    while (!stack.empty()) {
      TdNodeId v = stack.back();
      stack.pop_back();
      out.shard_of[static_cast<size_t>(v)] = id;
      shard.nodes.push_back(v);
      shard.cost += weight[static_cast<size_t>(v)];
      for (TdNodeId c : ntd.node(v).children) {
        if (out.shard_of[static_cast<size_t>(c)] == -1) stack.push_back(c);
      }
    }
    std::sort(shard.nodes.begin(), shard.nodes.end(),
              [&](TdNodeId a, TdNodeId b) {
                return post_index[static_cast<size_t>(a)] <
                       post_index[static_cast<size_t>(b)];
              });
    out.shards.push_back(std::move(shard));
  };

  std::vector<uint64_t> open_weight(n, 0);
  for (TdNodeId id : post) {
    uint64_t open = weight[static_cast<size_t>(id)];
    for (TdNodeId c : ntd.node(id).children) {
      if (out.shard_of[static_cast<size_t>(c)] == -1) {
        open += open_weight[static_cast<size_t>(c)];
      }
    }
    open_weight[static_cast<size_t>(id)] = open;
    if (id == ntd.root()) {
      seal(id);
    } else if (open >= grain) {
      seal(id);
    }
  }

  // Shard tree edges: a shard's parent is the shard holding its top's parent.
  for (size_t s = 0; s < out.shards.size(); ++s) {
    TdNodeId parent_node = ntd.node(out.shards[s].top).parent;
    if (parent_node == kNoTdNode) {
      out.shards[s].parent = -1;
      continue;
    }
    int parent_shard = out.shard_of[static_cast<size_t>(parent_node)];
    out.shards[s].parent = parent_shard;
    out.shards[static_cast<size_t>(parent_shard)].children.push_back(
        static_cast<int>(s));
  }
  return out;
}

Status ValidateSharding(const NormalizedTreeDecomposition& ntd,
                        const BagSharding& sharding) {
  size_t n = ntd.NumNodes();
  if (sharding.shard_of.size() != n) {
    return Status::InvalidArgument("shard_of size != node count");
  }
  std::vector<size_t> seen(sharding.NumShards(), 0);
  for (size_t v = 0; v < n; ++v) {
    int s = sharding.shard_of[v];
    if (s < 0 || static_cast<size_t>(s) >= sharding.NumShards()) {
      return Status::InvalidArgument("node with out-of-range shard id");
    }
    ++seen[static_cast<size_t>(s)];
  }
  std::vector<size_t> post_index(n, 0);
  {
    std::vector<TdNodeId> post = ntd.PostOrder();
    for (size_t i = 0; i < post.size(); ++i) {
      post_index[static_cast<size_t>(post[i])] = i;
    }
  }
  for (size_t s = 0; s < sharding.NumShards(); ++s) {
    const BagShard& shard = sharding.shards[s];
    if (shard.nodes.size() != seen[s]) {
      return Status::InvalidArgument("shard node list disagrees with shard_of");
    }
    if (shard.nodes.empty()) {
      return Status::InvalidArgument("empty shard");
    }
    for (size_t i = 0; i < shard.nodes.size(); ++i) {
      TdNodeId v = shard.nodes[i];
      if (sharding.shard_of[static_cast<size_t>(v)] != static_cast<int>(s)) {
        return Status::InvalidArgument("shard lists a foreign node");
      }
      if (i > 0 && post_index[static_cast<size_t>(shard.nodes[i - 1])] >=
                       post_index[static_cast<size_t>(v)]) {
        return Status::InvalidArgument("shard nodes not in global post-order");
      }
      // Connectivity: every node except the top has its parent in the shard.
      if (v != shard.top) {
        TdNodeId p = ntd.node(v).parent;
        if (p == kNoTdNode ||
            sharding.shard_of[static_cast<size_t>(p)] != static_cast<int>(s)) {
          return Status::InvalidArgument("shard region is not connected");
        }
      }
    }
    TdNodeId top_parent = ntd.node(shard.top).parent;
    if (top_parent == kNoTdNode) {
      if (shard.parent != -1) {
        return Status::InvalidArgument("root shard with a parent");
      }
    } else if (shard.parent !=
               sharding.shard_of[static_cast<size_t>(top_parent)]) {
      return Status::InvalidArgument("shard parent edge mismatch");
    }
  }
  return Status::OK();
}

}  // namespace treedl
