#include "td/improve.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/rng.hpp"
#include "common/work_budget.hpp"
#include "td/elimination_order.hpp"
#include "td/normalize.hpp"
#include "td/shard.hpp"

namespace treedl {

namespace {

bool IsSubset(const std::vector<ElementId>& a, const std::vector<ElementId>& b) {
  // Bags are sorted and duplicate-free.
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// The quality objective everything in this file optimizes: width first,
/// then the modeled cost of the normal form the DPs actually traverse.
StatusOr<std::pair<int, uint64_t>> TdQuality(const TreeDecomposition& td) {
  TREEDL_ASSIGN_OR_RETURN(uint64_t cost, NormalizedDpCost(td));
  return std::make_pair(td.Width(), cost);
}

}  // namespace

StatusOr<uint64_t> NormalizedDpCost(const TreeDecomposition& td) {
  TREEDL_ASSIGN_OR_RETURN(NormalizedTreeDecomposition ntd, Normalize(td));
  uint64_t cost = 0;
  for (size_t id = 0; id < ntd.NumNodes(); ++id) {
    cost += EstimateNodeCost(ntd.node(static_cast<TdNodeId>(id)));
  }
  return cost;
}

size_t WidthReduce(TreeDecomposition* td) {
  if (td->Empty()) return 0;
  size_t n = td->NumNodes();
  std::vector<std::vector<ElementId>> bag(n);
  std::vector<TdNodeId> parent(n);
  std::vector<std::vector<TdNodeId>> children(n);
  std::vector<bool> alive(n, true);
  for (size_t id = 0; id < n; ++id) {
    const TdNode& node = td->node(static_cast<TdNodeId>(id));
    bag[id] = node.bag;
    parent[id] = node.parent;
    children[id] = node.children;
  }
  size_t merges = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t c = 0; c < n; ++c) {
      if (!alive[c] || parent[c] == kNoTdNode) continue;
      size_t p = static_cast<size_t>(parent[c]);
      bool child_in_parent = IsSubset(bag[c], bag[p]);
      if (!child_in_parent && !IsSubset(bag[p], bag[c])) continue;
      // Contract the edge: the merged bag is the larger of the two, so no
      // other bag changes and the width cannot grow.
      if (!child_in_parent) bag[p] = bag[c];
      for (TdNodeId grandchild : children[c]) {
        parent[static_cast<size_t>(grandchild)] = static_cast<TdNodeId>(p);
        children[p].push_back(grandchild);
      }
      children[p].erase(std::find(children[p].begin(), children[p].end(),
                                  static_cast<TdNodeId>(c)));
      alive[c] = false;
      ++merges;
      progress = true;
    }
  }
  if (merges == 0) return 0;
  TreeDecomposition out;
  std::vector<TdNodeId> mapped(n, kNoTdNode);
  std::vector<TdNodeId> stack{td->root()};
  while (!stack.empty()) {
    TdNodeId id = stack.back();
    stack.pop_back();
    size_t i = static_cast<size_t>(id);
    TdNodeId p = parent[i];
    mapped[i] = out.AddNode(
        bag[i], p == kNoTdNode ? kNoTdNode : mapped[static_cast<size_t>(p)]);
    for (auto it = children[i].rbegin(); it != children[i].rend(); ++it) {
      stack.push_back(*it);
    }
  }
  *td = std::move(out);
  return merges;
}

StatusOr<size_t> CostGuardedWidthReduce(TreeDecomposition* td) {
  if (td->Empty()) return static_cast<size_t>(0);
  TreeDecomposition reduced = *td;
  size_t merges = WidthReduce(&reduced);
  if (merges == 0) return static_cast<size_t>(0);
  TREEDL_ASSIGN_OR_RETURN(auto before, TdQuality(*td));
  TREEDL_ASSIGN_OR_RETURN(auto after, TdQuality(reduced));
  if (after > before) return static_cast<size_t>(0);  // revert: DP got slower
  *td = std::move(reduced);
  return merges;
}

std::vector<VertexId> EliminationOrderFromTd(const Graph& graph,
                                             const TreeDecomposition& td) {
  size_t n = graph.NumVertices();
  std::vector<size_t> occurrences(n, 0);
  for (size_t id = 0; id < td.NumNodes(); ++id) {
    for (ElementId e : td.Bag(static_cast<TdNodeId>(id))) {
      if (e < n) ++occurrences[e];
    }
  }
  std::vector<VertexId> order;
  order.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    if (occurrences[v] == 0) order.push_back(v);
  }
  // A vertex's bags form a connected subtree whose topmost node is visited
  // last in post order — eliminating each vertex at that point reproduces a
  // width-<=(td width) order.
  for (TdNodeId id : td.PostOrder()) {
    for (ElementId e : td.Bag(id)) {
      if (e < n && --occurrences[e] == 0) {
        order.push_back(static_cast<VertexId>(e));
      }
    }
  }
  return order;
}

StatusOr<ImproveOutcome> ImproveTd(const Graph& graph,
                                   const TreeDecomposition& td,
                                   const ImproveOptions& options,
                                   WorkBudget* budget) {
  if (graph.NumVertices() == 0 || td.Empty()) {
    return Status::InvalidArgument(
        "improve: needs a nonempty graph and decomposition");
  }
  ImproveOutcome out;
  TREEDL_ASSIGN_OR_RETURN(auto input_quality, TdQuality(td));
  out.width_before = input_quality.first;
  out.cost_before = input_quality.second;
  // Round zero is free: the cost-guarded width reduction either pays or is
  // reverted, so `best` starts no worse than the input.
  TreeDecomposition best = td;
  TREEDL_RETURN_IF_ERROR(CostGuardedWidthReduce(&best).status());
  TREEDL_ASSIGN_OR_RETURN(auto best_quality, TdQuality(best));
  std::vector<VertexId> order = EliminationOrderFromTd(graph, best);
  Rng rng(options.seed);
  while (budget != nullptr ? budget->ConsumeUnit()
                           : out.rounds < options.max_rounds) {
    ++out.rounds;
    std::vector<VertexId> candidate = order;
    size_t len = candidate.size();
    if (len >= 2) {
      switch (rng.UniformIndex(3)) {
        case 0: {  // swap two positions
          size_t i = rng.UniformIndex(len);
          size_t j = rng.UniformIndex(len);
          std::swap(candidate[i], candidate[j]);
          break;
        }
        case 1: {  // relocate one vertex
          size_t i = rng.UniformIndex(len);
          VertexId v = candidate[i];
          candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
          size_t j = rng.UniformIndex(len);
          candidate.insert(candidate.begin() + static_cast<ptrdiff_t>(j), v);
          break;
        }
        default: {  // reverse a short segment
          size_t i = rng.UniformIndex(len);
          size_t hi = std::min(len, i + 2 + rng.UniformIndex(7));
          std::reverse(candidate.begin() + static_cast<ptrdiff_t>(i),
                       candidate.begin() + static_cast<ptrdiff_t>(hi));
          break;
        }
      }
    }
    StatusOr<TreeDecomposition> cand_td =
        DecompositionFromOrder(graph, candidate);
    TREEDL_RETURN_IF_ERROR(cand_td.status());
    TREEDL_ASSIGN_OR_RETURN(auto quality, TdQuality(*cand_td));
    if (quality < best_quality) {
      best = std::move(cand_td).value();
      best_quality = quality;
      order = std::move(candidate);
      ++out.accepted;
    }
  }
  // A final guarded reduction is free quality: it only sticks when the
  // normalized cost does not regress.
  TREEDL_RETURN_IF_ERROR(CostGuardedWidthReduce(&best).status());
  TREEDL_ASSIGN_OR_RETURN(best_quality, TdQuality(best));
  out.width_after = best_quality.first;
  out.cost_after = best_quality.second;
  out.improved = best_quality < input_quality;
  if (out.improved) {
    out.td = std::move(best);
  } else {
    out.td = td;
  }
  return out;
}

}  // namespace treedl
