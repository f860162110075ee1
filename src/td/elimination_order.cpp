#include "td/elimination_order.hpp"

#include <algorithm>
#include <utility>

namespace treedl {

namespace {

Status CheckPermutation(const Graph& graph, const std::vector<VertexId>& order) {
  if (order.size() != graph.NumVertices()) {
    return Status::InvalidArgument("elimination order has wrong length");
  }
  std::vector<bool> seen(graph.NumVertices(), false);
  for (VertexId v : order) {
    if (v >= graph.NumVertices() || seen[v]) {
      return Status::InvalidArgument("elimination order is not a permutation");
    }
    seen[v] = true;
  }
  return Status::OK();
}

}  // namespace

StatusOr<TreeDecomposition> DecompositionFromOrder(
    const Graph& graph, const std::vector<VertexId>& order) {
  TREEDL_RETURN_IF_ERROR(CheckPermutation(graph, order));
  if (graph.NumVertices() == 0) {
    TreeDecomposition td;
    td.AddNode({});
    return td;
  }
  internal::EliminationGraph elim(graph, /*track_fill=*/false);
  std::vector<std::vector<ElementId>> bags;
  bags.reserve(order.size());
  for (VertexId v : order) {
    bags.push_back(elim.Bag(v));
    elim.Eliminate(v);
  }
  return internal::TreeFromEliminationBags(std::move(bags));
}

StatusOr<int> OrderWidth(const Graph& graph,
                         const std::vector<VertexId>& order) {
  TREEDL_RETURN_IF_ERROR(CheckPermutation(graph, order));
  internal::EliminationGraph elim(graph, /*track_fill=*/false);
  int width = -1;
  for (VertexId v : order) {
    width = std::max(width, static_cast<int>(elim.Degree(v)));
    elim.Eliminate(v);
  }
  return width;
}

namespace internal {

TreeDecomposition TreeFromEliminationBags(
    std::vector<std::vector<ElementId>> bags) {
  size_t n = bags.size();
  std::vector<size_t> position(n);
  for (size_t i = 0; i < n; ++i) position[bags[i].front()] = i;
  // Build top-down: the last-eliminated vertex's bag is the root; the bag of
  // the i-th eliminated vertex hangs under the bag of its earliest
  // later-eliminated neighbor (or under the next bag in order for isolated
  // vertices, keeping one tree).
  TreeDecomposition td;
  std::vector<TdNodeId> node_of_position(n, kNoTdNode);
  for (size_t i = n; i-- > 0;) {
    size_t parent_pos = n;
    for (size_t j = 1; j < bags[i].size(); ++j) {
      parent_pos = std::min(parent_pos, position[bags[i][j]]);
    }
    if (parent_pos == n) parent_pos = i + 1;  // n for the last bag: the root
    node_of_position[i] = td.AddNode(
        std::move(bags[i]),
        parent_pos < n ? node_of_position[parent_pos] : kNoTdNode);
  }
  return td;
}

std::vector<ElementId> EliminationGraph::Bag(VertexId v) const {
  std::vector<ElementId> bag;
  bag.reserve(adj_[v].size() + 1);
  bag.push_back(v);
  bag.insert(bag.end(), adj_[v].begin(), adj_[v].end());
  return bag;
}

EliminationGraph::EliminationGraph(const Graph& graph, bool track_fill)
    : adj_(graph.NumVertices()),
      mark_(graph.NumVertices(), 0),
      track_fill_(track_fill) {
  for (VertexId v = 0; v < adj_.size(); ++v) adj_[v] = graph.Neighbors(v);
  if (!track_fill_) return;
  fill_.resize(adj_.size());
  for (VertexId v = 0; v < adj_.size(); ++v) fill_[v] = CountFill(v);
}

void EliminationGraph::MarkNeighbors(VertexId u) {
  if (++epoch_ == 0) {  // wrapped: stale marks could alias the new epoch
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 1;
  }
  for (VertexId w : adj_[u]) mark_[w] = epoch_;
}

// Pairs of N(u) minus the edges inside N(u) (each seen from both ends).
size_t EliminationGraph::CountFill(VertexId u) {
  MarkNeighbors(u);
  size_t twice_edges = 0;
  for (VertexId a : adj_[u]) {
    for (VertexId b : adj_[a]) twice_edges += Marked(b) ? 1 : 0;
  }
  size_t d = adj_[u].size();
  return d * (d - 1) / 2 - twice_edges / 2;
}

const std::vector<VertexId>& EliminationGraph::Eliminate(VertexId v) {
  const std::vector<VertexId>& nbrs = adj_[v];
  touched_.clear();
  for (size_t a = 0; a < nbrs.size(); ++a) {
    VertexId x = nbrs[a];
    MarkNeighbors(x);
    for (size_t b = a + 1; b < nbrs.size(); ++b) {
      VertexId y = nbrs[b];
      if (Marked(y)) continue;
      // Fill edge {x, y}: it closes the pair (x, y) at every common
      // neighbour, and x (y) gains one open pair per neighbour not adjacent
      // to y (x).
      if (track_fill_) {
        size_t common = 0;
        for (VertexId w : adj_[y]) {
          if (!Marked(w)) continue;
          ++common;
          --fill_[w];
          touched_.push_back(w);
        }
        fill_[x] += adj_[x].size() - common;
        fill_[y] += adj_[y].size() - common;
      }
      adj_[x].push_back(y);
      adj_[y].push_back(x);
      mark_[y] = epoch_;  // the marks stay exactly N(x)
    }
  }
  // N(v) is a clique now, so u ∈ N(v) loses one open pair (v, z) per
  // neighbour z outside N(v).
  for (VertexId u : nbrs) {
    auto& list = adj_[u];
    if (track_fill_) fill_[u] -= list.size() - nbrs.size();
    *std::find(list.begin(), list.end(), v) = list.back();
    list.pop_back();
    touched_.push_back(u);
  }
  adj_[v].clear();
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
  touched_.erase(std::remove(touched_.begin(), touched_.end(), v),
                 touched_.end());
  return touched_;
}

}  // namespace internal

}  // namespace treedl
