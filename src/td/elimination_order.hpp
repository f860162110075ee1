// Elimination orders and their induced tree decompositions.
//
// Any permutation π of the vertices yields a tree decomposition: eliminate
// vertices in order, each elimination forms the bag {v} ∪ N_current(v) and
// turns the neighborhood into a clique. The width of the best order equals the
// treewidth. This is the engine under the min-degree / min-fill heuristics.
#ifndef TREEDL_TD_ELIMINATION_ORDER_HPP_
#define TREEDL_TD_ELIMINATION_ORDER_HPP_

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "graph/graph.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl {

/// Builds the tree decomposition induced by eliminating `order` (a permutation
/// of all vertices of `graph`). The result is valid for `graph` and its width
/// is the order's induced width.
StatusOr<TreeDecomposition> DecompositionFromOrder(
    const Graph& graph, const std::vector<VertexId>& order);

/// The induced width of an elimination order (without building the TD).
StatusOr<int> OrderWidth(const Graph& graph, const std::vector<VertexId>& order);

namespace internal {

/// The graph being eliminated: vector adjacency of the live vertices plus,
/// when `track_fill` is set, each live vertex's fill (the number of
/// non-adjacent pairs in its neighborhood), kept exact incrementally. Each
/// new fill edge {x, y} lowers the fill of every common neighbour of x and y
/// by one and raises the fill of x and y by their neighbours not adjacent to
/// the other end; removing v then lowers the fill of each u ∈ N(v) by its
/// neighbours outside N[v]. Eliminating v costs
/// O(Σ_{u ∈ N(v)} deg(u) + Σ_{fill edges {x, y}} deg(y)).
/// The greedy heuristic orders, DecompositionFromOrder and OrderWidth all
/// eliminate on this graph.
class EliminationGraph {
 public:
  EliminationGraph(const Graph& graph, bool track_fill);

  /// Live neighbours of a live vertex, in no particular order.
  const std::vector<VertexId>& Neighbors(VertexId v) const { return adj_[v]; }
  size_t Degree(VertexId v) const { return adj_[v].size(); }
  /// Requires `track_fill`.
  size_t Fill(VertexId v) const { return fill_[v]; }

  /// Turns N(v) into a clique and removes v. Returns the live vertices whose
  /// degree or fill changed, each once; valid until the next call.
  const std::vector<VertexId>& Eliminate(VertexId v);

 private:
  // Marks N(u) with a fresh epoch, so Marked(w) tests adjacency to u.
  void MarkNeighbors(VertexId u);
  bool Marked(VertexId w) const { return mark_[w] == epoch_; }
  size_t CountFill(VertexId u);

  std::vector<std::vector<VertexId>> adj_;
  std::vector<size_t> fill_;
  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
  std::vector<VertexId> touched_;
  bool track_fill_;
};

}  // namespace internal

}  // namespace treedl

#endif  // TREEDL_TD_ELIMINATION_ORDER_HPP_
