// Simple undirected graphs over dense vertex ids [0, n).
//
// Used as (a) input for the 3-Colorability solver (§5.1), (b) the Gaifman /
// incidence graph of a structure for treewidth heuristics, and (c) the
// substrate for random bounded-treewidth instance generators.
#ifndef TREEDL_GRAPH_GRAPH_HPP_
#define TREEDL_GRAPH_GRAPH_HPP_

#include <cstdint>
#include <vector>

#include "common/status.hpp"

namespace treedl {

using VertexId = uint32_t;

class Graph {
 public:
  Graph() = default;
  explicit Graph(size_t num_vertices) : adjacency_(num_vertices) {}

  size_t NumVertices() const { return adjacency_.size(); }
  size_t NumEdges() const { return num_edges_; }

  /// Appends a fresh isolated vertex and returns its id.
  VertexId AddVertex();

  /// Adds the undirected edge {u, v}. Self-loops and duplicates are ignored
  /// (set semantics); returns true iff a new edge was inserted.
  bool AddEdge(VertexId u, VertexId v);

  /// Scans the shorter of the two adjacency lists, so a test at a hub can
  /// cost up to the other end's degree. Kept for graph construction and the
  /// FTA baseline; the graph DPs test bag edges through an EdgeIndex
  /// (graph/edge_index.hpp) instead.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Neighbors of v in insertion order (no duplicates, no self).
  const std::vector<VertexId>& Neighbors(VertexId v) const {
    return adjacency_[v];
  }
  size_t Degree(VertexId v) const { return adjacency_[v].size(); }

  /// All edges as (u, v) pairs with u < v.
  std::vector<std::pair<VertexId, VertexId>> Edges() const;

 private:
  std::vector<std::vector<VertexId>> adjacency_;
  size_t num_edges_ = 0;
};

}  // namespace treedl

#endif  // TREEDL_GRAPH_GRAPH_HPP_
