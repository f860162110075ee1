#include "graph/graph.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace treedl {

VertexId Graph::AddVertex() {
  adjacency_.emplace_back();
  return static_cast<VertexId>(adjacency_.size() - 1);
}

bool Graph::AddEdge(VertexId u, VertexId v) {
  TREEDL_CHECK(u < NumVertices() && v < NumVertices())
      << "edge endpoint out of range";
  if (u == v) return false;
  if (HasEdge(u, v)) return false;
  adjacency_[u].push_back(v);
  adjacency_[v].push_back(u);
  ++num_edges_;
  return true;
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices()) return false;
  const auto& list =
      adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u] : adjacency_[v];
  VertexId target = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
  return std::find(list.begin(), list.end(), target) != list.end();
}

std::vector<std::pair<VertexId, VertexId>> Graph::Edges() const {
  std::vector<std::pair<VertexId, VertexId>> out;
  out.reserve(num_edges_);
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (VertexId v : adjacency_[u]) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

}  // namespace treedl
