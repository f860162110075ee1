#include "graph/edge_index.hpp"

#include <bit>

namespace treedl {

EdgeIndex::EdgeIndex(const Graph& graph) {
  if (graph.NumEdges() == 0) return;
  size_t capacity = std::bit_ceil(2 * graph.NumEdges());
  slots_.assign(capacity, kEmpty);
  mask_ = capacity - 1;
  shift_ = 64 - std::countr_zero(capacity);
  for (VertexId u = 0; u < graph.NumVertices(); ++u) {
    for (VertexId v : graph.Neighbors(u)) {
      if (u > v) continue;  // each edge once, from its lower end
      size_t i = Slot(Pack(u, v));
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = Pack(u, v);
    }
  }
}

}  // namespace treedl
