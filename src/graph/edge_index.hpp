// Constant-time edge membership over a Graph.
//
// An immutable open-addressing set of the graph's edges, each stored once as
// the packed pair (min << 32) | max and probed linearly from a
// multiplicative hash. Built in one pass over the adjacency lists; a probe
// reads no adjacency list, so testing an edge at a hub costs the same as
// anywhere else. The graph DPs build one per walk for their bag-neighbour
// masks (core::MakeBagContext).
#ifndef TREEDL_GRAPH_EDGE_INDEX_HPP_
#define TREEDL_GRAPH_EDGE_INDEX_HPP_

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace treedl {

class EdgeIndex {
 public:
  /// The index of the edgeless graph.
  EdgeIndex() = default;
  explicit EdgeIndex(const Graph& graph);

  /// True iff {u, v} is an edge of the indexed graph, in either argument
  /// order. Self pairs and ids out of range answer false.
  bool Contains(VertexId u, VertexId v) const {
    if (u == v || slots_.empty()) return false;
    uint64_t key = u < v ? Pack(u, v) : Pack(v, u);
    for (size_t i = Slot(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

 private:
  // No edge packs to 0: its ends differ, so max > 0.
  static constexpr uint64_t kEmpty = 0;

  static uint64_t Pack(VertexId low, VertexId high) {
    return (uint64_t{low} << 32) | high;
  }
  size_t Slot(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  /// Power-of-two table, at most half full; kEmpty marks a free slot.
  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace treedl

#endif  // TREEDL_GRAPH_EDGE_INDEX_HPP_
