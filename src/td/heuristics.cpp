#include "td/heuristics.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>

#include "graph/gaifman.hpp"
#include "td/elimination_order.hpp"

namespace treedl {

std::vector<VertexId> HeuristicOrder(const Graph& graph,
                                     TdHeuristic heuristic) {
  size_t n = graph.NumVertices();
  bool min_fill = heuristic == TdHeuristic::kMinFill;
  internal::EliminationGraph elim(graph, /*track_fill=*/min_fill);
  auto score = [&](VertexId v) {
    return static_cast<int64_t>(min_fill ? elim.Fill(v) : elim.Degree(v));
  };
  // Live vertices ordered by (score, id). The minimum is the lowest-id
  // vertex of the best score — the pick of a strict-< scan in id order.
  // Session decompositions, and the transcripts and bench baselines pinned
  // to them, depend on that tie-break (see OrderOracleTest).
  using Key = std::pair<int64_t, VertexId>;
  std::vector<Key> key(n);
  std::set<Key> queue;
  for (VertexId v = 0; v < n; ++v) {
    key[v] = {score(v), v};
    queue.insert(key[v]);
  }
  std::vector<VertexId> order;
  order.reserve(n);
  while (!queue.empty()) {
    VertexId v = queue.begin()->second;
    queue.erase(queue.begin());
    order.push_back(v);
    for (VertexId u : elim.Eliminate(v)) {
      queue.erase(key[u]);
      key[u].first = score(u);
      queue.insert(key[u]);
    }
  }
  return order;
}

StatusOr<TreeDecomposition> Decompose(const Graph& graph,
                                      TdHeuristic heuristic) {
  if (graph.NumVertices() == 0) {
    return Status::InvalidArgument("cannot decompose the empty graph");
  }
  return DecompositionFromOrder(graph, HeuristicOrder(graph, heuristic));
}

StatusOr<TreeDecomposition> DecomposeStructure(const Structure& structure,
                                               TdHeuristic heuristic) {
  if (structure.NumElements() == 0) {
    return Status::InvalidArgument("cannot decompose the empty structure");
  }
  return Decompose(GaifmanGraph(structure), heuristic);
}

StatusOr<int> ExactTreewidth(const Graph& graph) {
  size_t n = graph.NumVertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (n > 20) {
    return Status::OutOfRange("exact treewidth limited to 20 vertices");
  }
  // f(S) = best achievable max-bag-minus-one when the vertex set S (bitmask)
  // is eliminated first, in some order. Transition: last vertex v of the
  // prefix costs q(S \ {v}, v) = |neighbors of v reachable via S \ {v}|.
  size_t full = size_t{1} << n;
  std::vector<int8_t> f(full, 0);
  auto q = [&](uint64_t through, VertexId v) -> int {
    // BFS from v, travelling only through vertices in `through`; count
    // reached vertices outside `through` (excluding v itself).
    uint64_t seen = uint64_t{1} << v;
    std::vector<VertexId> stack{v};
    int count = 0;
    while (!stack.empty()) {
      VertexId u = stack.back();
      stack.pop_back();
      for (VertexId w : graph.Neighbors(u)) {
        if (seen & (uint64_t{1} << w)) continue;
        seen |= uint64_t{1} << w;
        if (through & (uint64_t{1} << w)) {
          stack.push_back(w);
        } else {
          ++count;
        }
      }
    }
    return count;
  };
  f[0] = -1;
  for (uint64_t s = 1; s < full; ++s) {
    int best = std::numeric_limits<int>::max();
    uint64_t rest = s;
    while (rest) {
      int v = __builtin_ctzll(rest);
      rest &= rest - 1;
      uint64_t prev = s & ~(uint64_t{1} << v);
      int cost = std::max(static_cast<int>(f[prev]),
                          q(prev, static_cast<VertexId>(v)));
      best = std::min(best, cost);
    }
    f[s] = static_cast<int8_t>(best);
  }
  return static_cast<int>(f[full - 1]);
}

}  // namespace treedl
