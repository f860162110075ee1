// Tree-decomposition construction.
//
// The paper relies on Bodlaender's linear-time algorithm [3] for obtaining a
// width-w decomposition; that algorithm is famously impractical, so — like
// every practical system in this space (htd, D-FLAT, …) — we provide the
// standard elimination-order heuristics, plus an exact exponential algorithm
// for small graphs used to assess heuristic quality. docs/ARCHITECTURE.md
// ("Decomposition") records this substitution; downstream components only
// require *a* valid decomposition of bounded width.
#ifndef TREEDL_TD_HEURISTICS_HPP_
#define TREEDL_TD_HEURISTICS_HPP_

#include <vector>

#include "common/status.hpp"
#include "graph/graph.hpp"
#include "structure/structure.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl {

enum class TdHeuristic {
  kMinDegree,  // eliminate a vertex of minimum current degree
  kMinFill,    // eliminate a vertex adding the fewest fill edges
};

/// An elimination order chosen greedily by `heuristic`, ties broken by lowest
/// id (the historical behavior the default session decompositions — and the
/// transcripts and bench baselines pinned to them — depend on).
///
/// Complexity: every step pops the minimum of one ordered (score, id) set
/// and rescores only the vertices the elimination touched, instead of
/// rescanning every live vertex. Eliminating v costs
/// O(Σ_{u ∈ N(v)} deg(u) + Σ_{fill edges {x, y}} deg(y)) on the elimination
/// graph (td/elimination_order.hpp) plus O(log n) per rescored vertex:
/// O(n log n) overall while live degrees stay bounded, as on the
/// bounded-treewidth inputs the library serves. A vertex of degree D adds
/// O(D) each time one of its neighbours is eliminated.
std::vector<VertexId> HeuristicOrder(const Graph& graph, TdHeuristic heuristic);

/// Decomposes `graph` with `heuristic` (default: min-fill, the session
/// default that transcripts and bench baselines are pinned to).
StatusOr<TreeDecomposition> Decompose(const Graph& graph,
                                      TdHeuristic heuristic = TdHeuristic::kMinFill);

/// Decomposes a τ-structure via its Gaifman graph (§2.2: a TD of the
/// structure is exactly a TD of the Gaifman graph).
StatusOr<TreeDecomposition> DecomposeStructure(
    const Structure& structure, TdHeuristic heuristic = TdHeuristic::kMinFill);

/// Exact treewidth via the O(2^n · n^2) subset dynamic program over
/// elimination prefixes. Requires n <= 20; intended for tests and the
/// heuristic-quality benchmark.
StatusOr<int> ExactTreewidth(const Graph& graph);

}  // namespace treedl

#endif  // TREEDL_TD_HEURISTICS_HPP_
