// Tree-decomposition construction.
//
// The paper relies on Bodlaender's linear-time algorithm [3] for obtaining a
// width-w decomposition; that algorithm is famously impractical, so — like
// every practical system in this space (htd, D-FLAT, …) — we provide the
// standard elimination-order heuristics, plus an exact exponential algorithm
// for small graphs used to assess heuristic quality. DESIGN.md records this
// substitution; downstream components only require *a* valid decomposition of
// bounded width.
#ifndef TREEDL_TD_HEURISTICS_HPP_
#define TREEDL_TD_HEURISTICS_HPP_

#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "graph/graph.hpp"
#include "structure/structure.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl {

enum class TdHeuristic {
  kMinDegree,        // eliminate a vertex of minimum current degree
  kMinFill,          // eliminate a vertex adding the fewest fill edges
  kMcs,              // maximum cardinality search order (reversed)
  kMinFillTieBreak,  // min-fill, ties broken by current degree then id
};

/// An elimination order chosen greedily by `heuristic`. kMinDegree / kMinFill
/// break ties by lowest id (the historical behavior the default session
/// decompositions — and the transcripts and bench baselines pinned to them —
/// depend on); kMinFillTieBreak breaks min-fill ties by smallest current
/// degree, then lowest id, which dominates kMinFill on width in practice.
///
/// Complexity: every step pops the minimum of one ordered (score, id) set
/// and rescores only the vertices the elimination touched, instead of
/// rescanning every live vertex. kMcs is O((n + m) log n). For the others,
/// eliminating v costs O(Σ_{u ∈ N(v)} deg(u) + Σ_{fill edges {x, y}} deg(y))
/// on the elimination graph (td/elimination_order.hpp) plus O(log n) per
/// rescored vertex: O(n log n) overall while live degrees stay bounded, as on
/// the bounded-treewidth inputs the library serves. A vertex of degree D
/// adds O(D) each time one of its neighbours is eliminated.
std::vector<VertexId> HeuristicOrder(const Graph& graph, TdHeuristic heuristic);

struct MultiStartOptions {
  /// Total orders tried: the deterministic (fill, degree, id) order plus
  /// starts - 1 randomized-tie-break restarts.
  size_t starts = 8;
  /// Base seed of the randomized restarts. The decomposition-quality
  /// pipeline passes the session fingerprint here, making the multi-start
  /// result a pure function of the session input.
  uint64_t seed = 0;
};

/// Best-of-K min-fill: the tie-broken deterministic order plus seeded
/// restarts that break (fill, degree) ties uniformly at random, keeping the
/// order with the smallest (induced width, modeled cost). Deterministic per
/// (graph, options). Requires a nonempty graph.
std::vector<VertexId> MinFillMultiStartOrder(const Graph& graph,
                                             const MultiStartOptions& options);

namespace internal {

/// One randomized restart of MinFillMultiStartOrder: the kMinFillTieBreak
/// order with ties on (fill, degree) broken uniformly by `rng`. Declared here
/// so the order-oracle test can check the restarts themselves — the best-of-K
/// result rarely differs from the deterministic start.
std::vector<VertexId> RandomizedMinFillOrder(const Graph& graph, Rng* rng);

}  // namespace internal

/// Decomposes `graph` with `heuristic` (default: min-fill, usually the best
/// of the three).
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
