// Graph families and random bounded-treewidth instance generators.
//
// Random partial k-trees are the standard way to obtain graphs whose treewidth
// is at most k by construction; they drive the property tests and the scaling
// benchmarks (the paper's experiments likewise fix tw = 3 and grow the size).
#ifndef TREEDL_GRAPH_GENERATORS_HPP_
#define TREEDL_GRAPH_GENERATORS_HPP_

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace treedl {

Graph PathGraph(size_t n);
Graph CycleGraph(size_t n);
Graph CompleteGraph(size_t n);
/// A fan whose rim is a binary tree: vertex 0, the hub, is adjacent to every
/// other vertex, and vertices 1..n-1 form the tree v -- v/2 (heap order).
/// Treewidth 2 for n >= 3; the hub has degree n - 1 and sits in every bag of
/// a decomposition that branches with the tree, about n/2 of them leaves.
Graph TreeFanGraph(size_t n);
/// The n x m grid; treewidth min(n, m).
Graph GridGraph(size_t rows, size_t cols);
/// The Petersen graph (10 vertices, 3-regular, 3-chromatic, treewidth 4).
Graph PetersenGraph();

/// A random k-tree on n >= k+1 vertices: start from K_{k+1}, then repeatedly
/// attach a fresh vertex to a random existing k-clique. Treewidth exactly k
/// (for n > k). If `clique_out` is non-null it receives, for each vertex, one
/// witnessing bag (the clique it was attached to, plus itself).
Graph RandomKTree(size_t n, int k, Rng* rng);

/// A random partial k-tree: a random k-tree with each edge kept independently
/// with probability `keep_probability`. Treewidth <= k by construction.
Graph RandomPartialKTree(size_t n, int k, double keep_probability, Rng* rng);

/// Erdős–Rényi G(n, p) (no treewidth guarantee; used for negative tests).
Graph RandomGnp(size_t n, double p, Rng* rng);

}  // namespace treedl

#endif  // TREEDL_GRAPH_GENERATORS_HPP_
